"""Laurent polynomials in two variables with exact rational coefficients:
parsing, ring arithmetic, algebraic mutations and period sequences.

Coefficients and period terms follow geom's convention: an int when
integral, a Fraction otherwise, made by geom.to_fraction and geom.qdiv."""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .geom import ORIGIN, Polygon, Rational, RationalLike, Vector2, _halfplanes, _lattice_basis, hull_of_pairs, qdiv, to_fraction
from .mutation import MutationData, factor_for

Exponent = tuple[int, int]

VAR_NAMES = ("x", "y")
_ALIASES = {"x": 0, "x1": 0, "y": 1, "x2": 1}


class LaurentSyntaxError(DomainError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ZeroDenominator(DomainError):
    pass


class ZeroPolynomial(DomainError):
    pass


class DivisibilityFails(DomainError):
    def __init__(self, grade: int):
        super().__init__(f"coefficient of grade {grade} is not divisible by g^{grade}")
        self.grade = grade


class LaurentPoly:
    """Finite map from integer exponent pairs to nonzero exact rational
    coefficients, with exact ring arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Exponent, RationalLike] | None = None):
        cleaned: dict[Exponent, Rational] = {}
        for (e1, e2), c in (terms or {}).items():
            if type(e1) is not int or type(e2) is not int:
                raise DomainError(f"exponents must be integers: {(e1, e2)!r}")
            c = to_fraction(c)
            if c != 0:
                cleaned[e1, e2] = c
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    # --- constructors ---

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly({})

    @staticmethod
    def const(c: RationalLike) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

    @staticmethod
    def monomial(e1: int, e2: int, c: RationalLike = 1) -> "LaurentPoly":
        return LaurentPoly({(e1, e2): c})

    # --- queries ---

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, e1: int, e2: int) -> Rational:
        return self.terms.get((e1, e2), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # --- ring operations ---

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[Exponent, Rational] = {}
        for (a1, a2), ca in self.terms.items():
            for (b1, b2), cb in other.terms.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + ca * cb
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if len(self.terms) == 1:
            # a monomial's power is read off directly, with no squarings
            ((e1, e2), c), = self.terms.items()
            return LaurentPoly({(n * e1, n * e2): c**n if n >= 0 else qdiv(1, c**-n)})
        if n < 0:
            raise DomainError("negative powers need a single monomial")
        out = LaurentPoly.const(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # square only while bits remain
                base = base * base
        return out

    # --- rendering ---

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            factors = []
            for name, exp in zip(VAR_NAMES, e):
                if exp == 1:
                    factors.append(name)
                elif exp != 0:
                    factors.append(f"{name}^{exp}")
            body = "*".join(factors)
            if not body:
                parts.append((c < 0, str(abs(c))))
            elif abs(c) == 1:
                parts.append((c < 0, body))
            else:
                parts.append((c < 0, f"{abs(c)}*{body}"))
        out = []
        for i, (neg, text) in enumerate(parts):
            if i == 0:
                out.append(("-" if neg else "") + text)
            else:
                out.append((" - " if neg else " + ") + text)
        return "".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.render()})"


# Work budget of one parse, charged before each parenthesized power and
# each product is computed.  A power f^n measures |n| times the longest
# numerator or denominator of f in bits times comb(|n| + t - 1, |n|), the
# most terms f^n can have for the t terms of f; a product measures its term
# pairs times the longest numerator or denominator of its factors in bits.
# A power is expanded only once the product it is a factor of is charged,
# so (x + y + x^-1*y^-1)^99 (x + y + x^-1*y^-1)^99 is refused before either
# power is expanded.  At the limit (x + y + x^-1*y^-1)^99 takes 0.7-0.95 s,
# and four terms with no sums in common, (x + x^43 + x^1849 + x^79507)^40,
# 0.9 s (2-vCPU Xeon VM, Python 3.11).  A power of a monomial with
# coefficient +-1 stays 1 bit wide, so it measures the bits of its largest
# exponent instead.  algebraic_mutate charges the powers of g it expands,
# and the steps of its divisions by them, against the same limit.
PARSE_POWER_LIMIT = 500_000

# The parser recurses three frames deep per parenthesis; deeper nesting is
# refused at its '(' so that 600 frames leave room under the default
# recursion limit of 1000 for callers such as batch-verify or a test runner.
PARSE_DEPTH_LIMIT = 200


def _shape(f: LaurentPoly, n: int) -> tuple[int, int]:
    """(terms, bits) of f^n without expanding it: the most terms it can
    have, and |n| times the longest numerator or denominator of f in bits,
    or, for a monomial with coefficient +-1, the bits of its largest
    exponent in f^n."""
    t = len(f.terms)
    k = abs(n)
    if t == 1:
        ((e1, e2), c), = f.terms.items()
        if abs(c) == 1:
            return 1, max(abs(k * e1), abs(k * e2), 1).bit_length()
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in f.terms.values()), default=0)
    return (math.comb(k + t - 1, k) if t else int(k == 0)), k * bits


def _power_size(f: LaurentPoly, n: int) -> int:
    """The budget measure of f^n for n >= 1; n * t bounds it from below for
    t >= 2 terms, so it stops there when that is already over the limit."""
    t = len(f.terms)
    if t > 1 and n * t > PARSE_POWER_LIMIT:
        return n * t
    return math.prod(_shape(f, n))


def _expand(f: LaurentPoly, n: int) -> LaurentPoly:
    return f if n == 1 else f**n


class _Parser:
    """Recursive descent over tokens (kind, text, offset) with kind one of
    'num', 'name', 'op' and 'end'.  Tokens are read lazily, one at a time,
    so the first error in reading order is the one reported: in 'x ) $' it
    is the ')', not the '$'."""

    def __init__(self, s: str):
        self.s = s
        self.i = 0
        self.work = 0
        self.depth = 0

    def charge(self, work: int, what: str) -> None:
        """Count work against PARSE_POWER_LIMIT before it is done."""
        self.work += work
        if self.work > PARSE_POWER_LIMIT:
            raise DomainError(f"{what} exceeds the parse budget PARSE_POWER_LIMIT = {PARSE_POWER_LIMIT}")

    def peek(self) -> tuple[str, str, int]:
        s = self.s
        i = self.i
        while i < len(s) and s[i].isspace():
            i += 1
        if i >= len(s):
            return ("end", "", i)
        ch = s[i]
        j = i + 1
        if ch in "0123456789":
            while j < len(s) and s[j] in "0123456789":
                j += 1
            return ("num", s[i:j], i)
        if ch.isalpha():
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            return ("name", s[i:j], i)
        if ch in "+-*/^()":
            return ("op", ch, i)
        raise LaurentSyntaxError(f"unexpected character {ch!r}", i)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.i = tok[2] + len(tok[1])
        return tok

    def accept(self, ops: str) -> str:
        """Consume and return the next token if it is an operator in ops, else ''."""
        kind, val, pos = self.peek()
        if kind != "op" or val not in ops:
            return ""
        self.i = pos + 1
        return val

    def integer(self, expected: str) -> int:
        """Consume an integer literal, or raise `expected` where it is missing."""
        kind, val, pos = self.take()
        if kind != "num":
            raise LaurentSyntaxError(expected, pos)
        try:
            return int(val)
        except ValueError as e:  # over the interpreter's int digit limit
            raise LaurentSyntaxError(f"integer of {len(val)} digits is too long", pos) from e

    def parse(self) -> LaurentPoly:
        poly = self._expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise LaurentSyntaxError(f"unexpected {val!r}", pos)
        return poly

    def _expr(self) -> LaurentPoly:
        sign = self.accept("+-")
        acc = self._term()
        if sign == "-":
            acc = -acc
        while op := self.accept("+-"):
            nxt = self._term()
            acc = acc + (-nxt if op == "-" else nxt)
        return acc

    def _term(self) -> LaurentPoly:
        acc, n = self._factor()
        while True:
            kind, val, pos = self.peek()
            # a '*', or juxtaposition with the start of the next factor
            if self.accept("*") or kind in ("num", "name") or (kind, val) == ("op", "("):
                nxt, m = self._factor()
                (ta, ba), (tb, bb) = _shape(acc, n), _shape(nxt, m)
                self.charge(ta * tb * max(ba, bb), f"product at offset {pos}")
                acc, n = _expand(acc, n) * _expand(nxt, m), 1
            else:
                return _expand(acc, n)

    def _factor(self) -> tuple[LaurentPoly, int]:
        """A factor f^n as (f, n), charged but not yet expanded."""
        kind, val, pos = self.peek()
        if kind == "num":
            num = self.integer("expected a number")
            if self.accept("/"):
                den_pos = self.peek()[2]
                den = self.integer("expected a denominator")
                if den == 0:
                    raise ZeroDenominator(f"zero denominator at offset {den_pos}")
                return LaurentPoly.const(qdiv(num, den)), 1
            return LaurentPoly.const(num), 1
        if kind == "name":
            if val not in _ALIASES:
                raise LaurentSyntaxError(f"unknown variable {val!r}", pos)
            self.take()
            e = [0, 0]
            e[_ALIASES[val]] = self._exponent()
            return LaurentPoly.monomial(e[0], e[1]), 1
        if self.accept("("):
            self.depth += 1
            if self.depth > PARSE_DEPTH_LIMIT:
                raise LaurentSyntaxError(f"nesting exceeds the parse budget PARSE_DEPTH_LIMIT = {PARSE_DEPTH_LIMIT}", pos)
            inner = self._expr()
            self.depth -= 1
            if not self.accept(")"):
                raise LaurentSyntaxError("expected ')'", self.peek()[2])
            exp = self._exponent()
            if exp < 0 and len(inner.terms) != 1:
                raise LaurentSyntaxError("negative power of a non-monomial", pos)
            if exp not in (0, 1):
                self.charge(_power_size(inner, abs(exp)), f"power {exp} at offset {pos}")
            return inner, exp
        raise LaurentSyntaxError(f"expected a term, found {val!r}" if val else "unexpected end of input", pos)

    def _exponent(self) -> int:
        """The exponent after an optional '^', 1 if there is none."""
        if not self.accept("^"):
            return 1
        sign = -1 if self.accept("-") else 1
        return sign * self.integer("expected an integer exponent")


def parse(s: str) -> LaurentPoly:
    """Parse an expression in x, y (aliases x1, x2) with integer or p/q
    coefficients, signed integer exponents, and parenthesized
    subexpressions with integer powers, expanded within PARSE_POWER_LIMIT
    and nested at most PARSE_DEPTH_LIMIT deep."""
    if not isinstance(s, str):
        raise DomainError(f"a Laurent polynomial must be a string, not {type(s).__name__}")
    return _Parser(s).parse()


def render(f: LaurentPoly) -> str:
    """Canonical string form; parse(render(f)) == f."""
    return f.render()


def div_exact(f: LaurentPoly, g: LaurentPoly, budget: float = math.inf) -> Optional[LaurentPoly]:
    """Exact quotient f/g in the Laurent ring, or None when not divisible.

    Monomial units are stripped first; divisibility then reduces to exact
    division of ordinary polynomials, decided by reduction against the
    lex-leading term of the divisor.  Each reduction step measures the
    quotient term it writes and the terms of g it subtracts, and a division
    whose steps pass budget is refused as a DomainError: algebraic_mutate
    charges its divisions against PARSE_POWER_LIMIT so.
    """
    if g.is_zero():
        raise DomainError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero()
    fs, fshift = _strip_units(f)
    gs, gshift = _strip_units(g)
    lt_g = max(gs)
    lc_g = gs[lt_g]
    rem = dict(fs)
    # each step adds only terms below the leading one it cancels, so the
    # leads come off a heap of the negated exponents in decreasing order,
    # past the entries of terms that cancelled on the way
    heap = [(-a, -b) for a, b in rem]
    heapq.heapify(heap)
    quo: dict[Exponent, Rational] = {}
    while rem:
        budget -= 1 + len(gs)
        if budget < 0:
            raise DomainError(f"division steps pass the budget PARSE_POWER_LIMIT = {PARSE_POWER_LIMIT}")
        while (lt_r := (-heap[0][0], -heap[0][1])) not in rem:
            heapq.heappop(heap)
        d = (lt_r[0] - lt_g[0], lt_r[1] - lt_g[1])
        if d[0] < 0 or d[1] < 0:
            return None
        c = qdiv(rem[lt_r], lc_g)
        quo[d] = c
        for e, ce in gs.items():
            key = (e[0] + d[0], e[1] + d[1])
            nv = rem.get(key, 0) - c * ce
            if nv == 0:
                rem.pop(key, None)
            else:
                if key not in rem:
                    heapq.heappush(heap, (-key[0], -key[1]))
                rem[key] = nv
    shift = (fshift[0] - gshift[0], fshift[1] - gshift[1])
    return LaurentPoly({(e[0] + shift[0], e[1] + shift[1]): c for e, c in quo.items()})


def _strip_units(f: LaurentPoly) -> tuple[dict[Exponent, Rational], Exponent]:
    m1 = min(e[0] for e in f.terms)
    m2 = min(e[1] for e in f.terms)
    return {(e[0] - m1, e[1] - m2): c for e, c in f.terms.items()}, (m1, m2)


def newton_polytope(f: LaurentPoly) -> Polygon:
    """Convex hull of the exponent vectors."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polytope")
    return hull_of_pairs(f.terms)


def _exchanged(f: LaurentPoly, divide: str) -> LaurentPoly:
    """f as the y path sees it: f itself when y is divided, and f with x
    and y exchanged when x is, so that applying it twice gives f back."""
    if divide == "y":
        return f
    return LaurentPoly({(e2, e1): c for (e1, e2), c in f.terms.items()})


@dataclass(frozen=True)
class MutationSpec:
    """Which variable gets divided, and the Laurent polynomial g in the
    other variable that divides it.  Dividing x by g(y) is dividing y by
    g(x) with x and y exchanged."""

    divide: str  # "x" or "y"
    g: LaurentPoly

    def __post_init__(self):
        if self.divide not in VAR_NAMES:
            raise DomainError(f"divide must be one of {VAR_NAMES}: {self.divide!r}")
        if self.g.is_zero():
            raise DomainError("g must be nonzero")
        if any(e2 for _, e2 in _exchanged(self.g, self.divide).terms):
            raise DomainError(f"g may only involve {'x' if self.divide == 'y' else 'y'}")


def algebraic_mutate(f: LaurentPoly, spec: MutationSpec) -> LaurentPoly:
    """Substitute the divided variable v by v/g: writing f as a sum of
    graded pieces f_i * v^i, positive grades are divided by g^i (raising
    DivisibilityFails if impossible) and negative grades are multiplied.
    Dividing x runs the y case on f and g with x and y exchanged, and
    exchanges the result back.

    The deformation story needs the origin inside the Newton polytope and
    grades on both sides of zero; a violation only warns.  The powers
    g^|i| of the nonzero grades i are charged against PARSE_POWER_LIMIT,
    as the parser charges a power, before the first is expanded; the
    divisions by them are charged step by step (see div_exact) against
    what is left, and refused as a DomainError once it runs out.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot mutate the zero polynomial")
    f = _exchanged(f, spec.divide)
    g = _exchanged(spec.g, spec.divide)
    grades: dict[int, dict[Exponent, Rational]] = {}
    for (e1, e2), c in f.terms.items():
        grades.setdefault(e2, {})[e1, 0] = c
    k, l = min(grades), max(grades)
    origin_ok = newton_polytope(f).contains(ORIGIN)
    if not (k < 0 < l) or not origin_ok:
        msg = (
            "mutation input does not satisfy the deformation hypotheses "
            f"(grades span [{k}, {l}], origin inside Newton polytope: {origin_ok})"
        )
        warnings.warn(msg, stacklevel=2)
    work = sum(_power_size(g, abs(i)) for i in grades if i)
    if work > PARSE_POWER_LIMIT:
        raise DomainError(f"powers of g measure {work}, over the budget PARSE_POWER_LIMIT = {PARSE_POWER_LIMIT}")
    powers = {abs(i): g ** abs(i) for i in grades if i}
    budget = PARSE_POWER_LIMIT - work
    out = LaurentPoly.zero()
    for i in sorted(grades):
        fi = LaurentPoly(grades[i])
        if i > 0:
            q = div_exact(fi, powers[i], budget)
            if q is None:
                raise DivisibilityFails(i)
            budget -= len(q.terms) * (1 + len(powers[i].terms))  # one step per quotient term
        elif i < 0:
            q = fi * powers[-i]
        else:
            q = fi
        out = out + q * LaurentPoly.monomial(0, i)
    return _exchanged(out, spec.divide)


def derive_mutation_data(f: LaurentPoly, spec: MutationSpec) -> tuple[MutationData, Vector2]:
    """Mutation data on the Newton polygon implied by an algebraic mutation.

    Returns (md, c): md has w = (0, -1) and f0 = (1, 0) when y is divided,
    and their exchange w = (-1, 0), f0 = (0, 1) when x is, with t the
    length of Newt(g) = c + t*F; c is the translation from F to the true
    Newton segment of g, so Newt(mutate(f)) equals the md-mutation of
    Newt(f) sheared by v -> v + <w, v> * c (c = 0 whenever g has a nonzero
    constant term).  factor_for refuses a Newt(f) that is not Fano, at
    every t, and a t that it has no factor of.
    """
    md, shear = _mutation_data(spec)
    factor_for(newton_polytope(f), md.w, md.t)
    return md, shear


def _mutation_data(spec: MutationSpec) -> tuple[MutationData, Vector2]:
    """derive_mutation_data unchecked, for a caller whose mutate checks it."""
    exps = [e1 for e1, _ in _exchanged(spec.g, spec.divide).terms]
    lo, t = min(exps), max(exps) - min(exps)
    w, f0 = (Vector2(0, -1), Vector2(1, 0)) if spec.divide == "y" else (Vector2(-1, 0), Vector2(0, 1))
    return MutationData(w=w, t=t, f0=f0), f0.scale(lo)


# Work budgets of period_sequence, each checked before any work: the
# largest dmax, and the work of the packed kernel in its own units,
# passes * dmax * B * (digits of the packed box), counted after the
# pre-pass (see period_sequence).  The measure is that of a kernel that
# carries every row of the box in every step; the kernel carries only the
# rows that can still reach a constant term and multiplies once per
# distinct |c|, so the measure over-counts its work; it is kept so that the
# refused inputs stay the same.  One unit took 0.005-0.08 ns on the inputs
# measured with every row carried (2-vCPU Xeon VM, Python 3.11), so an
# accepted input runs for at most about 1.6 s; the hexagon
# x + y + 1/x + 1/y + x/y + y/x measures 6.3e9 units at dmax 100 and takes
# 0.12-0.21 s.
PERIOD_DMAX_LIMIT = 100
PERIOD_WORK_LIMIT = 2 * 10**10


def period_sequence(f: LaurentPoly, dmax: int) -> list[Rational]:
    """Constant terms of f^d for d = 0..dmax (the period coefficients).

    The denominators are cleared once: f = F/D with D the lcm of the
    coefficient denominators and F integral, and the d-th term is
    ct(F^d)/D^d, exact.  The zero polynomial gives [1, 0, ..., 0].

    Pre-pass: a term b of F is dropped when -b is not in (dmax - 1)*N,
    N = Newt(F), and the test is repeated on the rest until nothing is
    dropped.  A product of at most dmax terms that sums to 0 and contains
    b has -b in (dmax - 1)*N, so no such product is lost.  When 0 is not
    in N every term after the first is 0.

    Kernel (Kronecker substitution): the exponents lie on e0 + L, with L
    the lattice their differences span, with basis (g1, h), (0, g2) from
    geom._lattice_basis.  A term at e0 + u*(g1, h) + v*(0, g2) becomes
    the B-bit digit in column u - umin of row v - vmin of one integer, its
    rows S = dmax*wx + 1 digits long for the widths wx, wy of the box of
    the (u, v), and B = bits((sum |coefficients|)^dmax) + 1.  F^k then
    packs to the integer P_k = sum c * (P_(k-1) << shift) over the terms
    of F, since no row of F^k is wider than S and its coefficients sum in
    absolute value to less than 2^(B - 1).  A step multiplies P once per
    distinct |c| other than 1 and subtracts the shifts of negative terms.

    Reachable rows: the constant term sits in row k*a of F^k, where
    a = (x0*h - y0*g1)/(g1*g2) (-y0/g2 when g1 = 0) is the row of -e0, a
    rational in [vmin, vmax] as 0 is in N.  A row v of F^k reaches
    ct(F^n) for some n <= dmax only if dmax*a - (dmax - k)*vmax <= v <=
    dmax*a - (dmax - k)*vmin, so each step drops the rows outside that
    band: those below by rounding P at the band's first bit, those above by
    keeping P modulo 2^m at its last bit, and the row of bit 0 is tracked.
    Both are exact, as the digits below any bit sum to less than half of it
    in absolute value; the residue differs from the signed one by 0 or
    2^m, a 1 above the band, which like every row above it never reaches a
    row that is read.  A support with g2 = 0 has one row and is not cut.

    Readout: ct(F^k) is 0 unless -k*e0 is in L, and otherwise the signed
    digit at the position of -k*e0, inside the band, read from the B + 1
    bits of P from one below its bit by rounding: one shift of P per term.

    A dmax above PERIOD_DMAX_LIMIT, and a kernel whose work
    passes * dmax * B * (S * (dmax*wy + 1)) exceeds PERIOD_WORK_LIMIT, are
    refused before any work; the measure is that of the kernel without the
    band, with one pass over P a step per term and one per 30-bit word of
    each distinct coefficient other than 1.
    """
    if type(dmax) is not int:  # a bool is an int subclass, but no dmax
        raise DomainError(f"dmax must be an integer: {dmax!r}")
    if dmax < 0:
        raise DomainError("dmax must be nonnegative")
    if dmax > PERIOD_DMAX_LIMIT:
        raise DomainError(f"dmax {dmax} exceeds the period budget PERIOD_DMAX_LIMIT = {PERIOD_DMAX_LIMIT}")
    out: list[Rational] = [1] + [0] * dmax
    exps = list(f.terms) if dmax else []
    while exps:
        # integer inequalities n.e >= c of N, stored as (n, -c): a term b
        # is kept when n.(-b) >= (dmax - 1)*c, i.e. n.b <= (dmax - 1)*(-c)
        cuts = [(n1, n2, -c) for n1, n2, c in _halfplanes(hull_of_pairs(exps))]
        if any(m < 0 for _, _, m in cuts):
            return out
        kept = [(x, y) for x, y in exps if all(n1 * x + n2 * y <= (dmax - 1) * m for n1, n2, m in cuts)]
        if len(kept) == len(exps):
            break
        exps = kept
    if not exps:
        return out
    den = math.lcm(*(f.terms[e].denominator for e in exps))
    x0, y0 = exps[0]
    g1, h, g2 = _lattice_basis((x - x0, y - y0) for x, y in exps)

    def coords(x: int, y: int) -> Optional[tuple[int, int]]:
        """(u, v) with (x, y) = u*(g1, h) + v*(0, g2), None off the lattice."""
        u, r = divmod(x, g1) if g1 else (0, x)
        v, s = divmod(y - u * h, g2) if g2 else (0, y - u * h)
        return None if r or s else (u, v)

    terms = [(coords(x - x0, y - y0), int(f.terms[x, y] * den)) for x, y in exps]
    umin = min(u for (u, _), _ in terms)
    vmin = min(v for (_, v), _ in terms)
    vmax = max(v for (_, v), _ in terms)
    wx = max(u for (u, _), _ in terms) - umin
    wy = vmax - vmin
    S = dmax * wx + 1
    B = (sum(abs(c) for _, c in terms) ** dmax).bit_length() + 1
    # |c| -> the bit shifts of its positive terms and of its negative terms
    shifts: dict[int, tuple[list[int], list[int]]] = {}
    for (u, v), c in terms:
        shifts.setdefault(abs(c), ([], []))[c < 0].append(B * (u - umin + (v - vmin) * S))
    # the measure counts one pass over P per term and one per 30-bit word
    # of each distinct coefficient other than 1; a step multiplies only by
    # each distinct |c| other than 1, so this is an upper bound
    passes = len(terms) + sum((abs(c).bit_length() + 29) // 30 for c in {c for _, c in terms} if c != 1)
    work = passes * dmax * B * S * (dmax * wy + 1)
    if work > PERIOD_WORK_LIMIT:
        raise DomainError(f"period work {work} exceeds the period budget PERIOD_WORK_LIMIT = {PERIOD_WORK_LIMIT}")
    # the row of -e0 is a = na/da; P holds rows lo..hi, bit 0 in row lo
    na, da = (x0 * h - y0 * g1, g1 * g2) if g1 else (-y0, g2)
    row = B * S
    mask = (1 << B) - 1
    mask2 = (1 << (B + 1)) - 1
    P, lo, hi = 1, 0, 0
    for k in range(1, dmax + 1):
        Q = 0
        for c, (pos, neg) in shifts.items():
            Pc = P if c == 1 else c * P
            for s in pos:
                Q += Pc << s
            for s in neg:
                Q -= Pc << s
        P, lo, hi = Q, lo + vmin, hi + vmax
        if g2 and k < dmax:
            # keep the rows from which dmax - k more terms can reach row
            # dmax*a: the band, cut above with a mask and below by rounding
            top = (dmax * na - (dmax - k) * vmin * da) // da
            if top < hi:
                P &= (1 << ((top - lo + 1) * row)) - 1
                hi = top
            bottom = -(((dmax - k) * vmax * da - dmax * na) // da)
            if bottom > lo:
                n = (bottom - lo) * row
                P = (P + (1 << (n - 1))) >> n
                lo = bottom
        at = coords(-k * x0, -k * y0)
        if at is None:
            continue
        i = B * (at[0] - k * umin) + (at[1] - lo) * row
        # the digits below bit i sum to less than 2^(i-1) in absolute
        # value, so rounding P / 2^i to an integer leaves the digit at i
        # as its lowest B bits, which bits i - 1 to i + B - 1 of P give
        t = (P >> (i - 1)) & mask2 if i else (P & mask) << 1
        d = ((t + 1) >> 1) & mask
        out[k] = qdiv(d - (d >> (B - 1) << B), den**k)
    return out
