"""Divisorial polytopes of polarized toric surfaces with the subtorus
action fixed to first-coordinate projection.

A divisorial polytope is a rational interval (the box) together with
finitely many concave piecewise-linear coefficient functions labelled by
points of the projective line; unlabelled points implicitly carry the zero
function.  A lattice polygon gives one via its upper envelope (the
coefficient at zero) and its negated lower envelope (at infinity).

Values are coerced once, where they come in: `PLFunc(...)`, the public
constructors `constant`, `affine` and `min_of_affines`, `DivPoly(...)`,
`shift_affine` and the JSON readers, which take JSON lists only.  The
results of divpoly's own arithmetic are built by the trusted
`PLFunc._canonical`, which assumes ints and Fractions, folds an integral
Fraction to its int, and still merges collinear breakpoints and refuses
breakpoints that do not increase or slopes that do not decrease; and by
`DivPoly._of`, which assumes a stored box and coefficients defined on it.
Sums, the reduction and the pipeline's identities read a function at
sorted points in one walk along its breakpoints (`PLFunc._at`); two PL
functions are equal when they agree at the union of their breakpoints.
`shift_affine` and `PLFunc._kink` (min(t*u, 0)) build no Fraction on ints.

The deformation pipeline's public steps trust what came before them:
`DivPoly.with_split` assumes parts defined on the box, which
`deform.is_admissible` checks; `from_polygon` checks that a polygon is a
full-dimensional lattice polygon and reads both envelopes off the
canonical integer cycle it stores with `_cycle_divpoly`; and `to_polygon`
hulls exact (u, value) pairs with `geom.hull_of_pairs`.  The deformation
core runs them on the integer columns of `_envelope_table`, and
`_certificate_divpolys` builds a certificate's PL objects.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .geom import (
    Polygon,
    Rational,
    RationalLike,
    hull_of_pairs,
    qdiv,
    to_fraction,
)


_new = object.__new__
_set = object.__setattr__


class NotLatticePolygon(DomainError):
    pass


class NotFullDimensionalPolygon(DomainError):
    pass


class TooManyNontrivialCoefficients(DomainError):
    pass


class EmptyFiber(DomainError):
    pass


class ConcavityBroken(DomainError):
    pass


class DomainMismatch(DomainError):
    pass


class LabelCollision(DomainError):
    pass


@functools.total_ordering  # labels order as their (kind, name) pairs
class PointLabel:
    """A closed point of the projective line: zero, infinity, or a named
    parameter point (the general-fiber location).

    Equal, hashed, ordered and printed as the (kind, name) pair, as a frozen
    dataclass would be; the pair is stored once, as the key."""

    __slots__ = ("kind", "name", "_key")

    def __init__(self, kind: int, name: str = ""):
        # kind: 0 = zero, 1 = infinity, 2 = parameter
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "_key", (kind, name))

    def __setattr__(self, *a):
        raise AttributeError("PointLabel is immutable")

    def __delattr__(self, *a):
        raise AttributeError("PointLabel is immutable")

    def __reduce__(self):
        return PointLabel, self._key

    def __eq__(self, other) -> bool:
        if other.__class__ is not PointLabel:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "PointLabel") -> bool:
        if other.__class__ is not PointLabel:
            return NotImplemented
        return self._key < other._key

    def __repr__(self) -> str:
        return f"PointLabel(kind={self.kind!r}, name={self.name!r})"

    def __str__(self) -> str:
        if self.kind == 0:
            return "0"
        if self.kind == 1:
            return "inf"
        return self.name

    @staticmethod
    def param(name: str) -> "PointLabel":
        if not name or name in ("0", "inf"):
            raise DomainError(f"bad parameter label: {name!r}")
        return PointLabel(2, name)

    @staticmethod
    def parse(s: str) -> "PointLabel":
        if not isinstance(s, str):
            raise DomainError(f"point label must be a string: {s!r}")
        if s == "0":
            return ZERO
        if s == "inf":
            return INFINITY
        return PointLabel.param(s)


ZERO = PointLabel(0)
INFINITY = PointLabel(1)


def interval_str(iv: tuple[Rational, Rational]) -> str:
    """An interval's endpoints as canonical rationals: '(1/2, 3)'."""
    return f"({iv[0]}, {iv[1]})"


def _canonical_form(
    bs: Sequence[Rational], vs: Sequence[Rational]
) -> tuple[tuple[Rational, ...], tuple[Rational, ...]]:
    """The concave function through the points (bs[i], vs[i]) in one pass:
    integral Fractions folded, breakpoints where the slope does not change
    merged.  Refuses breakpoints that do not increase (DomainError) before
    slopes that do not decrease (ConcavityBroken); c > 0 when the slope
    into the last kept point exceeds dv/db, so no slope is divided out."""
    kb, kv = [], []
    broken = False
    for b, v in zip(bs, vs):
        if type(b) is not int and b.denominator == 1:
            b = b.numerator
        if type(v) is not int and v.denominator == 1:
            v = v.numerator
        if kb:
            db, dv = b - kb[-1], v - kv[-1]
            if db <= 0:
                raise DomainError("breakpoints must be strictly increasing")
            if len(kb) > 1:
                c = (kv[-1] - kv[-2]) * db - dv * (kb[-1] - kb[-2])
                if c < 0:
                    broken = True
                elif not c:
                    kb.pop()
                    kv.pop()
        kb.append(b)
        kv.append(v)
    if broken:
        raise ConcavityBroken("slopes must be nonincreasing")
    return tuple(kb), tuple(kv)


class PLFunc:
    """Concave piecewise-linear function on a rational interval, stored by
    breakpoints and values with no redundant breakpoints.

    The constructor reads its points through to_fraction.  Functions that
    the library computes go through `_canonical`, which trusts them.  The
    slopes are computed once, when first asked for."""

    __slots__ = ("breaks", "values", "_slopes")

    def __init__(self, breaks: Sequence[RationalLike], values: Sequence[RationalLike]):
        bs = [to_fraction(b) for b in breaks]
        vs = [to_fraction(v) for v in values]
        if len(bs) != len(vs) or len(bs) < 2:
            raise DomainError("need matching breakpoint and value lists (>= 2 points)")
        bs, vs = _canonical_form(bs, vs)
        _set(self, "breaks", bs)
        _set(self, "values", vs)
        _set(self, "_slopes", None)

    @classmethod
    def _canonical(cls, bs: Sequence[Rational], vs: Sequence[Rational]) -> "PLFunc":
        # bs and vs are ints or Fractions computed from stored values, at
        # least two and as many of each; _canonical_form folds integral
        # Fractions (1/2 + 1/2) to their ints and still merges and checks
        bs, vs = _canonical_form(bs, vs)
        f = _new(cls)
        _set(f, "breaks", bs)
        _set(f, "values", vs)
        _set(f, "_slopes", None)
        return f

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("PLFunc is immutable")

    # --- constructors ---

    @staticmethod
    def constant(domain: tuple[RationalLike, RationalLike], c: RationalLike) -> "PLFunc":
        return PLFunc.affine(domain, 0, c)

    @staticmethod
    def affine(domain: tuple[RationalLike, RationalLike], slope: RationalLike, intercept: RationalLike) -> "PLFunc":
        a, b = to_fraction(domain[0]), to_fraction(domain[1])
        s, c = to_fraction(slope), to_fraction(intercept)
        return PLFunc._canonical((a, b), (s * a + c, s * b + c))

    @staticmethod
    def min_of_affines(domain: tuple[RationalLike, RationalLike], affines: Iterable[tuple[RationalLike, RationalLike]]) -> "PLFunc":
        """Pointwise minimum of affine functions (slope, intercept)."""
        a, b = to_fraction(domain[0]), to_fraction(domain[1])
        fns = [(to_fraction(s), to_fraction(c)) for s, c in affines]
        if not fns:
            raise DomainError("need at least one affine function")
        if a >= b:
            raise DomainError("breakpoints must be strictly increasing")
        us = {a, b}
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                s1, c1 = fns[i]
                s2, c2 = fns[j]
                if s1 != s2:
                    u = qdiv(c2 - c1, s1 - s2)
                    if a < u < b:
                        us.add(u)
        bs = sorted(us)
        vs = [min(s * u + c for s, c in fns) for u in bs]
        return PLFunc._canonical(bs, vs)

    @staticmethod
    def _kink(box: tuple[Rational, Rational], t: Rational) -> "PLFunc":
        # min_of_affines(box, [(t, 0), (0, 0)]) for a stored box and an exact t
        bs = (box[0], 0, box[1]) if box[0] < 0 < box[1] else box
        return PLFunc._canonical(bs, [min(t * u, 0) for u in bs])

    # --- basic queries ---

    @property
    def domain(self) -> tuple[Rational, Rational]:
        return self.breaks[0], self.breaks[-1]

    def __call__(self, u: RationalLike) -> Rational:
        u = to_fraction(u)
        if u < self.breaks[0] or u > self.breaks[-1]:
            raise DomainError(f"{u} is outside the domain {interval_str(self.domain)}")
        return self._at((u,))[0]

    def _at(self, us: Sequence[Rational]) -> list[Rational]:
        """The values at the points us, which are sorted and lie in the
        domain, in one walk along the breakpoints; each equals self(u)."""
        bs, vs = self.breaks, self.values
        last = len(bs) - 1
        out = []
        i = 0
        for u in us:
            while i < last and bs[i + 1] <= u:
                i += 1
            b1, v1 = bs[i], vs[i]
            if u == b1:
                out.append(v1)
            else:
                # a Fraction v1 plus a Fraction quotient can sum to an integer
                v = v1 + qdiv((vs[i + 1] - v1) * (u - b1), bs[i + 1] - b1)
                out.append(v.numerator if v.denominator == 1 else v)
        return out

    def slopes(self) -> tuple[Rational, ...]:
        if self._slopes is None:
            bs, vs = self.breaks, self.values
            _set(self, "_slopes", tuple(qdiv(vs[i + 1] - vs[i], bs[i + 1] - bs[i]) for i in range(len(bs) - 1)))
        return self._slopes

    def is_affine(self) -> bool:
        return len(self.breaks) == 2

    def is_zero(self) -> bool:
        # the canonical form of the zero function is its two end values
        return self.values == (0, 0)

    def has_lattice_graph(self) -> bool:
        """Graph vertices (breakpoint, value) all lie in the integer lattice."""
        return all(b.denominator == 1 and v.denominator == 1 for b, v in zip(self.breaks, self.values))

    # --- arithmetic ---

    def _binop(self, other: "PLFunc", sign: int) -> "PLFunc":
        if self.domain != other.domain:
            raise DomainMismatch(
                f"domains differ: {interval_str(self.domain)} vs {interval_str(other.domain)}"
            )
        us = sorted(set(self.breaks).union(other.breaks))
        pairs = zip(self._at(us), other._at(us))
        return PLFunc._canonical(us, [x + y for x, y in pairs] if sign > 0 else [x - y for x, y in pairs])

    def __add__(self, other: "PLFunc") -> "PLFunc":
        return self._binop(other, 1)

    def __sub__(self, other: "PLFunc") -> "PLFunc":
        return self._binop(other, -1)

    def _plus_affine(self, S: int, C: int, L: int) -> "PLFunc":
        # self plus the affine function (S*u + C)/L, for ints S, C and L > 0
        return PLFunc._canonical(self.breaks, [v + qdiv(S * b + C, L) for v, b in zip(self.values, self.breaks)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PLFunc)
            and self.breaks == other.breaks
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.breaks, self.values))

    def __repr__(self) -> str:
        pts = ", ".join(f"({b}, {v})" for b, v in zip(self.breaks, self.values))
        return f"PLFunc[{pts}]"

    def to_json(self) -> dict:
        return {
            "breaks": [str(b) for b in self.breaks],
            "values": [str(v) for v in self.values],
        }

    @staticmethod
    def from_json(obj) -> "PLFunc":
        if not isinstance(obj, dict) or "breaks" not in obj or "values" not in obj:
            raise DomainError("PL function JSON needs 'breaks' and 'values'")
        for key in ("breaks", "values"):
            if not isinstance(obj[key], list):
                raise DomainError(f"PL function {key!r} must be a list: {obj[key]!r}")
        return PLFunc(obj["breaks"], obj["values"])


class DivPoly:
    """Box plus labelled concave coefficient functions on that box."""

    __slots__ = ("box", "coeffs")

    def __init__(self, box: tuple[RationalLike, RationalLike], coeffs: Mapping[PointLabel, PLFunc]):
        lo, hi = to_fraction(box[0]), to_fraction(box[1])
        if lo >= hi:
            raise DomainError("box must be a nondegenerate interval")
        cs = dict(coeffs)
        for label, f in cs.items():
            if not isinstance(label, PointLabel):
                raise DomainError(f"bad label: {label!r}")
            if f.domain != (lo, hi):
                raise DomainMismatch(
                    f"coefficient at {label} has domain {interval_str(f.domain)}, "
                    f"box is {interval_str((lo, hi))}"
                )
        _set(self, "box", (lo, hi))
        _set(self, "coeffs", cs)

    @classmethod
    def _of(cls, box: tuple[Rational, Rational], coeffs: dict[PointLabel, PLFunc]) -> "DivPoly":
        # box is a stored (lo, hi) with lo < hi, and every coefficient is
        # keyed by a PointLabel and defined on exactly that box
        dp = _new(cls)
        _set(dp, "box", box)
        _set(dp, "coeffs", coeffs)
        return dp

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("DivPoly is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DivPoly)
            and self.box == other.box
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        cs = ", ".join(f"{l}: {f!r}" for l, f in sorted(self.coeffs.items()))
        return f"DivPoly[box={interval_str(self.box)}, {cs}]"

    def labels(self) -> list[PointLabel]:
        return sorted(self.coeffs)

    def coefficient(self, label: PointLabel) -> PLFunc:
        """The stored coefficient, or the zero function for unlabelled points."""
        f = self.coeffs.get(label)
        if f is None:
            return PLFunc._canonical(self.box, (0, 0))
        return f

    def nontrivial_labels(self) -> list[PointLabel]:
        return [l for l in self.labels() if not self.coeffs[l].is_zero()]

    def _degree_at(self, us: Sequence[Rational]) -> list[Rational]:
        """The degree function, the pointwise sum of all coefficients, at
        the sorted points us of the box, read off them without building it."""
        return [sum(col) for col in zip([0] * len(us), *(f._at(us) for f in self.coeffs.values()))]

    def with_split(self, label: PointLabel, part0: PLFunc, fresh: PointLabel, part1: PLFunc) -> "DivPoly":
        """self with the coefficient at label replaced by part0 and part1
        placed at the label fresh.  Both parts must be defined on the box,
        as deform.is_admissible checks; only the label is checked here."""
        if not isinstance(label, PointLabel):
            raise DomainError(f"bad label: {label!r}")
        cs = dict(self.coeffs)
        cs[label] = part0
        cs[fresh] = part1
        return DivPoly._of(self.box, cs)

    def to_json(self) -> dict:
        return {
            "box": [str(self.box[0]), str(self.box[1])],
            "coeffs": {str(l): self.coeffs[l].to_json() for l in self.labels()},
        }

    @staticmethod
    def from_json(obj) -> "DivPoly":
        if not isinstance(obj, dict) or "box" not in obj or "coeffs" not in obj:
            raise DomainError("divisorial polytope JSON needs 'box' and 'coeffs'")
        box, coeffs = obj["box"], obj["coeffs"]
        if not isinstance(box, list) or len(box) != 2:
            raise DomainError(f"divisorial polytope 'box' must be a list of two rationals: {box!r}")
        if not isinstance(coeffs, dict):
            raise DomainError(f"divisorial polytope 'coeffs' must be an object: {coeffs!r}")
        return DivPoly(box, {PointLabel.parse(k): PLFunc.from_json(v) for k, v in coeffs.items()})


def _chain(vs: Sequence[tuple[int, int]], i: int, step: int) -> list[tuple[int, int]]:
    """The pairs of the vertex cycle vs walked from vs[i] in steps of +1
    (counterclockwise) or -1 (clockwise) while x strictly increases."""
    n = len(vs)
    chain = [vs[i]]
    for _ in range(n - 1):
        i = (i + step) % n
        if vs[i][0] <= chain[-1][0]:
            break
        chain.append(vs[i])
    return chain


def from_polygon(delta: Polygon) -> DivPoly:
    """Divisorial polytope of a lattice polygon for the first-coordinate
    subtorus (see _cycle_divpoly)."""
    if delta.dim() != 2:
        raise NotFullDimensionalPolygon("need a full-dimensional polygon")
    if not delta.is_lattice():
        raise NotLatticePolygon("need a lattice polygon")
    return _cycle_divpoly(delta.cycle)


def _chains(vs: Sequence[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The lower chain of the canonical integer cycle vs, counterclockwise
    from the first vertex, and the upper one, clockwise from the highest
    leftmost (the last when the left edge is vertical, else the first)."""
    return _chain(vs, 0, 1), _chain(vs, -1 if vs[-1][0] == vs[0][0] else 0, -1)


def _cycle_divpoly(vs: Sequence[tuple[int, int]]) -> DivPoly:
    """from_polygon of the lattice polygon with the canonical integer cycle
    vs, not checked: at zero the upper envelope, at infinity the negated
    lower one."""
    lower, upper = _chains(vs)
    phi_zero = PLFunc._canonical([x for x, _ in upper], [y for _, y in upper])
    phi_inf = PLFunc._canonical([x for x, _ in lower], [-y for _, y in lower])
    box = (lower[0][0], lower[-1][0])
    return DivPoly._of(box, {ZERO: phi_zero, INFINITY: phi_inf})


def _envelope_table(vs: Sequence[tuple[int, int]]) -> tuple[list[int], int, list[int], list[int]]:
    """The sorted abscissae us of the vertices of vs and 0, which lies in
    the box, the lcm D of the widths of the chains' edges, and D times the
    coefficients of _cycle_divpoly(vs) at each u, as ints."""
    lower, upper = _chains(vs)
    us = sorted({x for x, _ in vs} | {0})
    D = math.lcm(*(q[0] - p[0] for ch in (lower, upper) for p, q in zip(ch, ch[1:])))

    def column(chain, sign):
        out, i = [], 0
        for u in us:
            while chain[i + 1][0] < u:
                i += 1
            (x0, y0), (x1, y1) = chain[i], chain[i + 1]
            out.append(sign * (D * y0 + (y1 - y0) * (u - x0) * (D // (x1 - x0))))
        return out

    return us, D, column(upper, 1), column(lower, -1)


def _certificate_divpolys(box, fresh, graphs, shifts) -> tuple[DivPoly, PLFunc, PLFunc, DivPoly, DivPoly]:
    """The divisorial polytope, the parts, the general fiber (part1 at fresh)
    and the reduced fiber of a certificate, from the integer graphs
    (breaks, values) of phi_zero, phi_inf, part0 and part1 and the shifts."""
    phi_zero, phi_inf, part0, part1 = (PLFunc._canonical(bs, vs) for bs, vs in graphs)
    fiber = reduced = DivPoly._of(box, {ZERO: phi_zero, INFINITY: part0, fresh: part1})
    for r in shifts:
        reduced = _shift(reduced, r.frm, r.to, r.slope, r.intercept)
    return DivPoly._of(box, {ZERO: phi_zero, INFINITY: phi_inf}), part0, part1, fiber, reduced


def to_polygon(dp: DivPoly) -> Polygon:
    """Polygon of a divisorial polytope with at most two nontrivial
    coefficients: the region between the first one and the negated second
    (labels in canonical order), the hull of the (u, value) pairs of both
    at every breakpoint of either."""
    nt = dp.nontrivial_labels()
    if len(nt) > 2:
        raise TooManyNontrivialCoefficients(f"{len(nt)} nontrivial coefficients: {[str(l) for l in nt]}")
    upper = dp.coefficient(nt[0]) if nt else PLFunc._canonical(dp.box, (0, 0))
    lower = dp.coefficient(nt[1]) if len(nt) > 1 else PLFunc._canonical(dp.box, (0, 0))
    us = sorted(set(upper.breaks).union(lower.breaks))
    pts = []
    for u, hi, lo in zip(us, upper._at(us), lower._at(us)):
        if hi < -lo:
            raise EmptyFiber(f"empty fiber over u = {u}")
        pts += ((u, hi), (u, -lo))
    return hull_of_pairs(pts)


def shift_affine(
    dp: DivPoly,
    frm: PointLabel,
    to: PointLabel,
    slope: RationalLike,
    intercept: RationalLike,
) -> DivPoly:
    """Move the affine function slope*u + intercept from one coefficient to
    another; the degree function is unchanged pointwise.  Missing labels
    count as the zero coefficient."""
    if frm == to:
        raise DomainError("shift endpoints must differ")
    return _shift(dp, frm, to, to_fraction(slope), to_fraction(intercept))


def _shift(dp: DivPoly, frm: PointLabel, to: PointLabel, s: Rational, c: Rational) -> DivPoly:
    """shift_affine for distinct labels and exact s and c."""
    # s*u + c = (S*u + C)/L over the lcm L of the denominators of s and c
    L = math.lcm(s.denominator, c.denominator)
    S, C = s.numerator * (L // s.denominator), c.numerator * (L // c.denominator)
    cs = dict(dp.coeffs)
    cs[frm] = dp.coefficient(frm)._plus_affine(-S, -C, L)
    cs[to] = dp.coefficient(to)._plus_affine(S, C, L)
    # adding an affine function keeps each coefficient's domain
    return DivPoly._of(dp.box, cs)
