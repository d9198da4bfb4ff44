import hashlib
import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from polymut.errors import DomainError
from polymut.fano import NotFano
from polymut.geom import Polygon, Vector2
from polymut.laurent import (
    PARSE_DEPTH_LIMIT,
    PARSE_POWER_LIMIT,
    PERIOD_DMAX_LIMIT,
    PERIOD_WORK_LIMIT,
    DivisibilityFails,
    LaurentPoly,
    LaurentSyntaxError,
    MutationSpec,
    ZeroDenominator,
    ZeroPolynomial,
    algebraic_mutate,
    derive_mutation_data,
    div_exact,
    newton_polytope,
    parse,
    period_sequence,
    render,
)
from polymut.mutation import mutate
from conftest import P
from oracles import minkowski_sum

F_P114 = "y^-1 + x^-1*(1+x)^2*y^2"

# 26 tokens that reach every branch of the parser: variables and aliases,
# digits, every operator, whitespace, powers of sums and monomials, and
# characters it must refuse ('z', '$', '_' and a non-ASCII digit)
PARSE_TOKENS = (
    "x", "y", "x1", "x2", "z", "0", "1", "2", "3", "+", "-", "*", "/",
    "^", "(", ")", " ", "^-", "x^-1", "y^2", "(1+x)", "(x+y)", "$", "\u0663", "_", "1/2",
)


class TestParse:
    def test_basic(self):
        f = parse("x + y + x^-1*y^-1")
        assert f.terms == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}

    def test_parenthesized_power_expansion(self):
        f = parse(F_P114)
        assert f.terms == {(0, -1): 1, (-1, 2): 1, (0, 2): 2, (1, 2): 1}

    def test_syntax_error_position(self):
        with pytest.raises(LaurentSyntaxError) as ei:
            parse("x^^2")
        assert ei.value.position == 2

    def test_nesting_depth_budget(self):
        # the parser recurses three frames per parenthesis, so nesting past
        # PARSE_DEPTH_LIMIT is refused at its '(' before it recurses, where
        # 5,000 levels used to end in a RecursionError
        n = PARSE_DEPTH_LIMIT
        assert parse("(" * n + "x" + ")" * n) == parse("x")
        for prefix, levels in (("", n + 1), ("y + ", n + 1), ("", 5000)):
            with pytest.raises(LaurentSyntaxError, match=f"PARSE_DEPTH_LIMIT = {n} at") as ei:
                parse(prefix + "(" * levels + "x" + ")" * levels)
            assert ei.value.position == len(prefix) + n
        # sibling parentheses do not nest
        assert parse("+".join(["(x)"] * (n + 1))) == parse(f"{n + 1}*x")

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse("1/0")

    def test_aliases_and_fractions(self):
        assert parse("3/2*x1*x2^-1") == parse("3/2*x*y^-1")

    def test_juxtaposition(self):
        assert parse("2x y") == parse("2*x*y")

    @pytest.mark.parametrize("bad", [5, None, ["x"]], ids=["int", "none", "list"])
    def test_non_string_rejected(self, bad):
        with pytest.raises(DomainError, match="must be a string"):
            parse(bad)

    def test_unknown_variable(self):
        with pytest.raises(LaurentSyntaxError):
            parse("x + z")

    def test_negative_power_of_monomial_ok(self):
        assert parse("(2*x)^-1") == parse("1/2*x^-1")

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(LaurentSyntaxError):
            parse("(1+x)^-1")

    def test_power_budget(self):
        # (x + y + x^-1*y^-1)^n has comb(n + 2, 2) terms with coefficients of
        # one bit: 99 * comb(101, 2) = 499,950 is within the budget and
        # 100 * comb(102, 2) = 515,100 is not
        assert PARSE_POWER_LIMIT == 500_000
        assert len(parse("(x+y+x^-1*y^-1)^99").terms) == 5050
        for s in ("(x+y+x^-1*y^-1)^100", "(x+y+x^-1*y^-1)^400", "((x+y)^500)^2", "(2x)^500001"):
            with pytest.raises(DomainError, match="PARSE_POWER_LIMIT"):
                parse(s)
        # a power of a monomial with coefficient +-1 is one 1-bit term and
        # measures the bits of its largest exponent: 19 for (x)^500001
        assert parse("(x)^500001") == LaurentPoly.monomial(500001, 0)
        assert parse("(-x*y^-2)^600001 (y)^600000") == LaurentPoly.monomial(600001, -600002, -1)
        # so nested powers still meet the budget as their exponents grow:
        # level k of ((x)^N)^N... with N = 10^400 (1,329 bits) measures
        # 1,329 k bits or so, and the sum passes 500,000 at level 27
        n = 10**400
        assert parse(f"((x)^{n})^{n}") == LaurentPoly.monomial(n * n, 0)
        s = "x"
        for _ in range(30):
            s = f"({s})^{n}"
        with pytest.raises(DomainError, match="PARSE_POWER_LIMIT"):
            parse(s)
        # the bits of the coefficients count: (7x)^100000 measures 3 * 10^5,
        # (2^1000 x)^1000 measures 1001 * 1000
        assert parse("(7x)^100000") == LaurentPoly.monomial(100000, 0, 7**100000)
        with pytest.raises(DomainError, match="PARSE_POWER_LIMIT"):
            parse(f"({2**1000}x)^1000")
        # four terms with no sums in common: comb(n + 3, 3) terms
        assert len(parse("(x + x^43 + x^1849 + x^79507)^8").terms) == math.comb(11, 3)
        with pytest.raises(DomainError, match="PARSE_POWER_LIMIT"):
            parse("(x + x^43 + x^1849 + x^79507)^41")
        # the zero polynomial measures 0 at any power, and powers 0 and 1
        # are not measured
        assert parse("(0)^500000").is_zero()
        assert parse("(x+y)^0") == LaurentPoly.const(1)
        # the budget is one per parse, charged by every power and by every
        # product before either is expanded: 499,950 + 1 for the power and
        # the product x^-1*y^-1 fit, a second such power does not
        for s in ("(x+y+x^-1*y^-1)^99(x+y+x^-1*y^-1)^99", "(x+y+x^-1*y^-1)^99 + (x+y+x^-1*y^-1)^99"):
            with pytest.raises(DomainError, match="power 99 at offset .* PARSE_POWER_LIMIT"):
                parse(s)
        # a product measures its term pairs times the bits of its widest
        # coefficient: comb(17, 2)^2 * 15 = 277,440 fits, comb(22, 2)^2 * 20
        # = 1,067,220 does not
        assert len(parse("(x+y+x^-1*y^-1)^15(x+y+x^-1*y^-1)^15").terms) == math.comb(32, 2)
        with pytest.raises(DomainError, match="product at offset 18 .* PARSE_POWER_LIMIT"):
            parse("(x+y+x^-1*y^-1)^20(x+y+x^-1*y^-1)^20")

    def test_digest_of_random_strings(self):
        # each string gives the same render, or the same error type and
        # message, hence the first error in reading order
        rng = random.Random(29)
        h = hashlib.sha256()
        for _ in range(20000):
            s = "".join(rng.choice(PARSE_TOKENS) for _ in range(rng.randint(0, 10)))
            try:
                out = render(parse(s))
            except DomainError as e:
                out = f"{type(e).__name__}: {e}"
            h.update(f"{s}\0{out}\n".encode())
        assert h.hexdigest() == "5604384e1cf2000d70d1bd5937d1455dfe1bd880c1cd48e9ab90f461b13fd1d2"


class TestRender:
    def test_roundtrip_examples(self):
        for s in ("x + y + x^-1*y^-1", F_P114, "0", "-x + 1/2", "3"):
            f = parse(s)
            assert parse(render(f)) == f

    def test_roundtrip_randomized(self):
        rng = random.Random(5)
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = (rng.randint(-4, 4), rng.randint(-4, 4))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if c:
                    terms[e] = c
            f = LaurentPoly(terms)
            assert parse(render(f)) == f


class TestArithmetic:
    def test_power_multiplies_once_per_bit(self, monkeypatch):
        # square-and-multiply: a product per set bit of n and a square per
        # bit after the first, with no square left over after the last bit
        f = parse("x+y+x^-1*y^-1")
        mul = LaurentPoly.__mul__
        calls = []

        def counting_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
        expected = LaurentPoly.const(1)
        for n in range(1, 21):
            expected = mul(expected, f)
            calls.clear()
            assert f**n == expected
            assert len(calls) == n.bit_length() - 1 + bin(n).count("1"), n

    def test_square(self):
        one_plus_x = parse("1+x")
        assert one_plus_x * one_plus_x == parse("1 + 2*x + x^2")

    def test_div_exact_laurent(self):
        q = div_exact(parse("x^-1 + 2 + x"), parse("1+x"))
        assert q == parse("x^-1 + 1")

    def test_div_exact_fails(self):
        assert div_exact(parse("1 + x + x^3"), parse("1+x")) is None

    def test_div_exact_takes_each_lead_off_a_heap(self):
        # 20,000 dense terms over 1 and over 1+x: a scan of the remainder
        # for each leading term took some 10 s over 1; the heap takes each
        # lead in logarithmic time
        f = LaurentPoly({(k, 0): 1 for k in range(20_000)})
        start = time.monotonic()
        assert div_exact(f, parse("1")) == f
        assert div_exact(f, parse("1+x")) == LaurentPoly({(k, 0): 1 for k in range(0, 20_000, 2)})
        assert time.monotonic() - start < 2
        # the budget counts 1 + 2 per step over 1+x: 10,000 steps are 30,000
        with pytest.raises(DomainError, match="division steps pass the budget"):
            div_exact(f, parse("1+x"), 29_999)
        assert div_exact(f, parse("1+x"), 30_000) is not None

    def test_div_mul_roundtrip_randomized(self):
        rng = random.Random(17)
        for _ in range(200):
            f = _random_poly(rng, 4)
            g = _random_poly(rng, 4)
            if g.is_zero():
                continue
            assert div_exact(f * g, g) == f


def _random_poly(rng, nterms):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[e] = c
    return LaurentPoly(terms)


def _exact(c) -> bool:
    """c is stored as geom stores rationals: an int when integral, else a Fraction."""
    return type(c) is (int if Fraction(c).denominator == 1 else Fraction)


class TestExactCoefficients:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("4/2*x + 1/2*y", {(1, 0): 2, (0, 1): Fraction(1, 2)}),
            ("(2*x)^-3", {(-3, 0): Fraction(1, 8)}),
            ("(-3*y)^-1", {(0, -1): Fraction(-1, 3)}),
            ("(1/2*x*y)^-2", {(-2, -2): 4}),
            ("2*x*(1/2 + y)", {(1, 0): 1, (1, 1): 2}),
        ],
    )
    def test_integral_coefficients_are_int(self, text, terms):
        f = parse(text)
        assert f.terms == terms
        assert all(_exact(c) for c in f.terms.values())

    def test_quotients_and_missing_coefficients_are_int(self):
        q = div_exact(parse("2*x + 2"), parse("2"))
        assert q.terms == {(0, 0): 1, (1, 0): 1}
        assert all(type(c) is int for c in q.terms.values())
        assert type(parse("x").coefficient(0, 0)) is int

    def test_period_terms_are_int_when_integral(self):
        # ct(f^3) = 6abc and ct(f^6) = 90(abc)^2 for f = a*x + b*y + c/(xy)
        seq = period_sequence(parse("1/2*x + y + x^-1*y^-1"), 6)
        assert seq == [1, 0, 0, 3, 0, 0, Fraction(45, 2)]
        assert all(_exact(c) for c in seq)

    @pytest.mark.parametrize("c", [0.1, 1.0, True], ids=["float", "integral-float", "bool"])
    def test_float_and_bool_coefficients_refused(self, c):
        # 0.1 used to be stored as 3602879701896397/36028797018963968
        with pytest.raises(DomainError, match="not an exact rational"):
            LaurentPoly.monomial(1, 0, c)
        with pytest.raises(DomainError, match="not an exact rational"):
            LaurentPoly({(0, 0): c})

    @pytest.mark.parametrize("e", [(0.5, 0), (0, 1.0), (True, 0), ("1", 0)])
    def test_non_integer_exponents_refused(self, e):
        # (0.5, 0) used to be truncated to (0, 0)
        with pytest.raises(DomainError, match="exponents must be integers"):
            LaurentPoly({e: 1})


class TestNewtonPolytope:
    def test_p2_polynomial(self):
        assert newton_polytope(parse("x + y + x^-1*y^-1")) == P((1, 0), (0, 1), (-1, -1))

    def test_p114_polynomial(self):
        assert newton_polytope(parse(F_P114)) == P((0, -1), (-1, 2), (1, 2))

    def test_constant(self):
        assert newton_polytope(parse("5")).vertices == (Vector2(0, 0),)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            newton_polytope(LaurentPoly.zero())

    def test_sum_is_minkowski_with_positive_coefficients(self):
        rng = random.Random(23)
        for _ in range(100):
            f = _random_positive_poly(rng)
            g = _random_positive_poly(rng)
            assert newton_polytope(f * g) == minkowski_sum(
                newton_polytope(f), newton_polytope(g)
            )


def _random_positive_poly(rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = Fraction(rng.randint(1, 5))
    return LaurentPoly(terms)


class TestAlgebraicMutate:
    def test_p114_example(self):
        f = parse(F_P114)
        spec = MutationSpec("y", parse("1+x"))
        g = algebraic_mutate(f, spec)
        assert g == parse("(1+x)*y^-1 + x^-1*y^2")

    def test_no_positive_grades_always_succeeds(self):
        f = parse("x + x^-1 + y^-1")
        spec = MutationSpec("y", parse("1+x"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = algebraic_mutate(f, spec)
        assert g == parse("x + x^-1 + (1+x)*y^-1")

    def test_divisibility_failure_names_grade(self):
        f = parse("y + y^-1")
        spec = MutationSpec("y", parse("1+x"))
        with pytest.raises(DivisibilityFails) as ei:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                algebraic_mutate(f, spec)
        assert ei.value.grade == 1

    def test_divisions_charged_step_by_step(self):
        # grade 1 of x^-N*y + x^N*y + y^-1 is 1 + x^2N over 1+x: 2N steps,
        # each writing a quotient term and subtracting the two of 1+x, then
        # one more finds it not divisible.  The powers g and g^-1 measured
        # 2 each, so 6N + 3 fits in the 499,996 left at N = 83,332 and not
        # at N = 83,333
        for n, error in ((83_332, DivisibilityFails), (83_333, DomainError)):
            f = parse(f"x^-{n}*y + x^{n}*y + y^-1")
            for divide, fi, spec in _both_axes(f, parse("1+x")):
                with pytest.raises(error, match="grade 1|division steps pass the budget PARSE_POWER_LIMIT") as ei:
                    algebraic_mutate(fi, spec)
                assert type(ei.value) is error
        # the charge is the steps taken, not the span walked: g = 1 divides
        # a grade of span 600,001 in two steps, and 1+x a sparse grade of
        # span 400,002 in two
        f = parse("x^-300000*y + x^300000*y + y^-1")
        for divide, fi, spec in _both_axes(f, parse("1")):
            assert algebraic_mutate(fi, spec) == fi
        f = parse("(1+x)*(x^-200000 + x^200000)*y + y^-1")
        for divide, fi, spec in _both_axes(f, parse("1+x")):
            assert algebraic_mutate(fi, spec) == _on_axis(divide, parse("x^-200000*y + x^200000*y + (1+x)*y^-1"))

    def test_powers_of_a_unit_monomial_measure_their_exponent_bits(self):
        # g = 1 at grade 600,000: g^600000 is one 1-bit term
        f = parse("x*y^600000 + x^-1*y^-1 + x*y^-1")
        for divide, fi, spec in _both_axes(f, parse("1")):
            assert algebraic_mutate(fi, spec) == fi
        # g = -1 substitutes -y for y: the even grade keeps its sign
        assert algebraic_mutate(f, MutationSpec("y", parse("-1"))) == parse("x*y^600000 - x^-1*y^-1 - x*y^-1")

    def test_warns_without_mixed_grades(self):
        f = parse("y + y^2 + x")
        spec = MutationSpec("y", parse("1"))
        with pytest.warns(UserWarning):
            algebraic_mutate(f, spec)

    def test_strict_mode_raises(self):
        # the warning filter "error" is the strict mode
        f = parse("y + y^2 + x")
        spec = MutationSpec("y", parse("1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="deformation hypotheses"):
                algebraic_mutate(f, spec)

    def test_newton_compatibility(self):
        for divide, f, spec in _both_axes(parse(F_P114), parse("1+x")):
            g = algebraic_mutate(f, spec)
            md, shear = derive_mutation_data(f, spec)
            assert (md.w, md.f0) == FRAMES[divide]
            assert shear == Vector2(0, 0)
            assert newton_polytope(g) == mutate(newton_polytope(f), md)

    def test_newton_compatibility_with_shifted_g(self):
        # g without constant term: the correspondence holds up to the
        # recorded shear
        for divide, f, spec in _both_axes(parse("y^-1 + x^-3*(x + x^2)^2*y^2"), parse("x + x^2")):
            g = algebraic_mutate(f, spec)
            assert g == _on_axis(divide, parse("(x + x^2)*y^-1 + x^-3*y^2"))
            md, shear = derive_mutation_data(f, spec)
            assert (md.w, md.f0) == FRAMES[divide]
            assert shear == (Vector2(1, 0) if divide == "y" else Vector2(0, 1))
            assert newton_polytope(g) == _sheared(mutate(newton_polytope(f), md), md, shear)

    def test_both_axes_randomized(self):
        # f = sum f_i y^i with f_i = q_i * g^i for i > 0, so g divides
        # every positive grade and the mutant is known: q_i y^i for i > 0
        # and f_i * g^-i y^i otherwise; dividing x is checked on the
        # exchange of each example
        rng = random.Random(2601)
        checked = 0
        for _ in range(500):
            lo = rng.randint(-2, 2)
            t = rng.randint(0, 2)
            g = LaurentPoly({(lo + j, 0): rng.choice([1, 2, -1]) for j in range(t + 1)})
            f, mutant = LaurentPoly.zero(), LaurentPoly.zero()
            for i in range(-rng.randint(1, 2), rng.randint(1, 2) + 1):
                piece = _random_x_poly(rng)
                y = LaurentPoly.monomial(0, i)
                f = f + (piece * g**i if i > 0 else piece) * y
                mutant = mutant + (piece if i > 0 else piece * g ** (-i)) * y
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert algebraic_mutate(f, MutationSpec("y", g)) == mutant
                assert algebraic_mutate(_exchange(f), MutationSpec("x", _exchange(g))) == _exchange(mutant)
            for divide, fa, spec in _both_axes(f, g):
                try:
                    md, shear = derive_mutation_data(fa, spec)
                    Q = mutate(newton_polytope(fa), md)
                except NotFano:
                    continue
                assert (md.w, md.f0, md.t) == (*FRAMES[divide], t)
                assert shear == (Vector2(lo, 0) if divide == "y" else Vector2(0, lo))
                assert newton_polytope(_on_axis(divide, mutant)) == _sheared(Q, md, shear)
                checked += 1
        assert checked >= 100


# (w, f0) of dividing y, and of dividing x: its exchange
FRAMES = {"y": (Vector2(0, -1), Vector2(1, 0)), "x": (Vector2(-1, 0), Vector2(0, 1))}


def _exchange(f: LaurentPoly) -> LaurentPoly:
    """f with x and y exchanged."""
    return LaurentPoly({(b, a): c for (a, b), c in f.terms.items()})


def _on_axis(divide: str, f: LaurentPoly) -> LaurentPoly:
    """A y-case polynomial f as the x case sees it."""
    return f if divide == "y" else _exchange(f)


def _both_axes(f: LaurentPoly, g: LaurentPoly):
    """(divide, f, spec) for a y-case example and for its exchange."""
    for divide in ("y", "x"):
        yield divide, _on_axis(divide, f), MutationSpec(divide, _on_axis(divide, g))


def _sheared(Q: Polygon, md, shear: Vector2) -> Polygon:
    """Q under v -> v + <w, v> * shear."""
    return Polygon([v + shear.scale(md.w.dot(v)) for v in Q.vertices])


def _random_x_poly(rng: random.Random) -> LaurentPoly:
    """One to three terms in x alone, exponents in [-2, 2]."""
    return LaurentPoly({(rng.randint(-2, 2), 0): rng.choice([1, 1, 2, -1, 3]) for _ in range(rng.randint(1, 3))})


def _period_by_definition(f: LaurentPoly, dmax: int) -> list[Fraction]:
    """Constant terms of f^d by repeated LaurentPoly multiplication: the
    unpruned Fraction loop that period_sequence replaces."""
    if dmax < 0:
        raise DomainError("dmax must be nonnegative")
    out = [Fraction(1)]
    power = LaurentPoly.const(1)
    for _ in range(dmax):
        power = power * f
        out.append(power.coefficient(0, 0))
    return out


# integer matrices of determinant 2, 3, 6 and -6: they send the exponents
# onto sublattices of those indices, sheared and not
SUBLATTICES = (((1, 1), (-1, 1)), ((2, 1), (1, 2)), ((2, 1), (0, 3)), ((1, 4), (2, 2)))
FAR = 10**12


def _random_laurent(rng: random.Random, dmax: int) -> LaurentPoly:
    """Up to six terms with rational coefficients of both signs, one in
    seven of 100 digits, on exponents in [-2, 2]^2, on a line or on one
    point.  A quarter satisfy f(1/x, y) = -f(x, y), so the constant terms
    of their odd powers cancel to 0.  Three in ten have their exponents
    sent onto a sublattice of index 2, 3 or 6.  One in six gets the terms
    x^-FAR and x^(dmax*FAR): the first is as far out as the second needs
    for dmax of them to reach the constant term, so the second, and then
    the first, are dropped only by a reachability test with dmax - 1."""
    shape = rng.choice(("plane", "plane", "line", "point"))
    u = rng.choice(((1, 0), (1, 1), (2, -1)))
    o = (rng.randint(-1, 1), rng.randint(-1, 1))
    terms = {}
    for _ in range(1 if shape == "point" else rng.randint(1, 6)):
        if shape == "line":
            k = rng.randint(-2, 2)
            e = (o[0] + k * u[0], o[1] + k * u[1])
        else:
            e = (rng.randint(-2, 2), rng.randint(-2, 2))
        num = rng.choice([-3, -2, -1, 1, 2, 5])
        if rng.random() < 1 / 7:
            num *= rng.randrange(10**99, 10**100)
        terms[e] = Fraction(num, rng.choice([1, 1, 2, 3, 4]))
    if rng.random() < 0.25:
        terms = {(a, b): c for (a, b), c in terms.items() if a > 0}
        terms.update({(-a, b): -c for (a, b), c in list(terms.items())})
    if rng.random() < 0.3:
        (p, q), (r, s) = rng.choice(SUBLATTICES)
        terms = {(p * a + q * b, r * a + s * b): c for (a, b), c in terms.items()}
    if rng.random() < 1 / 6:
        terms[-FAR, 0] = Fraction(rng.choice([-1, 1, 3]))
        terms[dmax * FAR, 0] = Fraction(rng.choice([-2, 1, 1]), rng.choice([1, 5]))
    return LaurentPoly(terms)


def _random_band_laurent(rng: random.Random) -> LaurentPoly:
    """Three to five terms with integer or half-integer coefficients of
    both signs on exponents in [-1, 1]^2, or [-2, 2]^2 one time in four,
    so that most supports have rank 2 and the origin inside their Newton
    polygon.  A third have their exponents sent onto a sublattice of index
    2, 3 or 6, where the row of -e0 need not be an integer."""
    r = 2 if rng.random() < 0.25 else 1
    terms = {}
    for _ in range(rng.randint(3, 5)):
        e = (rng.randint(-r, r), rng.randint(-r, r))
        terms[e] = Fraction(rng.choice([-3, -2, -1, -1, 1, 1, 2, 5]), rng.choice([1, 1, 2]))
    if rng.random() < 1 / 3:
        (p, q), (s, t) = rng.choice(SUBLATTICES)
        terms = {(p * a + q * b, s * a + t * b): c for (a, b), c in terms.items()}
    return LaurentPoly(terms)


class TestPeriodSequence:
    def test_p2_period(self):
        f = parse("x + y + x^-1*y^-1")
        assert period_sequence(f, 6) == [1, 0, 0, 6, 0, 0, 90]

    def test_constant_one(self):
        assert period_sequence(parse("1"), 3) == [1, 1, 1, 1]

    def test_invariance_under_mutation(self):
        f = parse(F_P114)
        g = algebraic_mutate(f, MutationSpec("y", parse("1+x")))
        assert period_sequence(f, 8) == period_sequence(g, 8)

    def test_matches_definition_randomized(self):
        rng = random.Random(20181)
        for _ in range(400):
            d = rng.randint(0, 9)
            f = _random_laurent(rng, d)
            assert period_sequence(f, d) == _period_by_definition(f, d), (f, d)

    def test_cancelling_coefficients(self):
        # in each power some reachable coefficient sums to exactly 0, e.g.
        # the x*y coefficient of (1 + x + y - x*y)^2 is 2 - 2
        for text in (
            "x^-1*y^-1 + 1 + x + y - x*y",
            "x + y - x^-1 - y^-1 + x*y^-1 - x^-1*y",
            "1/2*x^-1*y^-1 + 1 + 3*x + 2/3*y - 2*x*y",
        ):
            f = parse(text)
            assert period_sequence(f, 12) == _period_by_definition(f, 12), text

    @pytest.mark.parametrize(
        "text",
        [
            "0", "3/7", "x", "x+x^-1", "1+x+y", "x+y", "-2/3*x + 5/4 - 1/6*x^-1*y",
            "x^2+y^3+x^-2*y^-3", "x^2*y^2 + x^-2 + 3*y^-2 + x^4*y^-2", "x^3 - x^-3*y^6 + y^-3 + 2",
            "x^2 - 3 + x^-3", "x*y^2 + x^-1*y^-2 - 1/2", "-5/3*x^2*y^-1",
            f"{'9' * 100}*x - y + x^-1*y^-1 + {'1' * 99}2", "x^-1 + y + y^-1 + x^1000000",
            "x^-1000000000000 + y + y^-1 + x + 2*x^7000000000000",
        ],
        ids=[
            "zero", "constant", "point", "segment", "origin-vertex", "origin-outside", "rational",
            "index-18", "index-4", "index-9", "collinear", "collinear-diagonal", "monomial",
            "wide-coefficients", "unreachable", "unreachable-at-dmax-7",
        ],
    )
    @pytest.mark.parametrize("dmax", [0, 1, 7])
    def test_edge_cases_match_definition(self, text, dmax):
        f = parse(text)
        got = period_sequence(f, dmax)
        assert got == _period_by_definition(f, dmax)
        assert len(got) == dmax + 1 and got[0] == 1

    def test_band_cut_matches_definition_randomized(self):
        # from about k = dmax/2 on, the kernel drops the rows of F^k from
        # which dmax - k more terms cannot reach the row of dmax*(-e0);
        # negative coefficients make the dropped rows carry borrows
        rng = random.Random(24)
        for _ in range(60):
            d = rng.randint(10, 24)
            f = _random_band_laurent(rng)
            assert period_sequence(f, d) == _period_by_definition(f, d), (f, d)

    @pytest.mark.parametrize(
        "text",
        [
            "1+x+y", "x + x^-1 + y",
            "y + y^-1", "x + x^-2", "3*y^2 - y^-1",
            "x + x^-1 + y + 3*y^-1", "x + 2*y + x^-1*y^-1", "x*y + x^-1*y^-1 + x*y^-1 + x^-1*y",
            "x^2*y + x^-1*y + x^-1*y^-2", "x^3 + y + x^-1*y^-2", "x^2 + y^3 + x^-1*y^-1",
            "x*y + x*y^-1 + x^-1*y + x^-1*y^-1 + x^-1",
            "x + y - x^-1 - y^-1 + x*y^-1 - x^-1*y", "x^-1*y^-1 - 2 + 3*x - y + x*y", "-x - y^-1 + 2*x^-1*y - 1",
        ],
        # the index of the lattice the exponents' differences span and the
        # row a of -e0 in the frame of geom._lattice_basis; -e0 is off that
        # lattice in each, also in the last one, where a is an integer
        ids=[
            "origin-vertex", "origin-edge",
            "rank-1-column", "rank-1-row", "rank-1-column-negative",
            "index-2-a-1/2", "index-3-a-2/3", "index-4-a--1/2",
            "index-9-a--1/3", "index-10-a-9/10", "index-11-a-8/11",
            "index-2-a--1",
            "negative-hexagon", "negative-interior", "negative-triangle",
        ],
    )
    @pytest.mark.parametrize("dmax", [10, 17, 24])
    def test_band_cut_cases_match_definition(self, text, dmax):
        f = parse(text)
        assert period_sequence(f, dmax) == _period_by_definition(f, dmax)

    def test_long_diagonal_d40(self):
        # the terms span 43 columns and 15 rows in the Hermite frame but
        # lie along a diagonal, and F^k has a constant term only at k = 29
        # and 35
        f = parse("x^37*y^11+x^-5*y^-2+y^-3+x^-3*y")
        seq = period_sequence(f, 40)
        assert seq == _period_by_definition(f, 40)
        assert [k for k, c in enumerate(seq) if c] == [0, 29, 35]

    def test_p2_closed_form_d40(self):
        seq = period_sequence(parse("x + y + x^-1*y^-1"), 40)
        expected = [
            math.factorial(d) // math.factorial(d // 3) ** 3 if d % 3 == 0 else 0
            for d in range(41)
        ]
        assert seq == expected

    def test_p1xp1_closed_form_d40(self):
        seq = period_sequence(parse("x + x^-1 + y + y^-1"), 40)
        expected = [math.comb(d, d // 2) ** 2 if d % 2 == 0 else 0 for d in range(41)]
        assert seq == expected

    def test_negative_dmax_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            period_sequence(parse("x+y"), -1)

    @pytest.mark.parametrize("dmax", [True, False, 2.0], ids=["true", "false", "float"])
    def test_dmax_that_is_no_int_refused(self, dmax):
        # a bool is an int subclass, but True is no dmax of 1
        with pytest.raises(DomainError, match=f"dmax must be an integer: {dmax!r}"):
            period_sequence(parse("x+y+x^-1*y^-1"), dmax)

    def test_work_budget(self):
        # the hexagon at the largest dmax measures 6 * 100 * 260 * 201^2 =
        # 6.3e9 units; (x+y+x^-1*y^-1)^6 has 28 terms on an index-3 lattice
        # and 6 distinct coefficients other than 1, 34 passes a step, and
        # measures 2.3e12
        assert PERIOD_WORK_LIMIT == 2 * 10**10
        hexagon = parse("x + y + x^-1 + y^-1 + x*y^-1 + x^-1*y")
        assert period_sequence(hexagon, PERIOD_DMAX_LIMIT)[:5] == [1, 0, 6, 12, 90]
        with pytest.raises(DomainError, match="period work 2336325476800 exceeds .* PERIOD_WORK_LIMIT"):
            period_sequence(parse("(x+y+x^-1*y^-1)^6"), PERIOD_DMAX_LIMIT)
        # a wide coefficient costs a pass per 30-bit word in every step
        with pytest.raises(DomainError, match="PERIOD_WORK_LIMIT"):
            period_sequence(LaurentPoly.const(7**20000), PERIOD_DMAX_LIMIT)

    def test_dmax_budget(self):
        assert len(period_sequence(parse("x+y"), PERIOD_DMAX_LIMIT)) == PERIOD_DMAX_LIMIT + 1
        for dmax in (PERIOD_DMAX_LIMIT + 1, 10**10):
            with pytest.raises(DomainError, match="PERIOD_DMAX_LIMIT"):
                period_sequence(parse("x+y"), dmax)
