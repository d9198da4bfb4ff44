from fractions import Fraction

import pytest

from polymut.divpoly import (
    INFINITY,
    ZERO,
    ConcavityBroken,
    DivPoly,
    DomainMismatch,
    EmptyFiber,
    NotFullDimensionalPolygon,
    NotLatticePolygon,
    PLFunc,
    PointLabel,
    TooManyNontrivialCoefficients,
    from_polygon,
    shift_affine,
    to_polygon,
)
from polymut.errors import DomainError
from polymut.geom import area
from conftest import P
from oracles import canonical_form_two_pass, degree, edges, integral, pieces, validate

BOX = (-6, 6)


def phi_inf_p114():
    """1 - |u|/2 on [-6, 6]."""
    return PLFunc([-6, 0, 6], [-2, 1, -2])


class TestPLFunc:
    def test_redundant_breakpoints_merged(self):
        f = PLFunc([0, 1, 2], [0, 1, 2])
        assert f.breaks == (Fraction(0), Fraction(2))
        assert f.is_affine()

    def test_concavity_enforced(self):
        with pytest.raises(ConcavityBroken):
            PLFunc([0, 1, 2], [0, 0, 5])

    def test_evaluate(self):
        f = phi_inf_p114()
        assert f(0) == 1
        assert f(-3) == Fraction(-1, 2)
        assert f(6) == -2

    def test_slopes_and_pieces(self):
        f = phi_inf_p114()
        assert f.slopes() == (Fraction(1, 2), Fraction(-1, 2))
        assert pieces(f) == (
            (Fraction(-6), Fraction(0), Fraction(1, 2)),
            (Fraction(0), Fraction(6), Fraction(-1, 2)),
        )

    def test_add_sub(self):
        f = phi_inf_p114()
        g = PLFunc.constant(BOX, 2)
        assert (f + g)(0) == 3
        assert (f + g) - g == f

    def test_min_of_affines(self):
        f = PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        assert f.breaks == (Fraction(-6), Fraction(0), Fraction(6))
        assert f.values == (Fraction(-5), Fraction(1), Fraction(1))

    @pytest.mark.parametrize("domain", [(2, 1), (1, 1)], ids=["reversed", "one-point"])
    def test_min_of_affines_refuses_a_domain_that_does_not_increase(self, domain):
        # PLFunc.affine's refusal, before any intersection is sought
        for make in (lambda: PLFunc.min_of_affines(domain, [(1, 0)]), lambda: PLFunc.affine(domain, 1, 0)):
            with pytest.raises(DomainError, match="breakpoints must be strictly increasing"):
                make()
        f = PLFunc.min_of_affines((1, 2), [(1, 0), (0, 3)])
        assert (f.breaks, f.values) == ((1, 2), (1, 2))

    def test_lattice_graph(self):
        assert phi_inf_p114().has_lattice_graph()
        assert not PLFunc([0, 1], [0, Fraction(1, 2)]).has_lattice_graph()

    def test_integral(self):
        assert integral(phi_inf_p114()) == -6
        assert integral(PLFunc.constant(BOX, 2)) == 24

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            phi_inf_p114() + PLFunc.constant((0, 1), 1)


class TestErrorMessages:
    # endpoints print as canonical rationals, never as Python reprs
    def test_outside_domain(self):
        with pytest.raises(DomainError) as e:
            PLFunc([Fraction(1, 2), 3], [0, 0])(5)
        assert str(e.value) == "5 is outside the domain (1/2, 3)"
        assert "Fraction(" not in str(e.value)

    def test_domains_differ(self):
        with pytest.raises(DomainMismatch) as e:
            phi_inf_p114() + PLFunc.constant((Fraction(1, 2), 3), 1)
        assert str(e.value) == "domains differ: (-6, 6) vs (1/2, 3)"
        assert "Fraction(" not in str(e.value)

    def test_coefficient_domain_against_box(self):
        with pytest.raises(DomainMismatch) as e:
            DivPoly((0, 3), {ZERO: PLFunc.constant((Fraction(1, 2), 3), 1)})
        assert str(e.value) == "coefficient at 0 has domain (1/2, 3), box is (0, 3)"
        assert "Fraction(" not in str(e.value)


class TestFromPolygon:
    def test_p114_dilated_dual(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert dp.box == (Fraction(-6), Fraction(6))
        assert dp.coefficient(ZERO) == PLFunc.constant(BOX, 2)
        assert dp.coefficient(INFINITY) == phi_inf_p114()

    def test_unit_square(self):
        dp = from_polygon(P((0, 0), (1, 0), (0, 1), (1, 1)))
        assert dp.box == (Fraction(0), Fraction(1))
        assert dp.coefficient(ZERO) == PLFunc.constant((0, 1), 1)
        assert dp.coefficient(INFINITY) == PLFunc.constant((0, 1), 0)

    def test_right_triangle(self):
        dp = from_polygon(P((0, 0), (2, 0), (0, 1)))
        assert dp.box == (Fraction(0), Fraction(2))
        assert dp.coefficient(ZERO) == PLFunc.affine((0, 2), Fraction(-1, 2), 1)
        assert dp.coefficient(INFINITY) == PLFunc.constant((0, 2), 0)

    def test_requires_lattice(self):
        with pytest.raises(NotLatticePolygon):
            from_polygon(P((0, 0), (Fraction(5, 2), 0), (0, 1)))

    def test_requires_full_dimensional(self):
        with pytest.raises(NotFullDimensionalPolygon):
            from_polygon(P((0, 0), (1, 0)))


class TestToPolygon:
    def test_roundtrip(self):
        for Q in (
            P((-6, 2), (6, 2), (0, -1)),
            P((0, 0), (1, 0), (0, 1), (1, 1)),
            P((0, 0), (2, 0), (0, 1)),
            P((-1, -1), (2, -1), (-1, 2)),
        ):
            assert to_polygon(from_polygon(Q)) == Q

    def test_general_fiber_shape(self):
        A = PLFunc.affine(BOX, Fraction(-1, 2), 2)
        B = PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        dp = DivPoly(BOX, {ZERO: A, INFINITY: B})
        assert to_polygon(dp) == P((-6, 5), (0, -1), (6, -1))

    def test_three_nontrivial_rejected(self):
        dp = DivPoly(
            BOX,
            {
                ZERO: PLFunc.constant(BOX, 1),
                INFINITY: PLFunc.constant(BOX, 1),
                PointLabel.param("s"): PLFunc.constant(BOX, 1),
            },
        )
        with pytest.raises(TooManyNontrivialCoefficients):
            to_polygon(dp)

    def test_empty_fiber(self):
        dp = DivPoly(BOX, {ZERO: PLFunc.constant(BOX, -1), INFINITY: PLFunc.constant(BOX, 0)})
        with pytest.raises(EmptyFiber):
            to_polygon(dp)


class TestValidate:
    def test_valid_p114(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert validate(dp) == []
        notes = validate(dp, include_notes=True)
        assert any("principal" in n for n in notes)

    def test_zero_degree_interior(self):
        dp = DivPoly((0, 1), {ZERO: PLFunc.constant((0, 1), 0)})
        out = validate(dp)
        assert any("vanishes" in v for v in out)

    def test_endpoint_violation(self):
        dp = DivPoly((0, 2), {ZERO: PLFunc([0, 1, 2], [1, 0, -2])})
        out = validate(dp)
        assert any("endpoint" in v for v in out)

    def test_lattice_graph_violation(self):
        dp = DivPoly((0, 2), {ZERO: PLFunc([0, 1, 2], [1, Fraction(3, 2), 1])})
        out = validate(dp)
        assert any("not lattice" in v for v in out)


class TestShiftAffine:
    def test_p114_shift(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        out = shift_affine(dp, INFINITY, ZERO, Fraction(-1, 2), 0)
        assert out.coefficient(ZERO) == PLFunc.affine(BOX, Fraction(-1, 2), 2)
        # 1 - |u|/2 + u/2 has slopes 1 then 0
        assert out.coefficient(INFINITY) == PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        assert degree(out) == degree(dp)

    def test_zero_shift_is_identity(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert shift_affine(dp, ZERO, INFINITY, 0, 0) == dp

    def test_shift_to_unlabelled_point(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        out = shift_affine(dp, ZERO, PointLabel.param("s"), 0, 2)
        assert out.coefficient(ZERO).is_zero()
        assert out.coefficient(PointLabel.param("s")) == PLFunc.constant(BOX, 2)

    def test_degree_always_preserved(self):
        dp = from_polygon(P((-1, -1), (2, -1), (-1, 2)))
        out = shift_affine(dp, ZERO, INFINITY, 3, -1)
        assert degree(out) == degree(dp)

    def test_shift_is_its_pointwise_definition(self):
        # seeded concave functions with int and Fraction breakpoints and
        # values, moved by integral and non-integral (s, c): each value of
        # both coefficients is v -+ (s*b + c) computed in Fraction, stored
        # as an int exactly when it is integral, and the degree is unchanged
        import random

        rng = random.Random(39)
        fresh = PointLabel.param("s")
        seen = dict.fromkeys(("integral move", "non-integral move", "Fraction breaks", "sum turns integral"), 0)
        for _ in range(600):
            try:
                f = PLFunc(*_random_points(rng))
            except DomainError:
                continue
            box = f.domain
            g = PLFunc.min_of_affines(box, [(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])), rng.randint(-3, 3))])
            dp = DivPoly(box, {ZERO: f, INFINITY: g})
            s, c = (_exact(rng, Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 6]))) for _ in range(2))
            frm, to = rng.choice([(ZERO, INFINITY), (INFINITY, ZERO), (ZERO, fresh)])
            out = shift_affine(dp, frm, to, s, c)
            for label, sign in ((frm, -1), (to, 1)):
                before, after = dp.coefficient(label), out.coefficient(label)
                assert after.breaks == before.breaks
                want = [Fraction(v) + sign * (Fraction(s) * b + c) for b, v in zip(before.breaks, before.values)]
                assert after.values == tuple(want), (dp, frm, to, s, c)
                assert all((type(x) is int) == (Fraction(x).denominator == 1) for x in after.values + after.breaks)
                seen["sum turns integral"] += any(
                    w.denominator == 1 and Fraction(v).denominator != 1 for v, w in zip(before.values, want)
                )
            us = sorted(set(f.breaks).union(g.breaks))
            us = sorted(set(us).union(Fraction(x + y, 2) for x, y in zip(us, us[1:])))
            assert out._degree_at(us) == dp._degree_at(us)
            seen["integral move" if Fraction(s).denominator == Fraction(c).denominator == 1 else "non-integral move"] += 1
            seen["Fraction breaks"] += any(type(b) is not int for b in box)
        assert min(seen.values()) >= 30, seen


class TestKink:
    def test_kink_is_the_min_of_affines(self):
        # min(t*u, 0) off its breakpoints, on boxes that hold 0 inside, at
        # an end or not at all, with int and Fraction ends, for t = 0 and
        # t >= 1 (and Fraction t), is the coercing constructor's function
        h = Fraction(1, 2)
        boxes = [(-3, 5), (-h, 7 * h), (0, 4), (0, h), (-4, 0), (-5 * h, 0), (1, 6), (h, 3), (-6, -2), (-7 * h, -h)]
        for box in boxes:
            for t in (0, 1, 2, 5, Fraction(3, 2)):
                got = PLFunc._kink(box, t)
                want = PLFunc.min_of_affines(box, [(t, 0), (0, 0)])
                assert (got.breaks, got.values) == (want.breaks, want.values), (box, t)
                assert [type(x) for x in got.breaks + got.values] == [type(x) for x in want.breaks + want.values]


class TestInvariants:
    def test_area_equals_degree_integral(self):
        for Q in (
            P((-6, 2), (6, 2), (0, -1)),
            P((-1, -1), (2, -1), (-1, 2)),
            P((0, 0), (3, 1), (1, 3), (-1, 2)),
        ):
            dp = from_polygon(Q)
            assert area(Q) == integral(degree(dp))

    def test_from_polygon_lattice_graphs(self):
        dp = from_polygon(P((0, 0), (3, 1), (1, 3), (-1, 2)))
        for label in dp.labels():
            assert dp.coeffs[label].has_lattice_graph()

    def test_json_roundtrip(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert DivPoly.from_json(dp.to_json()) == dp

    def test_polygon_roundtrip_randomized(self):
        import random

        from polymut.geom import Polygon, Vector2

        rng = random.Random(31)
        done = 0
        while done < 200:
            Q = Polygon(
                [Vector2(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)]
            )
            if Q.dim() != 2:
                continue
            assert to_polygon(from_polygon(Q)) == Q
            done += 1


def _exact(rng, x: Fraction):
    """x as an int or a Fraction; an integral x is a Fraction half the time."""
    return x.numerator if x.denominator == 1 and rng.random() < 0.5 else x


def _random_points(rng):
    """Breakpoints and values of 2 to 6 exact points: mostly on a concave
    function with collinear runs, sometimes with a convex turn or with
    breakpoints that repeat or decrease."""
    n = rng.randint(2, 6)
    b = Fraction(rng.randint(-4, 2))
    v = Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
    s = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    bs, vs = [b], [v]
    for _ in range(n - 1):
        step = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 3]))
        if rng.random() < 0.05:
            step = -step if rng.random() < 0.5 else 0
        b, v = b + step, v + s * step
        bs.append(b)
        vs.append(v)
        r = rng.random()
        if r < 0.1:
            s += Fraction(rng.randint(1, 4), rng.choice([1, 2]))  # a convex turn
        elif r > 0.45:
            s -= Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
    return [_exact(rng, x) for x in bs], [_exact(rng, x) for x in vs]


def _outcome(build, bs, vs):
    """The stored points and their types, or the class of the refusal."""
    try:
        f = build(bs, vs)
    except DomainError as e:
        return type(e)
    return f.breaks, f.values, [type(x) for x in f.breaks + f.values]


class TestTrustedConstructor:
    def test_canonical_matches_public_constructor(self):
        import random

        rng = random.Random(16)
        seen = {"merged": 0, "integral Fraction": 0, ConcavityBroken: 0, DomainError: 0}
        for _ in range(3000):
            bs, vs = _random_points(rng)
            got = _outcome(PLFunc._canonical, bs, vs)
            assert got == _outcome(PLFunc, bs, vs), (bs, vs)
            if isinstance(got, type):
                seen[got] += 1
            elif len(got[0]) < len(bs):
                seen["merged"] += 1
            if any(type(x) is Fraction and x.denominator == 1 for x in bs + vs):
                seen["integral Fraction"] += 1
        assert min(seen.values()) >= 100, seen

    def test_one_pass_form_is_the_two_pass_form(self):
        # the one-pass _canonical_form against the two-pass oracle on
        # random int and Fraction points: the same stored points and types,
        # or the same refusal and message, also when a convex turn comes
        # before a breakpoint that does not increase, where the breakpoint
        # fault is the one reported
        import random

        from polymut.divpoly import _canonical_form

        def outcome(form, bs, vs):
            try:
                kb, kv = form(bs, vs)
            except DomainError as e:
                return type(e), str(e)
            return kb, kv, [type(x) for x in kb + kv]

        rng = random.Random(3217)
        seen = {"merged": 0, "both faults": 0, ConcavityBroken: 0, DomainError: 0}
        for i in range(3000):
            bs, vs = _random_points(rng)
            if i % 10 == 0 and len(bs) > 3:
                # a convex turn at the second point, then a repeated breakpoint
                vs[1] -= 5
                bs[-1] = bs[-2]
                seen["both faults"] += 1
            got = outcome(_canonical_form, bs, vs)
            assert got == outcome(canonical_form_two_pass, bs, vs), (bs, vs)
            if got[0] in (ConcavityBroken, DomainError):
                seen[got[0]] += 1
            elif len(got[0]) < len(bs):
                seen["merged"] += 1
        assert min(seen.values()) >= 100, seen

    def test_canonical_folds_integral_fractions(self):
        half = Fraction(1, 2)
        f = PLFunc._canonical([Fraction(0), half + half, 2], [half + half, Fraction(4, 2), 1])
        assert f.breaks == (0, 1, 2) and f.values == (1, 2, 1)
        assert all(type(x) is int for x in f.breaks + f.values)
        assert f == PLFunc([0, 1, 2], [1, 2, 1])

    def test_at_matches_call(self):
        import random

        rng = random.Random(17)
        done = 0
        while done < 500:
            bs, vs = _random_points(rng)
            try:
                f = PLFunc(bs, vs)
            except DomainError:
                continue
            lo, hi = f.domain
            us = sorted(set(f.breaks) | {lo + (hi - lo) * Fraction(rng.randint(0, 12), 12) for _ in range(4)})
            got = f._at(us)
            want = [f(u) for u in us]
            assert got == want and [type(x) for x in got] == [type(x) for x in want]
            done += 1

    def test_call_interpolates_on_its_piece(self):
        # f(u) by definition: the linear interpolation on the piece that
        # holds u, for every input type
        import random

        rng = random.Random(20)
        done = 0
        while done < 500:
            bs, vs = _random_points(rng)
            try:
                f = PLFunc(bs, vs)
            except DomainError:
                continue
            lo, hi = f.domain
            for u in [*f.breaks, *(lo + (hi - lo) * Fraction(rng.randint(0, 12), 12) for _ in range(4))]:
                i = max(j for j in range(len(f.breaks) - 1) if f.breaks[j] <= u)
                (b1, b2), (v1, v2) = f.breaks[i : i + 2], f.values[i : i + 2]
                want = Fraction(v1) + Fraction(v2 - v1) * (u - b1) / (b2 - b1)
                for arg in (u, Fraction(u), str(u)):
                    assert f(arg) == want
            done += 1

    def test_integral_value_between_breakpoints_is_an_int(self):
        # 3/2 + (-27/2) is an integral Fraction sum that must come back folded
        f = PLFunc([-4, 2], [Fraction(3, 2), Fraction(-33, 2)])
        assert f(Fraction(1, 2)) == -12
        assert type(f(Fraction(1, 2))) is int

    def test_at_returns_every_integral_value_as_an_int(self):
        import random

        rng = random.Random(23)
        done = folded = 0
        while done < 500:
            bs, vs = _random_points(rng)
            try:
                f = PLFunc(bs, vs)
            except DomainError:
                continue
            lo, hi = f.domain
            us = sorted(set(f.breaks) | {lo + (hi - lo) * Fraction(rng.randint(0, 12), 12) for _ in range(6)})
            for u, v in zip(us, f._at(us)):
                if Fraction(v).denominator == 1:
                    assert type(v) is int, (f, u)
                    # values off the breakpoints come from the interpolation
                    folded += u not in f.breaks
            done += 1
        assert folded > 50

    def test_degree_is_the_pairwise_sum(self):
        import random

        rng = random.Random(18)
        labels = [ZERO, INFINITY, PointLabel.param("s"), PointLabel.param("t")]
        for _ in range(300):
            lo = rng.randint(-4, 1)
            box = (lo, lo + rng.randint(1, 5))
            fs = [
                PLFunc.min_of_affines(
                    box, [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
                )
                for _ in range(rng.randint(1, 4))
            ]
            acc = fs[0]
            for f in fs[1:]:
                acc = acc + f
            # DivPoly._degree_at reads the degree pointwise, at every
            # breakpoint of every coefficient and between them
            us = sorted(set().union(*(f.breaks for f in fs)))
            us = sorted(set(us).union(Fraction(x + y, 2) for x, y in zip(us, us[1:])))
            assert DivPoly(box, dict(zip(labels, fs)))._degree_at(us) == acc._at(us)
            assert degree(DivPoly(box, dict(zip(labels, fs)))) == acc
        assert DivPoly((0, 3), {})._degree_at([0, Fraction(1, 2), 3]) == [0, 0, 0]


class TestJSONBoundary:
    @pytest.mark.parametrize(
        "obj",
        [
            {"breaks": "01", "values": [0, 0]},
            {"breaks": [0, 1], "values": 5},
            {"breaks": {"0": 0, "1": 1}, "values": [0, 0]},
        ],
    )
    def test_plfunc_needs_lists(self, obj):
        with pytest.raises(DomainError, match="must be a list"):
            PLFunc.from_json(obj)

    @pytest.mark.parametrize("box", ["06", [0], [0, 3, 6], {"0": 6}, 6])
    def test_divpoly_box_needs_a_list_of_two(self, box):
        obj = {"box": box, "coeffs": {"0": {"breaks": ["0", "6"], "values": ["0", "0"]}}}
        with pytest.raises(DomainError, match="'box' must be a list of two rationals"):
            DivPoly.from_json(obj)

    def test_divpoly_coeffs_need_an_object(self):
        with pytest.raises(DomainError, match="'coeffs' must be an object"):
            DivPoly.from_json({"box": ["0", "6"], "coeffs": [["0", {"breaks": ["0", "6"], "values": ["0", "0"]}]]})

    @pytest.mark.parametrize("label", [5, None, ["inf"], 0.0])
    def test_label_needs_a_string(self, label):
        with pytest.raises(DomainError, match="point label must be a string"):
            PointLabel.parse(label)


def _lower_chain_by_definition(Q):
    # counterclockwise from the lex-smallest vertex while x increases
    vs = Q.vertices
    chain = [vs[0]]
    i = 0
    while vs[(i + 1) % len(vs)].x > chain[-1].x:
        i += 1
        chain.append(vs[i % len(vs)])
    return [(v.x, v.y) for v in chain]


def _from_polygon_by_definition(Q):
    """The lower envelope of Q and the negated lower envelope of Q reflected
    in the first axis, which is a hull of the reflected vertices."""
    from polymut.geom import Polygon, Vector2

    lower = _lower_chain_by_definition(Q)
    reflected = Polygon([Vector2(v.x, -v.y) for v in Q.vertices])
    upper = [(x, -y) for x, y in _lower_chain_by_definition(reflected)]
    return DivPoly(
        (lower[0][0], lower[-1][0]),
        {ZERO: PLFunc(*zip(*upper)), INFINITY: PLFunc([x for x, _ in lower], [-y for _, y in lower])},
    )


def _stored(f):
    return f.breaks, f.values, [type(x) for x in f.breaks + f.values]


class TestFastPathOracles:
    """The trusted paths of divpoly against the definitions they replace."""

    def test_from_polygon_reads_both_envelopes_off_the_cycle(self):
        import random

        from polymut.geom import Polygon, Vector2

        rng = random.Random(19)
        seen = {"vertical left edge": 0, "vertical right edge": 0, "both": 0, "neither": 0}
        done = 0
        while done < 500:
            pts = [Vector2(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(3, 7))]
            xs = [p.x for p in pts]
            # a second point on the leftmost or the rightmost vertical line
            if rng.random() < 0.4:
                pts.append(Vector2(min(xs), rng.randint(-5, 5)))
            if rng.random() < 0.4:
                pts.append(Vector2(max(xs), rng.randint(-5, 5)))
            Q = Polygon(pts)
            if Q.dim() != 2:
                continue
            vs = Q.vertices
            left = vs[-1].x == vs[0].x
            right = any(a.x == b.x for a, b in edges(Q)[1:-1])
            key = "both" if left and right else "vertical left edge" if left else "vertical right edge" if right else "neither"
            seen[key] += 1
            got, want = from_polygon(Q), _from_polygon_by_definition(Q)
            assert got == want, Q
            assert got.box == want.box and [type(x) for x in got.box] == [type(x) for x in want.box]
            for label in (ZERO, INFINITY):
                assert _stored(got.coeffs[label]) == _stored(want.coeffs[label]), Q
            done += 1
        assert seen["vertical left edge"] + seen["both"] >= 50, seen
        assert seen["vertical right edge"] + seen["both"] >= 50, seen
        assert seen["neither"] >= 50, seen

    def test_to_polygon_is_the_hull_of_the_fibers(self):
        import random

        from polymut.geom import Polygon, Vector2

        rng = random.Random(20)
        labels = [ZERO, INFINITY, PointLabel.param("s")]
        done = 0
        while done < 300:
            lo = rng.randint(-4, 1)
            box = (lo, lo + rng.randint(1, 5))
            fs = [
                PLFunc.min_of_affines(
                    box, [(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(0, 6)) for _ in range(rng.randint(1, 3))]
                )
                for _ in range(2)
            ]
            dp = DivPoly(box, dict(zip(rng.sample(labels, 2), fs)))
            nt = dp.nontrivial_labels()
            upper = dp.coefficient(nt[0])
            lower = dp.coefficient(nt[1]) if len(nt) > 1 else PLFunc.constant(box, 0)
            us = sorted(set(upper.breaks) | set(lower.breaks))
            if any(upper(u) < -lower(u) for u in us):
                with pytest.raises(EmptyFiber):
                    to_polygon(dp)
                continue
            want = Polygon([Vector2(u, y) for u in us for y in (upper(u), -lower(u))])
            got = to_polygon(dp)
            assert got == want and [(type(v.x), type(v.y)) for v in got.vertices] == [
                (type(v.x), type(v.y)) for v in want.vertices
            ]
            done += 1

    def test_is_zero_reads_the_canonical_form(self):
        import random

        rng = random.Random(21)
        zeros = 0
        for _ in range(3000):
            bs, vs = _random_points(rng)
            if rng.random() < 0.3:
                vs = [v * 0 for v in vs]
            try:
                f = PLFunc(bs, vs)
            except DomainError:
                continue
            assert f.is_zero() == all(v == 0 for v in f.values)
            zeros += f.is_zero()
        assert zeros >= 300

    def test_with_split_is_the_public_constructor(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        part0 = PLFunc.affine(BOX, Fraction(-1, 2), 1)
        part1 = PLFunc.min_of_affines(BOX, [(1, 0), (0, 0)])
        s = PointLabel.param("s")
        for label in (ZERO, INFINITY, PointLabel.param("t")):
            got = dp.with_split(label, part0, s, part1)
            cs = dict(dp.coeffs)
            cs[label] = part0
            cs[s] = part1
            want = DivPoly(BOX, cs)
            assert got == want and list(got.coeffs) == list(want.coeffs)
        with pytest.raises(DomainError, match="^bad label: 'inf'$"):
            dp.with_split("inf", part0, s, part1)


def _label_model(label):
    return (label.kind, label.name)


class TestPointLabelValueSemantics:
    """PointLabel behaves as the (kind, name) pair it stores, as the frozen
    dataclass it replaces did."""

    LABELS = [ZERO, INFINITY, PointLabel.param("s"), PointLabel.param("t"), PointLabel.param("a"), PointLabel(2, "s")]

    def test_against_the_pair_model(self):
        import itertools
        import random

        for a, b in itertools.product(self.LABELS, repeat=2):
            ka, kb = _label_model(a), _label_model(b)
            assert (a == b) == (ka == kb) and (a != b) == (ka != kb)
            assert (a < b) == (ka < kb) and (a <= b) == (ka <= kb)
            assert (a > b) == (ka > kb) and (a >= b) == (ka >= kb)
            if a == b:
                assert hash(a) == hash(b)
        for a in self.LABELS:
            assert hash(a) == hash(_label_model(a))
        rng = random.Random(22)
        for _ in range(50):
            xs = rng.sample(self.LABELS, rng.randint(1, len(self.LABELS)))
            assert [_label_model(x) for x in sorted(xs)] == sorted(_label_model(x) for x in xs)
        assert len(set(self.LABELS)) == 5

    def test_other_types_and_printing(self):
        s = PointLabel.param("s")
        assert s != (2, "s") and ZERO != 0 and not (ZERO == (0, ""))
        with pytest.raises(TypeError):
            ZERO < (1, "")
        assert repr(ZERO) == "PointLabel(kind=0, name='')"
        assert repr(s) == "PointLabel(kind=2, name='s')"
        assert [str(x) for x in (ZERO, INFINITY, s)] == ["0", "inf", "s"]
        assert PointLabel(0) == ZERO and PointLabel.parse("inf") is INFINITY

    def test_immutable(self):
        import copy
        import pickle

        s = PointLabel.param("s")
        for attr in ("kind", "name", "other"):
            with pytest.raises(AttributeError):
                setattr(s, attr, 1)
        with pytest.raises(AttributeError):
            del s.kind
        assert _label_model(s) == (2, "s")
        assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
