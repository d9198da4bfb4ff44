import functools
import hashlib
import json
import math
from fractions import Fraction

import pytest

from polymut import deform, fano
from polymut.errors import DomainError
from polymut.deform import (
    Decomposition,
    ShiftRecord,
    _shift_candidates,
    FiberMismatch,
    Inadmissible,
    corollary_check,
    general_fiber,
    is_admissible,
    is_weight_reducing,
    mutation_to_deformation,
    reduce_to_polygon,
    standard_decomposition,
    weights_decrease,
)
from polymut.divpoly import (
    INFINITY,
    ZERO,
    DivPoly,
    DomainMismatch,
    LabelCollision,
    PLFunc,
    PointLabel,
    from_polygon,
)
from polymut.geom import (
    Vector2,
    area,
    dilate,
    dual,
    lattice_equivalent,
)
from polymut.mutation import (
    factor_directions,
    factor_for,
    find_factors,
    inverse_data,
    mutate,
    mutation_graph,
)
from conftest import P

BOX = (-6, 6)


def p114_divpoly():
    return from_polygon(P((-6, 2), (6, 2), (0, -1)))


def paper_decomposition():
    """part0 with slope -1/2, part1 with slopes {0, 1}."""
    return Decomposition(
        INFINITY,
        PLFunc.affine(BOX, Fraction(-1, 2), 0),
        PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)]),
    )


def p1xp1_decomposition():
    """slopes {1/2, 0} and {0, -1/2}."""
    phi = p114_divpoly().coefficient(INFINITY)
    part0 = PLFunc.min_of_affines(BOX, [(Fraction(1, 2), 0), (0, 0)])
    return Decomposition(INFINITY, part0, phi - part0)


class TestIsAdmissible:
    def test_paper_decomposition(self):
        d = paper_decomposition()
        phi = p114_divpoly().coefficient(INFINITY)
        assert is_admissible(phi, d.part0, d.part1).admissible

    def test_half_half_is_inadmissible(self):
        phi = p114_divpoly().coefficient(INFINITY)
        half = PLFunc([-6, 0, 6], [-1, Fraction(1, 2), -1])
        rep = is_admissible(phi, half, half)
        assert not rep.admissible
        assert any("non-integral slope" in v for v in rep.violations)

    def test_half_integer_pair(self):
        d = p1xp1_decomposition()
        phi = p114_divpoly().coefficient(INFINITY)
        assert is_admissible(phi, d.part0, d.part1).admissible

    def test_sum_mismatch_detected(self):
        phi = p114_divpoly().coefficient(INFINITY)
        rep = is_admissible(phi, PLFunc.constant(BOX, 1), PLFunc.constant(BOX, 1))
        assert not rep.admissible

    def test_domain_mismatch_message(self):
        phi = p114_divpoly().coefficient(INFINITY)
        with pytest.raises(DomainMismatch) as e:
            is_admissible(phi, PLFunc.constant((Fraction(1, 2), 6), 1), PLFunc.constant(BOX, 1))
        assert str(e.value) == "decomposition domains differ: (-6, 6), (1/2, 6), (-6, 6)"
        assert "Fraction(" not in str(e.value)


class TestGeneralFiber:
    def test_p114_fiber_coefficients(self):
        dp = p114_divpoly()
        fib = general_fiber(dp, paper_decomposition())
        assert fib.coefficient(ZERO) == PLFunc.constant(BOX, 2)
        assert fib.coefficient(INFINITY) == PLFunc.affine(BOX, Fraction(-1, 2), 0)
        assert fib.coefficient(PointLabel.param("s")) == PLFunc.min_of_affines(
            BOX, [(1, 1), (0, 1)]
        )
        assert fib.degree() == dp.degree()

    def test_trivial_decomposition(self):
        dp = p114_divpoly()
        phi = dp.coefficient(INFINITY)
        d = Decomposition(INFINITY, phi, PLFunc.constant(BOX, 0))
        fib = general_fiber(dp, d)
        red = reduce_to_polygon(fib)
        assert red.polygon == P((-6, 2), (6, 2), (0, -1))

    def test_label_collision(self):
        dp = p114_divpoly().with_coefficient(
            PointLabel.param("s"), PLFunc.constant(BOX, 0)
        )
        with pytest.raises(LabelCollision):
            general_fiber(dp, paper_decomposition())

    def test_inadmissible_rejected(self):
        dp = p114_divpoly()
        half = PLFunc([-6, 0, 6], [-1, Fraction(1, 2), -1])
        with pytest.raises(Inadmissible):
            general_fiber(dp, Decomposition(INFINITY, half, half))


class TestReduceToPolygon:
    def test_smoothing_fiber_is_p2(self, p2_triangle):
        fib = general_fiber(p114_divpoly(), paper_decomposition())
        red = reduce_to_polygon(fib)
        assert red.reducible
        assert red.polygon == P((-6, 5), (0, -1), (6, -1))
        assert lattice_equivalent(red.polygon, dilate(dual(p2_triangle), 2)) is not None

    def test_p1xp1_fiber(self):
        fib = general_fiber(p114_divpoly(), p1xp1_decomposition())
        red = reduce_to_polygon(fib)
        assert red.reducible
        assert len(red.polygon.vertices) == 4
        assert area(red.polygon) == 18
        rect = P((0, 0), (6, 0), (6, 3), (0, 3))
        assert lattice_equivalent(red.polygon, rect) is not None

    def test_roundtrip_direct(self):
        dp = p114_divpoly()
        red = reduce_to_polygon(dp)
        assert red.reducible and not red.shifts
        assert red.polygon == P((-6, 2), (6, 2), (0, -1))

    def test_irreducible_reported_not_raised(self):
        # three two-piece coefficients: no affine piece shift can zero one
        f = PLFunc.min_of_affines(BOX, [(1, 0), (0, 0)])
        dp = DivPoly(
            BOX,
            {
                ZERO: f,
                INFINITY: f,
                PointLabel.param("s"): PLFunc.min_of_affines(BOX, [(2, 12), (0, 12)]),
            },
        )
        red = reduce_to_polygon(dp)
        assert not red.reducible
        assert red.polygon is None
        assert red.reason


class TestPipeline:
    def test_p114_certificate(self, p114_triangle, p2_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        cert = mutation_to_deformation(p114_triangle, md)
        assert cert.dilation == 2
        assert cert.divpoly.box == (Fraction(-6), Fraction(6))
        assert lattice_equivalent(cert.fiber_polygon, dilate(dual(p2_triangle), 2)) is not None
        assert cert.corollary.passed
        assert cert.corollary.slope_decomposition() == "-1/2 + {0, 1}"
        assert cert.in_diophantine_class
        assert cert.extends_over_p1

    def test_p2_has_no_reducing_mutation(self, p2_triangle):
        for w in [Vector2(-1, -1), Vector2(2, -1), Vector2(-1, 2)]:
            for md in find_factors(p2_triangle, w):
                assert not is_weight_reducing(p2_triangle, md)
                with pytest.raises(FiberMismatch):
                    mutation_to_deformation(p2_triangle, md)

    def test_p1425_to_p114(self, p114_triangle):
        T = P((1, 2), (-1, 2), (-6, -13))
        assert sorted(fano.weights(T)) == [1, 4, 25]
        md = next(
            md
            for w in [Vector2(3, -1)]
            for md in find_factors(T, w)
        )
        cert = mutation_to_deformation(T, md)
        assert cert.dilation == 10
        assert lattice_equivalent(
            cert.fiber_polygon, dilate(dual(cert.mutated), 10)
        ) is not None
        assert cert.corollary.passed

    def test_explicit_dilation_validated(self, p114_triangle):
        from polymut.deform import NoLatticeDilation

        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        with pytest.raises(NoLatticeDilation):
            mutation_to_deformation(p114_triangle, md, 3)
        cert = mutation_to_deformation(p114_triangle, md, 4)
        assert cert.dilation == 4

    def test_degree_preservation_along_pipeline(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        cert = mutation_to_deformation(p114_triangle, md)
        a = cert.dilation
        assert area(cert.fiber_polygon) == a * a * area(dual(cert.normalized_source))

    def test_factor_against_normalized_direction_refused(self, p114_triangle):
        # inverse_data keeps f0 while negating w, so its factor points along
        # -f0 of the normalizer; deform refuses it instead of flipping F
        from polymut.mutation import InvalidFactor, inverse_data, mutate

        T = p114_triangle
        checked = 0
        for w in factor_directions(T):
            for md in find_factors(T, w):
                Q = mutate(T, md)
                back = inverse_data(T, md)
                assert mutate(Q, back) == T
                with pytest.raises(InvalidFactor, match="factor direction"):
                    mutation_to_deformation(Q, back)
                # the factor along the normalized direction gives T up to a
                # shear along w, and deform accepts it
                fwd = factor_for(Q, back.w, back.t)
                assert lattice_equivalent(mutate(Q, fwd), T) is not None
                try:
                    mutation_to_deformation(Q, fwd)
                except FiberMismatch:
                    assert not is_weight_reducing(Q, fwd)
                checked += 1
        assert checked == 3

    def test_non_primitive_height_function_refused(self, p114_triangle):
        # gcd(w) = 2 would give a normalizer of determinant 2, which used to
        # surface as a misleading NotFano for the normalized polygon
        from polymut.mutation import MutationData, NotPrimitive

        md = MutationData(Vector2(0, -2), 1, Vector2(1, 0))
        for T in (p114_triangle, fano.triangle_from_weights((1, 1, 4))):
            with pytest.raises(NotPrimitive, match="primitive"):
                mutation_to_deformation(T, md)

    def test_markov_graph_edges_depth3(self, p2_triangle):
        g = mutation_graph(p2_triangle, 3)
        for e in g.edges:
            src = g.nodes[e.source].polygon
            md = factor_for(src, e.w, e.t)
            if is_weight_reducing(src, md):
                cert = mutation_to_deformation(src, md)
                assert cert.corollary.passed
                assert cert.in_diophantine_class
            else:
                with pytest.raises(FiberMismatch):
                    mutation_to_deformation(src, md)


class TestCorollaryCheck:
    def test_p114_pipeline_decomposition(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        cert = mutation_to_deformation(p114_triangle, md)
        rep = corollary_check(cert.decomposition)
        assert rep.passed
        assert rep.common_slope == Fraction(-1, 2)
        assert sorted(rep.step_slopes) == [0, 1]

    def test_three_piece_part1_fails(self):
        d = Decomposition(
            INFINITY,
            PLFunc.affine(BOX, 0, 0),
            PLFunc.min_of_affines(BOX, [(2, 4), (1, 1), (0, 0)]),
        )
        rep = corollary_check(d)
        assert not rep.passed
        assert not rep.clauses["part1_exactly_two_pieces"]

    def test_markov_chain_decomposition(self):
        T = P((1, 2), (-1, 2), (-6, -13))
        md = find_factors(T, Vector2(3, -1))[0]
        cert = mutation_to_deformation(T, md)
        assert corollary_check(cert.decomposition).passed


class TestStandardDecomposition:
    def test_matches_affine_extension(self):
        dp = p114_divpoly()
        d = standard_decomposition(dp, 1)
        # part0 is the affine extension of the right-hand piece
        assert d.part0 == PLFunc.affine(BOX, Fraction(-1, 2), 1)
        assert d.part1 == PLFunc.min_of_affines(BOX, [(1, 0), (0, 0)])
        assert d.part0 + d.part1 == dp.coefficient(INFINITY)


def _inner_normals(Q):
    """Sorted primitive inner edge normals of a CCW lattice polygon."""
    out = []
    vs = [v.as_ints() for v in Q.vertices]
    for (ax, ay), (bx, by) in zip(vs, vs[1:] + vs[:1]):
        nx, ny = ay - by, bx - ax
        g = math.gcd(nx, ny)
        out.append(Vector2(nx // g, ny // g))
    return sorted(out)


def test_fan_rays(p2_triangle):
    # the pipeline's fan rays are mutation.factor_directions: the sorted
    # primitive inner edge normals, here against the test-side normals
    import random

    from polymut.geom import Polygon

    assert factor_directions(dilate(dual(p2_triangle), 2)) == sorted(
        [Vector2(1, 0), Vector2(0, 1), Vector2(-1, -1)]
    )
    rng = random.Random(43)
    polygons = 0
    while polygons < 60:
        Q = Polygon([Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)])
        if not fano.is_fano(Q):
            continue
        polygons += 1
        assert factor_directions(Q) == _inner_normals(Q), Q


def test_normalizer_rows_are_the_extgcd_rows():
    # _normalizer_for takes (s, -w) from geom.height_basis; it must equal the
    # rows built from extgcd directly, so every certificate's normalizer holds
    from polymut.deform import _normalizer_for
    from polymut.geom import extgcd, is_primitive

    checked = 0
    for p in range(-6, 7):
        for q in range(-6, 7):
            w = Vector2(p, q)
            if not is_primitive(w):
                continue
            _, x, y = extgcd(p, q)
            assert _normalizer_for(w) == ((-y, x), (-p, -q))
            checked += 1
    assert checked == 96


def test_digest_of_every_factor_of_every_coprime_triple_up_to_15():
    # every factor of every pairwise-coprime triple with c <= 15, forward
    # and back through inverse_data: the certificate JSON, or the error type
    # and message of the refusal
    def attempt(P, md):
        try:
            return mutation_to_deformation(P, md).to_json()
        except DomainError as e:
            return [type(e).__name__, str(e)]

    rows = []
    for c in range(1, 16):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    T = fano.triangle_from_weights((a, b, c))
                    for w in factor_directions(T):
                        for md in find_factors(T, w):
                            rows.append(attempt(T, md))
                            rows.append(attempt(mutate(T, md), inverse_data(T, md)))
    blob = json.dumps(rows, sort_keys=True).encode()
    assert len(rows) == 1840
    assert hashlib.sha256(blob).hexdigest() == (
        "6c56d7ac0b87ae5c32bdad1a29018416448fc49a74a73224f8d722ffadd4c82f"
    )



def test_digest_of_every_dilation_of_every_coprime_triple_up_to_10():
    # every factor of every pairwise-coprime triple with c <= 10, forward and
    # back, at the automatic dilation and at explicit ones that are too small,
    # not integral, valid or a multiple of the least: the certificate JSON,
    # or the error type and message of the refusal
    dilations = (None, 0, 1, 2, 3, 12, 60, Fraction(1, 2), Fraction(3, 2))

    def attempt(P, md, a):
        try:
            return mutation_to_deformation(P, md, a).to_json()
        except DomainError as e:
            return [type(e).__name__, str(e)]

    rows = []
    for c in range(1, 11):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    T = fano.triangle_from_weights((a, b, c))
                    for w in factor_directions(T):
                        for md in find_factors(T, w):
                            Q, back = mutate(T, md), inverse_data(T, md)
                            for d in dilations:
                                rows.append(attempt(T, md, d))
                                rows.append(attempt(Q, back, d))
    blob = json.dumps(rows, sort_keys=True, default=str).encode()
    assert len(rows) == 4554
    assert sum(isinstance(r, dict) for r in rows) == 278
    assert hashlib.sha256(blob).hexdigest() == (
        "9e24637b01ddf4d28ed7a4b27cc5a149b3666bc8926143745c26d7671102487f"
    )


def test_pipeline_proves_fano_once(monkeypatch):
    # mutate proves the normalized source Fano; its weights and the mutant's
    # are read off their vertices without proving either Fano again
    calls = []
    is_fano = fano.is_fano
    monkeypatch.setattr(fano, "is_fano", lambda P: calls.append(P) or is_fano(P))
    attempts = 0
    for weights in ((1, 1, 1), (1, 1, 4), (1, 4, 25), (2, 3, 5), (1, 2, 9)):
        T = fano.triangle_from_weights(weights)
        for w in factor_directions(T):
            for md in find_factors(T, w):
                del calls[:]
                try:
                    mutation_to_deformation(T, md)
                except DomainError:
                    pass
                assert len(calls) == 1, (weights, md)
                attempts += 1
    assert attempts >= 10


def test_inexact_factor_lengths_and_dilations_refused():
    # a boolean factor length or dilation, and a float dilation, are refused
    # as not exact rationals, as PLFunc.min_of_affines and geom.dilate did
    from polymut.mutation import MutationData

    T = fano.triangle_from_weights((1, 1, 4))
    mds = [md for w in factor_directions(T) for md in find_factors(T, w)]
    assert len(mds) == 3
    for md in mds:
        for m, a, bad in ((MutationData(md.w, True, md.f0), None, "True"), (md, True, "True"), (md, 2.0, "2.0"), (md, 2.5, "2.5")):
            with pytest.raises(DomainError, match=f"^not an exact rational: {bad}$"):
                mutation_to_deformation(T, m, a)

class TestSmoothingDirection:
    def test_rule(self):
        assert weights_decrease((1, 1, 4), (1, 1, 1))
        assert not weights_decrease((1, 1, 1), (1, 1, 4))
        assert not weights_decrease((1, 2, 3), (1, 2, 3))
        assert not weights_decrease((1, 4, 25), None)  # not a triangle

    def test_is_weight_reducing_reads_the_rule(self, monkeypatch):
        # the rule is the one place that decides the direction
        from polymut import deform

        seen = []
        monkeypatch.setattr(deform, "weights_decrease", lambda wp, wq: seen.append((wp, wq)) or True)
        S = fano.triangle_from_weights((1, 1, 1))
        for w in factor_directions(S):
            for md in find_factors(S, w):
                assert is_weight_reducing(S, md)
                assert seen[-1] == (fano.weights(S), fano.weights(mutate(S, md)))
        assert len(seen) == 3

    def test_default_factor_is_the_first_weight_reducing_one(self):
        # polymut deform without --w picks the first factor, in the order of
        # factor_directions and find_factors, that is_weight_reducing accepts
        from polymut.cli import _default_reducing_factor

        picked = refused = 0
        for c in range(1, 16):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                        T = fano.triangle_from_weights((a, b, c))
                        first = next(
                            (md for w in factor_directions(T) for md in find_factors(T, w) if is_weight_reducing(T, md)),
                            None,
                        )
                        if first is None:
                            with pytest.raises(DomainError, match="no weight-decreasing mutation"):
                                _default_reducing_factor(T)
                            refused += 1
                        else:
                            assert _default_reducing_factor(T) == first
                            picked += 1
        assert (picked, refused) == (5, 169)

    def test_default_factor_refuses_as_before(self):
        # a Fano polygon that is not a triangle is refused at its first
        # factor, one without a factor as having no decreasing mutation
        from polymut.cli import _default_reducing_factor

        with pytest.raises(fano.NotATriangle):
            _default_reducing_factor(P((-2, 1), (2, 1), (1, -1), (-1, -1)))
        rigid = P((-3, -2), (2, -3), (3, 1), (-1, 2))
        assert not any(find_factors(rigid, w) for w in factor_directions(rigid))
        with pytest.raises(DomainError, match="no weight-decreasing mutation"):
            _default_reducing_factor(rigid)
        with pytest.raises(fano.NotFano):
            _default_reducing_factor(P((2, 0), (0, 1), (-1, -1)))


def _is_stored(x) -> bool:
    # an exact rational as geom stores it: an int when integral
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def test_every_certificate_rational_is_stored_canonically():
    # the trusted constructors fold an integral Fraction such as 1/2 + 1/2
    # to its int, as to_fraction does; over the certificates of the digest
    # sweep above, every coordinate, breakpoint and value is in stored form
    certs = []
    for c in range(1, 16):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    T = fano.triangle_from_weights((a, b, c))
                    for w in factor_directions(T):
                        for md in find_factors(T, w):
                            for P, m in ((T, md), (mutate(T, md), inverse_data(T, md))):
                                try:
                                    certs.append(mutation_to_deformation(P, m))
                                except DomainError:
                                    pass
    bad = []
    for cert in certs:
        polygons = (cert.source, cert.normalized_source, cert.mutated, cert.fiber_polygon, cert.target)
        rationals = [x for Q in polygons for v in Q.vertices for x in (v.x, v.y)]
        rationals += [cert.witness[1].x, cert.witness[1].y]
        fs = [cert.decomposition.part0, cert.decomposition.part1]
        for dp in (cert.divpoly, cert.fiber_divpoly, cert.reduction.divpoly):
            rationals += dp.box
            fs += [*dp.coeffs.values(), dp.degree()]
        rationals += [x for f in fs for x in f.breaks + f.values]
        bad += [x for x in rationals if not _is_stored(x)]
    assert len(certs) == 377
    assert bad == []


def _shift_candidates_by_sort(dp):
    """Every count-reducing (from, to, piece) shift listed, then sorted:
    integral shifts first, each pass by source label, then target label
    (by decreasing kind for the non-integral ones), then slope."""
    cands = []
    labels = dp.labels()
    for frm in labels:
        cf = dp.coeffs[frm]
        if cf.is_zero():
            continue
        for (a, _, slope), va in zip(cf.pieces(), cf.values):
            intercept = va - slope * a
            for to in labels:
                if to == frm:
                    continue
                ct = dp.coeffs[to]
                if not cf.is_affine() and any(
                    v + slope * u + intercept != 0 for u, v in zip(ct.breaks, ct.values)
                ):
                    continue
                cands.append(ShiftRecord(frm, to, slope, intercept))

    def key(c):
        if c.is_integral():
            return (0, c.frm, (c.to.kind, c.to.name), c.slope, c.intercept)
        return (1, c.frm, (-c.to.kind, c.to.name), c.slope, c.intercept)

    return sorted(cands, key=key)


def _random_coefficient(rng, box, others):
    """A concave function on box: zero, affine, a minimum of two to four
    affine functions with integral or half-integral slopes, or minus the
    affine extension of a piece of one of the functions in others."""
    r = rng.random()
    bent = [f for f in others if not f.is_affine()]
    if r < 0.25 and bent:
        f = rng.choice(bent)
        (a, _, s), v = rng.choice(list(zip(f.pieces(), f.values)))
        return PLFunc.affine(box, -s, s * a - v)
    if r < 0.3:
        return PLFunc.constant(box, 0)
    n = 1 if r < 0.6 else rng.randint(2, 4)
    lines = [
        (Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])), Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])))
        for _ in range(n)
    ]
    return PLFunc.min_of_affines(box, lines)


def test_shift_walk_is_the_sorted_candidate_list():
    # _shift_candidates walks the candidates in the order that sorting the
    # full list gives, on seeded divisorial polytopes with 3 to 5 labels and
    # on every divisorial polytope their reductions pass through
    import random

    from polymut.divpoly import shift_affine

    rng = random.Random(20)
    pool = [ZERO, INFINITY, PointLabel.param("a"), PointLabel.param("s"), PointLabel.param("t")]
    seen = {"no integral": 0, "non-integral piece": 0, "minus a piece": 0, "two shifts": 0}
    for _ in range(600):
        lo = rng.randint(-4, 0)
        box = (lo, lo + rng.randint(1, 6))
        coeffs = {}
        for label in rng.sample(pool, rng.randint(3, 5)):
            coeffs[label] = _random_coefficient(rng, box, list(coeffs.values()))
        # a degree negative somewhere would leave the reduced fiber empty
        low = min(DivPoly(box, coeffs).degree().values)
        if low < 0:
            coeffs[label] = coeffs[label] + PLFunc.constant(box, math.ceil(-low))
        dp = DivPoly(box, coeffs)
        want = _shift_candidates_by_sort(dp)
        assert list(_shift_candidates(dp)) == want, dp.to_json()
        assert len({(c.frm, c.to) for c in want}) == len(want)  # one piece per pair
        red = reduce_to_polygon(dp)
        cur = dp
        for s in red.shifts:
            cur = shift_affine(cur, s.frm, s.to, s.slope, s.intercept)
            assert list(_shift_candidates(cur)) == _shift_candidates_by_sort(cur), cur.to_json()
        seen["no integral"] += bool(want) and not any(c.is_integral() for c in want)
        seen["non-integral piece"] += any(s.denominator != 1 for f in coeffs.values() for s in f.slopes())
        seen["minus a piece"] += any(not dp.coeffs[c.frm].is_affine() for c in want)
        seen["two shifts"] += len(red.shifts) >= 2
    assert min(seen.values()) >= 30, seen


@functools.cache
def _forward_sweep():
    """Over every factor of every pairwise-coprime triple with c <= 15,
    forward: per reduce_to_polygon call, its input and the numbers of
    ShiftRecords built and of shift_affine calls made during it."""
    calls = []
    built, shifted = [0], [0]
    record, shift, reduce = deform.ShiftRecord, deform.shift_affine, deform.reduce_to_polygon

    def counting_record(*a):
        built[0] += 1
        return record(*a)

    def counting_shift(*a):
        shifted[0] += 1
        return shift(*a)

    def spying_reduce(dp):
        b, s = built[0], shifted[0]
        red = reduce(dp)
        calls.append((dp, built[0] - b, shifted[0] - s))
        return red

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deform, "ShiftRecord", counting_record)
        mp.setattr(deform, "shift_affine", counting_shift)
        mp.setattr(deform, "reduce_to_polygon", spying_reduce)
        for c in range(1, 16):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                        T = fano.triangle_from_weights((a, b, c))
                        for w in factor_directions(T):
                            for md in find_factors(T, w):
                                try:
                                    mutation_to_deformation(T, md)
                                except DomainError:
                                    pass
    return calls


def test_shift_walk_on_every_general_fiber_of_the_sweep():
    fibers = [dp for dp, _, _ in _forward_sweep()]
    assert len(fibers) == 920
    for dp in fibers:
        assert list(_shift_candidates(dp)) == _shift_candidates_by_sort(dp), dp.to_json()


def test_reduction_builds_only_the_shifts_it_tries():
    # the walk is lazy: each ShiftRecord built is one shift_affine call
    calls = _forward_sweep()
    assert [b for _, b, _ in calls] == [s for _, _, s in calls]
    assert sum(b for _, b, _ in calls) == sum(s for _, _, s in calls) == 920
