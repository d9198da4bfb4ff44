import hashlib
import json
import math
from fractions import Fraction

import pytest

from polymut import fano
from polymut.errors import DomainError
from polymut.deform import (
    Decomposition,
    FiberMismatch,
    Inadmissible,
    corollary_check,
    general_fiber,
    is_admissible,
    is_weight_reducing,
    mutation_to_deformation,
    reduce_to_polygon,
    standard_decomposition,
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
