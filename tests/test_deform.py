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
    mutate,
    mutation_graph,
)
from conftest import P
from oracles import (
    _shift_candidates,
    admissible_by_definition,
    degree,
    extgcd,
    inverse_data,
    mat_image,
    pieces,
    reduce_by_search,
)

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
        assert degree(fib) == degree(dp)

    def test_trivial_decomposition(self):
        dp = p114_divpoly()
        phi = dp.coefficient(INFINITY)
        d = Decomposition(INFINITY, phi, PLFunc.constant(BOX, 0))
        fib = general_fiber(dp, d)
        red = reduce_to_polygon(fib)
        assert red.polygon == P((-6, 2), (6, 2), (0, -1))

    def test_label_collision(self):
        dp = p114_divpoly()
        dp = DivPoly(dp.box, {**dp.coeffs, PointLabel.param("s"): PLFunc.constant(BOX, 0)})
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
        from polymut.mutation import InvalidFactor, mutate

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

    def test_non_exact_factor_length_refused(self):
        # part1 is built off its breakpoints, but a t handed straight to
        # standard_decomposition is still coerced as min_of_affines does
        dp = p114_divpoly()
        for t in (True, False, 1.0, 2.5):
            with pytest.raises(DomainError, match=f"^not an exact rational: {t}$"):
                standard_decomposition(dp, t)
        for t in (0, 1, Fraction(1, 2)):
            d = standard_decomposition(dp, t)
            assert d.part1 == PLFunc.min_of_affines(BOX, [(t, 0), (0, 0)])
            assert d.part0 == dp.coefficient(INFINITY) - d.part1


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
    # _normalizer_for takes (s, -w) from geom._height_frame; it must equal the
    # rows built from extgcd directly, so every certificate's normalizer holds
    from polymut.deform import _normalizer_for
    from polymut.geom import is_primitive

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



def test_digest_of_every_mutation_back_up_to_15():
    # the mutation back of every factor of every pairwise-coprime triple
    # with c <= 15, along -w through factor_for, whose f0 is the direction
    # deform normalizes to: the certificate JSON, or the error type and
    # message of the refusal.  Recorded before the pipeline ran on integer
    # vertex cycles
    def attempt(P, md):
        try:
            return mutation_to_deformation(P, md).to_json()
        except DomainError as e:
            return [type(e).__name__, str(e)]

    rows = []
    for abc in _coprime_triples(15):
        T = fano.triangle_from_weights(abc)
        for w in factor_directions(T):
            for md in find_factors(T, w):
                Q = mutate(T, md)
                rows.append(attempt(Q, factor_for(Q, -md.w, md.t)))
    blob = json.dumps(rows, sort_keys=True).encode()
    kinds = [r[0] if isinstance(r, list) else "certificate" for r in rows]
    assert [kinds.count(k) for k in ("certificate", "NotATriangle", "FiberMismatch")] == [239, 676, 5]
    assert hashlib.sha256(blob).hexdigest() == (
        "1129834ec6028c896de75dc0770671cf8af03719393cb0f80fa46a74ce05419f"
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


def test_mutation_commutes_with_the_normalizer():
    # the pipeline mutates in the caller's frame and maps the mutant by the
    # normalizer U: U*mutate(P, md) is the mutant of U*P by md along
    # (0, -1), with f0 mapped by U, for every factor of every
    # pairwise-coprime triple with c <= 15, forward and back
    from polymut.deform import _normalizer_for
    from polymut.geom import mat_apply
    from polymut.mutation import MutationData

    checked = 0
    for c in range(1, 16):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    T = fano.triangle_from_weights((a, b, c))
                    for w in factor_directions(T):
                        for md in find_factors(T, w):
                            for P, m in ((T, md), (mutate(T, md), inverse_data(T, md))):
                                U = _normalizer_for(m.w)
                                mdn = MutationData(Vector2(0, -1), m.t, mat_apply(U, m.f0))
                                assert mat_image(U, mutate(P, m)) == mutate(mat_image(U, P), mdn), (P, m)
                                checked += 1
    assert checked == 1840


def test_over_long_factor_refusal_names_the_callers_w():
    # the pipeline checks the factor by mutate in the caller's frame, so a
    # length past t_max is refused for the caller's w, not for (0, -1)
    from polymut.mutation import InvalidFactor, _factor_data

    checked = 0
    for weights in ((1, 1, 4), (1, 4, 25), (2, 3, 5)):
        T = fano.triangle_from_weights(weights)
        for w in factor_directions(T):
            t = len(find_factors(T, w)) + 1
            with pytest.raises(InvalidFactor, match=rf"^no factor of length {t} for w=\({w.x}, {w.y}\)$"):
                mutation_to_deformation(T, _factor_data(w, t))
            checked += w != Vector2(0, -1)
    assert checked >= 6


def test_pipeline_proves_fano_once(monkeypatch):
    # mutate proves the source Fano; its weights and the mutant's are read
    # off the vertices of their images without proving either Fano again
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


def test_refused_attempts_build_no_polygon_past_the_mutant(monkeypatch):
    # the core runs on integer vertex cycles: an attempt refused after the
    # reduction builds no Polygon outside the reduction but mutate's
    # mutant, and a certificate adds only the normalized source, the
    # mutated polygon and the target, wrapped from the cycles it holds
    from polymut import geom, mutation

    built, inside = [], []
    make = geom._polygon_from_cycle
    spy = lambda cyc: built.append(bool(inside)) or make(cyc)
    # every Polygon is built by it, in each module that names it
    for module in (geom, mutation, deform):
        monkeypatch.setattr(module, "_polygon_from_cycle", spy)
    reduce = deform.reduce_to_polygon

    def traced(dp):
        inside.append(1)
        try:
            return reduce(dp)
        finally:
            inside.pop()

    monkeypatch.setattr(deform, "reduce_to_polygon", traced)
    seen = {"refused after the reduction": 0, "certified": 0}
    for abc in _coprime_triples(12):
        for P, md in _both_ways(fano.triangle_from_weights(abc)):
            del built[:]
            try:
                mutation_to_deformation(P, md)
            except FiberMismatch as e:
                if "not reducible" in str(e):
                    continue
                assert built.count(False) == 1, (P, md, str(e))
                seen["refused after the reduction"] += 1
            except DomainError:
                continue
            else:
                assert built.count(False) == 4, (P, md)
                seen["certified"] += 1
    assert min(seen.values()) > 50, seen


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


def test_non_integer_factor_lengths_refused():
    # a factor length that is not an int is refused as an invalid factor
    # before the mutation is built, not by its structural check
    from polymut.mutation import InvalidFactor, MutationData

    T = fano.triangle_from_weights((1, 1, 4))
    mds = [md for w in factor_directions(T) for md in find_factors(T, w)]
    assert len(mds) == 3
    for md in mds:
        for t in (Fraction(1, 2), 1.0):
            with pytest.raises(InvalidFactor, match=f"^factor length must be an integer: {t}$"):
                mutation_to_deformation(T, MutationData(md.w, t, md.f0))


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

    def test_is_weight_reducing_proves_fano_once(self, monkeypatch):
        # a polygon that is no triangle is refused first; then mutate gives
        # the one proof that P is Fano, and P's weights are read off its
        # vertices, so a triangle that is not Fano gets mutate's refusal
        calls = []
        is_fano = fano.is_fano
        monkeypatch.setattr(fano, "is_fano", lambda P: calls.append(P) or is_fano(P))
        T = fano.triangle_from_weights((1, 1, 4))
        md = find_factors(T, factor_directions(T)[0])[0]
        del calls[:]
        assert not is_weight_reducing(T, md)
        assert len(calls) == 1
        with pytest.raises(fano.NotATriangle, match="^expected a triangle, got 4 vertices$"):
            is_weight_reducing(P((1, 0), (0, 1), (-1, 0), (0, -1)), md)
        with pytest.raises(fano.NotFano, match="^operation requires a Fano polygon$"):
            is_weight_reducing(P((2, 0), (0, 1), (-1, -1)), md)

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
                            assert _default_reducing_factor(T) == (first, mutate(T, first))
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
            fs += [*dp.coeffs.values(), degree(dp)]
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
        for (a, _, slope), va in zip(pieces(cf), cf.values):
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
        (a, _, s), v = rng.choice(list(zip(pieces(f), f.values)))
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
    # the oracle's _shift_candidates walks the candidates in the order that
    # sorting the full list gives, on seeded divisorial polytopes with 3 to 5
    # labels and on every divisorial polytope their reductions pass through
    import random

    from polymut.divpoly import shift_affine, to_polygon

    rng = random.Random(20)
    pool = [ZERO, INFINITY, PointLabel.param("a"), PointLabel.param("s"), PointLabel.param("t")]
    seen = {"no integral": 0, "non-integral piece": 0, "minus a piece": 0, "two shifts": 0}
    differ = 0
    for _ in range(600):
        lo = rng.randint(-4, 0)
        box = (lo, lo + rng.randint(1, 6))
        coeffs = {}
        for label in rng.sample(pool, rng.randint(3, 5)):
            coeffs[label] = _random_coefficient(rng, box, list(coeffs.values()))
        # a degree negative somewhere would leave the reduced fiber empty
        low = min(degree(DivPoly(box, coeffs)).values)
        if low < 0:
            coeffs[label] = coeffs[label] + PLFunc.constant(box, math.ceil(-low))
        dp = DivPoly(box, coeffs)
        want = _shift_candidates_by_sort(dp)
        assert list(_shift_candidates(dp)) == want, dp.to_json()
        assert len({(c.frm, c.to) for c in want}) == len(want)  # one piece per pair
        red = reduce_by_search(dp)
        cur = dp
        for s in red.shifts:
            cur = shift_affine(cur, s.frm, s.to, s.slope, s.intercept)
            assert list(_shift_candidates(cur)) == _shift_candidates_by_sort(cur), cur.to_json()
        # the whole-coefficient walk reduces whatever the search reduces, and
        # its recorded shifts replay to its divpoly and polygon
        walk = reduce_to_polygon(dp)
        assert walk.reducible or not red.reducible, dp.to_json()
        cur = dp
        for s in walk.shifts:
            cur = shift_affine(cur, s.frm, s.to, s.slope, s.intercept)
        if walk.reducible:
            assert (walk.divpoly, walk.polygon) == (cur, to_polygon(cur))
        differ += walk != red
        seen["no integral"] += bool(want) and not any(c.is_integral() for c in want)
        seen["non-integral piece"] += any(s.denominator != 1 for f in coeffs.values() for s in f.slopes())
        seen["minus a piece"] += any(not dp.coeffs[c.frm].is_affine() for c in want)
        seen["two shifts"] += len(red.shifts) >= 2
    assert min(seen.values()) >= 30, seen
    # a few inputs, none of them built by the pipeline, reduce by other shifts
    assert differ == 5


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


def _coprime_triples(cmax):
    for c in range(1, cmax + 1):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    yield (a, b, c)


def _both_ways(T):
    """Every factor of T, forward, and back from its mutant along -w: the
    f0 of factor_for is the direction deform normalizes to, where the one
    inverse_data keeps is refused before any fiber is built."""
    for w in factor_directions(T):
        for md in find_factors(T, w):
            Q = mutate(T, md)
            yield T, md
            yield Q, factor_for(Q, -md.w, md.t)


def _reduced_fibers(runs):
    """The divisorial polytopes mutation_to_deformation hands to
    reduce_to_polygon over runs of (polygon, factor, dilation)."""
    fibers = []
    reduce = deform.reduce_to_polygon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deform, "reduce_to_polygon", lambda dp: fibers.append(dp) or reduce(dp))
        for P, md, a in runs:
            try:
                mutation_to_deformation(P, md, a)
            except DomainError:
                pass
    return fibers


def _assert_walk_is_the_search(fibers):
    for dp in fibers:
        assert reduce_to_polygon(dp) == reduce_by_search(dp), dp.to_json()


def test_walk_is_the_search_on_every_fiber_of_the_sweep():
    # every factor of every pairwise-coprime triple with c <= 15, both ways
    runs = [(P, md, None) for abc in _coprime_triples(15) for P, md in _both_ways(fano.triangle_from_weights(abc))]
    fibers = _reduced_fibers(runs)
    assert len(fibers) == 1164
    _assert_walk_is_the_search(fibers)


def test_walk_is_the_search_on_every_dilation_of_the_sweep():
    # the forward rows of the c <= 10 dilation digest, and the same dilations
    # back along -w, refused ones included
    dilations = (None, 0, 1, 2, 3, 12, 60, Fraction(1, 2), Fraction(3, 2))
    runs = [
        (P, md, a)
        for abc in _coprime_triples(10)
        for P, md in _both_ways(fano.triangle_from_weights(abc))
        for a in dilations
    ]
    fibers = _reduced_fibers(runs)
    assert len(fibers) == 761
    _assert_walk_is_the_search(fibers)


def test_walk_is_the_search_on_the_triangle_nodes_of_a_graph():
    # every factor of every triangle node of the P(1,4,5) graph at depth 4
    g = mutation_graph(fano.triangle_from_weights((1, 4, 5)), 4)
    runs = [
        (n.polygon, md, None)
        for n in g.nodes
        if n.weights
        for w in factor_directions(n.polygon)
        for md in find_factors(n.polygon, w)
    ]
    fibers = _reduced_fibers(runs)
    assert len(fibers) == 217
    _assert_walk_is_the_search(fibers)


def test_walk_is_the_search_on_a_seeded_sample_up_to_40():
    # 400 of the 3,008 pairwise-coprime triples with c <= 40, both ways:
    # about 1.4 s on a 2-vCPU Xeon VM, where all of them take about 10 s;
    # the bound below only catches a runaway
    import random
    import time

    start = time.monotonic()
    triples = random.Random(31).sample(list(_coprime_triples(40)), 400)
    runs = [(P, md, None) for abc in triples for P, md in _both_ways(fano.triangle_from_weights(abc))]
    fibers = _reduced_fibers(runs)
    assert len(fibers) == 2354
    _assert_walk_is_the_search(fibers)
    assert time.monotonic() - start < 30


def test_lattice_fallback_keeps_the_weight_refusal():
    # phi0 has a non-integral line, and moving it to s breaks the lattice
    # graphs, so the reduction moves it to infinity instead; the
    # non-isomorphism shift is then refused in this direction, not reported
    # as an irreducible fiber
    T = fano.triangle_from_weights((1, 4, 5))
    md = factor_for(T, Vector2(3, -2), 1)
    with pytest.raises(FiberMismatch) as e:
        mutation_to_deformation(T, md, 2)
    assert str(e.value) == (
        "reduction needs a non-isomorphism shift but the mutation does not "
        "decrease the weights; the general fiber is not the mutated plane in "
        "this direction"
    )
    (fiber,) = _reduced_fibers([(T, md, 2)])
    assert reduce_to_polygon(fiber).shifts == (ShiftRecord(ZERO, INFINITY, Fraction(2, 3), Fraction(2, 3)),)


@functools.cache
def _admissibility_sweep():
    """Over the digest sweep, every factor of every pairwise-coprime triple
    with c <= 15 forward and back through inverse_data: each is_admissible
    call as (phi, part0, part1, report), and every certificate with the
    caller's mutation data, as (md, certificate)."""
    calls, certs = [], []
    check = deform.is_admissible

    def spying(phi, phi0, phi1):
        report = check(phi, phi0, phi1)
        calls.append((phi, phi0, phi1, report))
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deform, "is_admissible", spying)
        for abc in _coprime_triples(15):
            T = fano.triangle_from_weights(abc)
            for w in factor_directions(T):
                for md in find_factors(T, w):
                    for P, m in ((T, md), (mutate(T, md), inverse_data(T, md))):
                        try:
                            certs.append((m, mutation_to_deformation(P, m)))
                        except DomainError:
                            pass
    return calls, certs


def _extends_triple(c):
    """(phi0 + part1, phi0, part1) of the certificate c, phi0 the
    coefficient at 0: the decomposition extends_over_p1 records."""
    phi0, part1 = c.divpoly.coefficient(ZERO), c.decomposition.part1
    return phi0 + part1, phi0, part1


def test_admissibility_walk_is_the_definition_on_the_sweep():
    # is_admissible's one walk along the merged breakpoints gives the whole
    # report of the piece-pairing definition, flag and violations in order,
    # on every decomposition and every extends-over-P^1 triple of the sweep
    calls, certs = _admissibility_sweep()
    # general_fiber checks 920 decompositions; the certificate records
    # extends_over_p1 from its proof, so its 377 triples are built here
    assert (len(calls), len(certs)) == (920, 377)
    for phi, phi0, phi1, report in calls:
        assert admissible_by_definition(phi, phi0, phi1) == report, (phi, phi0, phi1)
    for _, c in certs:
        args = _extends_triple(c)
        assert admissible_by_definition(*args) == is_admissible(*args), args


def test_extends_over_p1_on_every_certificate_of_the_sweep():
    # part1 = min(t*u, 0) has integral slopes and a lattice graph, and the
    # upper envelope of the dilated dual has a lattice graph, so no piece is
    # bad for both parts: every certificate of the sweep extends over P^1,
    # as the certificate records without running the check
    _, certs = _admissibility_sweep()
    assert len(certs) == 377
    for _, c in certs:
        phi, phi0, part1 = _extends_triple(c)
        assert all(type(s) is int for s in part1.slopes()) and part1.has_lattice_graph()
        assert phi0.has_lattice_graph()
        assert c.extends_over_p1 and admissible_by_definition(phi, phi0, part1).admissible


def _cycle_types(Q):
    return [(type(x), type(y)) for x, y in Q.cycle]


def test_certificate_polygons_are_the_maps_of_the_source():
    # the core wraps the cycles it holds as the certificate's polygons; they
    # are the normalizer's images of the source and of its mutant by the
    # caller's data, and the target the mutant's image dilated dual, with
    # the same coordinate types
    from polymut.geom import dilated_dual

    _, certs = _admissibility_sweep()
    assert len(certs) == 377
    for md, c in certs:
        U = c.normalizer
        mutated = mat_image(U, mutate(c.source, md))
        for got, want in (
            (c.normalized_source, mat_image(U, c.source)),
            (c.mutated, mutated),
            (c.target, dilated_dual(mutated, c.dilation)),
        ):
            assert got == want and _cycle_types(got) == _cycle_types(want), (c.source, md)


def _lattice_concave(rng, lo, hi):
    """A concave function with a lattice graph on the integer box [lo, hi]:
    pieces of integer length and integer rise, by decreasing slope, so a
    slope is non-integral when the length does not divide the rise."""
    cuts = sorted(rng.sample(range(lo + 1, hi), rng.randint(0, min(3, hi - lo - 1))))
    lengths = [b - a for a, b in zip([lo, *cuts], [*cuts, hi])]
    bs, vs = [lo], [rng.randint(-3, 3)]
    for s, n in sorted(((Fraction(rng.randint(-4, 4), n), n) for n in lengths), reverse=True):
        bs.append(bs[-1] + n)
        vs.append(vs[-1] + s * n)
    return PLFunc(bs, vs)


def _rational_concave(rng, box):
    """The minimum of one to four lines with integral, half- or
    third-integral slopes and rational intercepts: rational breakpoints."""
    lines = [
        (Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))), Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2))))
        for _ in range(rng.randint(1, 4))
    ]
    return PLFunc.min_of_affines(box, lines)


def _random_triple(rng):
    """(phi, part0, part1, kinds): parts with lattice graphs or rational
    breakpoints, sometimes sharing their breakpoints, and phi their sum, or
    their sum moved off everywhere, inside the box only or on its right
    half only, an unrelated concave function, or the chord of their sum."""
    kinds = set()
    if rng.random() < 0.6:
        lo = rng.randint(-5, 0)
        box = (lo, lo + rng.randint(1, 8))
        make = lambda: _lattice_concave(rng, *box)
    else:
        box = (Fraction(rng.randint(-9, 0), rng.choice((1, 2, 3))), Fraction(rng.randint(1, 9), rng.choice((1, 2))))
        make = lambda: _rational_concave(rng, box)
        kinds.add("rational box")
    phi0 = make()
    r = rng.random()
    if r < 0.25:
        # part1 shares every breakpoint of part0
        phi1 = phi0 + PLFunc.affine(box, rng.randint(-2, 2), rng.randint(-2, 2))
        kinds.add("shared breakpoints")
    else:
        phi1 = make()
    phi = phi0 + phi1
    lo, hi = box
    r = rng.random()
    if r < 0.08:
        phi = phi + PLFunc.constant(box, rng.choice((-1, 1, Fraction(1, 2))))
    elif r < 0.16:
        # off the sum inside the box only: a tent that is zero at both ends
        phi = phi + PLFunc.min_of_affines(box, [(1, -lo), (-1, hi)])
    elif r < 0.24:
        # off the sum on the right half only
        phi = phi + PLFunc.min_of_affines(box, [(0, 0), (-1, Fraction(lo + hi, 2))])
    elif r < 0.3:
        phi = make()
    elif r < 0.38:
        # one piece over all the parts' pieces: the chord of their sum
        phi = PLFunc(box, [phi.values[0], phi.values[-1]])
    return phi, phi0, phi1, kinds


def test_admissibility_walk_is_the_definition_on_random_triples():
    # seeded concave triples: lattice and non-lattice parts, Fraction
    # breakpoints, shared breakpoints, wrong sums and pieces on which both
    # parts have non-integral slopes; the walk's whole report is the
    # definition's, and mismatched domains are refused first, by both
    import random

    rng = random.Random(36)
    seen = dict.fromkeys(
        ("admissible", "not lattice", "wrong sum", "both non-integral", "shared breakpoints", "rational box"), 0
    )
    for _ in range(400):
        phi, phi0, phi1, kinds = _random_triple(rng)
        report = is_admissible(phi, phi0, phi1)
        assert report == admissible_by_definition(phi, phi0, phi1), (phi, phi0, phi1)
        for k in kinds:
            seen[k] += 1
        seen["admissible"] += report.admissible
        seen["not lattice"] += any("lattice" in v for v in report.violations)
        seen["wrong sum"] += any("sum" in v for v in report.violations)
        seen["both non-integral"] += any("non-integral" in v for v in report.violations)
    assert min(seen.values()) >= 30, seen
    moved = 0
    for _ in range(100):
        phi, phi0, phi1, _ = _random_triple(rng)
        lo, hi = phi.domain
        other = PLFunc.constant((lo, hi + rng.choice((1, Fraction(1, 2)))), 0)
        args = [phi, phi0, phi1]
        args[rng.randrange(3)] = other
        with pytest.raises(DomainMismatch) as got:
            is_admissible(*args)
        with pytest.raises(DomainMismatch) as want:
            admissible_by_definition(*args)
        assert str(got.value) == str(want.value)
        moved += 1
    assert moved == 100


def test_canonical_forms_and_dual_steps_of_the_sweep_are_pinned(monkeypatch):
    # every attempt of the c <= 12 sweep, both ways: the PL functions it
    # stores (divpoly._canonical_form calls) and the edges its dual walks
    # take (geom._dual_edges steps).  A change that builds one more PL
    # function or walks a dual twice moves a total
    from polymut import divpoly, geom

    runs = [(P, md) for abc in _coprime_triples(12) for P, md in _both_ways(fano.triangle_from_weights(abc))]
    forms, steps = [0], [0]
    canonical_form, dual_edges = divpoly._canonical_form, geom._dual_edges

    def counting_form(bs, vs):
        forms[0] += 1
        return canonical_form(bs, vs)

    def counting_edges(cyc):
        for edge in dual_edges(cyc):
            steps[0] += 1
            yield edge

    monkeypatch.setattr(divpoly, "_canonical_form", counting_form)
    monkeypatch.setattr(geom, "_dual_edges", counting_edges)
    certified = 0
    for P, md in runs:
        try:
            mutation_to_deformation(P, md)
            certified += 1
        except DomainError:
            pass
    assert (len(runs), certified) == (924, 339)
    assert (forms[0], steps[0]) == (3660, 3974)


def test_fraction_objects_of_the_sweep_are_pinned(monkeypatch):
    # the same c <= 12 sweep, both ways: every Fraction the deformation
    # pipeline builds, by its constructor or, where fractions has one, the
    # shortcut its arithmetic takes.  The affine moves, the reduction's
    # lines and min(t*u, 0) run on ints and one exact quotient each, and a
    # line is read only when a move of it is tried, so a change that puts
    # Fraction arithmetic back on them or reads lines never moved moves
    # the total
    import fractions

    runs = [(P, md) for abc in _coprime_triples(12) for P, md in _both_ways(fano.triangle_from_weights(abc))]
    made = [0]
    new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    if hasattr(fractions.Fraction, "_from_coprime_ints"):
        coprime = fractions.Fraction._from_coprime_ints.__func__

        @classmethod
        def counting_coprime(cls, numerator, denominator):
            made[0] += 1
            return coprime(cls, numerator, denominator)

        monkeypatch.setattr(fractions.Fraction, "_from_coprime_ints", counting_coprime)
    certified = 0
    for P, md in runs:
        try:
            mutation_to_deformation(P, md)
            certified += 1
        except DomainError:
            pass
    assert (len(runs), certified) == (924, 339)
    assert made[0] == 369


def test_vectors_of_the_sweep_are_pinned(monkeypatch):
    # the same c <= 12 sweep, both ways: every Vector2 the deformation
    # pipeline builds.  The normalizer and the normalized mutation come off
    # integer pairs, so a certificate builds one vector, its witness
    # translation, and a refused attempt none
    from polymut.geom import Vector2

    runs = [(P, md) for abc in _coprime_triples(12) for P, md in _both_ways(fano.triangle_from_weights(abc))]
    built = [0]
    real = Vector2.__init__

    def counting_init(v, x, y):
        built[0] += 1
        real(v, x, y)

    monkeypatch.setattr(Vector2, "__init__", counting_init)
    certified = 0
    for P, md in runs:
        try:
            mutation_to_deformation(P, md)
            certified += 1
        except DomainError:
            pass
    assert (len(runs), certified) == (924, 339)
    assert built[0] == certified == 339
