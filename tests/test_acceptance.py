"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success so the whole gate can be read off
a verbose run.  Runtime bounds are asserted where the criteria state them.
"""

import random
import time
from fractions import Fraction

import pytest

from polymut import fano
from polymut.deform import (
    Decomposition,
    FiberMismatch,
    general_fiber,
    is_admissible,
    is_weight_reducing,
    mutation_to_deformation,
    reduce_to_polygon,
)
from polymut.divpoly import INFINITY, PLFunc, from_polygon
from polymut.geom import (
    Polygon,
    Vector2,
    area,
    dilate,
    dual,
    lattice_equivalent,
    mat_apply,
)
from polymut.laurent import (
    LaurentPoly,
    MutationSpec,
    algebraic_mutate,
    derive_mutation_data,
    newton_polytope,
    parse,
    period_sequence,
    render,
)
from polymut.mutation import dual_map, factor_for, find_factors, mutate, mutation_graph
from conftest import P
from oracles import NotDivisible, lattice_points, minkowski_difference, minkowski_sum, predicted_mutation_weights


@pytest.fixture(scope="module")
def markov_graph():
    start = time.monotonic()
    g = mutation_graph(fano.triangle_from_weights((1, 1, 1)), 4)
    return g, time.monotonic() - start


def _edge_data(g):
    for e in g.edges:
        src = g.nodes[e.source].polygon
        yield src, factor_for(src, e.w, e.t)


def test_criterion_1_markov_chain_reproduction(markov_graph):
    g, elapsed = markov_graph
    expected = {tuple(a * a for a in t) for t in fano.markov_tree(4)}
    got = g.weight_triples()
    assert got == expected
    assert {(1, 1, 1), (1, 1, 4), (1, 4, 25), (4, 25, 841), (1, 25, 169)} <= got
    assert elapsed < 10.0
    print(f"PASS criterion 1: depth-4 graph nodes = squares of markov_tree(4) "
          f"({len(got)} classes in {elapsed:.2f}s)")


def test_deep_markov_graph():
    start = time.monotonic()
    g = mutation_graph(fano.triangle_from_weights((1, 1, 1)), 8)
    elapsed = time.monotonic() - start
    expected = {tuple(sorted(a * a for a in t)) for t in fano.markov_tree(8)}
    assert len(expected) == 129
    assert len(g.nodes) == 129
    assert g.weight_triples() == expected
    assert elapsed < 10.0
    print(f"PASS deep Markov graph: depth-8 graph nodes = squares of "
          f"markov_tree(8) ({len(g.nodes)} classes in {elapsed:.2f}s)")


def _constant_terms_by_convolution(terms, dmax):
    """Constant terms of f^0..f^dmax for integer coefficients by unpruned
    integer convolution."""
    out = [1]
    power = {(0, 0): 1}
    for _ in range(dmax):
        nxt = {}
        for (a, b), c in power.items():
            for (e, f), k in terms.items():
                nxt[(a + e, b + f)] = nxt.get((a + e, b + f), 0) + c * k
        power = nxt
        out.append(power.get((0, 0), 0))
    return out


def test_hexagon_period_speed():
    hexagon = {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1, (1, -1): 1, (-1, 1): 1}
    f = LaurentPoly(hexagon)
    start = time.monotonic()
    seq = period_sequence(f, 40)
    elapsed = time.monotonic() - start
    assert seq == _constant_terms_by_convolution(hexagon, 40)
    assert elapsed < 1.0
    print(f"PASS hexagon period: d=40 matches integer convolution in {elapsed:.2f}s")


def test_criterion_2_weight_formula(markov_graph):
    g, _ = markov_graph
    failures = 0
    checked = 0
    for src, md in _edge_data(g):
        Q = mutate(src, md)
        iso = max(range(3), key=lambda i: md.w.dot(src.vertices[i]))
        predicted = predicted_mutation_weights(fano.weights(src), iso)
        if sorted(fano.weights(Q)) != sorted(predicted):
            failures += 1
        checked += 1
    assert checked > 0 and failures == 0
    print(f"PASS criterion 2: weight formula exact on {checked} edges, 0 failures")


def test_criterion_3_diophantine_invariance(markov_graph):
    g, _ = markov_graph
    markov_class = fano.DiophantineClass(3, 1, (1, 1, 1))
    for n in g.nodes:
        assert fano.diophantine_class(n.weights) == markov_class
    # non-Markov chain seeded at (1, 2, 9)
    seed = (1, 2, 9)
    target = fano.DiophantineClass(4, 1, (1, 1, 2))
    seen = {seed}
    frontier = [seed]
    for _ in range(3):
        nxt = []
        for w in frontier:
            for i in range(3):
                try:
                    m = tuple(sorted(predicted_mutation_weights(w, i)))
                except NotDivisible:
                    continue
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    assert len(seen) >= 5
    for w in seen:
        assert fano.diophantine_class(w) == target
    print(f"PASS criterion 3: class (3, {{1,1,1}}) on {len(g.nodes)} Markov nodes; "
          f"class (4, {{1,1,2}}) on {len(seen)} nodes of the (1,2,9) chain")


def test_criterion_4_duality_commutation(markov_graph, p114_triangle):
    g, _ = markov_graph
    checked = 0
    for src, md in _edge_data(g):
        assert dual(dual_map(md, dual(src))) == mutate(src, md)
        checked += 1
    md = find_factors(p114_triangle, Vector2(0, -1))[0]
    img = dual_map(md, dual(p114_triangle))
    assert img == P((-3, -2), (0, 1), (3, 1))
    assert dual(img) == mutate(p114_triangle, md)
    print(f"PASS criterion 4: duality commutation exact on {checked} edges "
          f"and the explicit dual-image example")


def test_criterion_5_laurent_compatibility():
    start = time.monotonic()
    f = parse("y^-1 + x^-1*(1+x)^2*y^2")
    spec = MutationSpec("y", parse("1+x"))
    g = algebraic_mutate(f, spec)
    md, shear = derive_mutation_data(f, spec)
    assert shear == Vector2(0, 0)
    assert newton_polytope(g) == mutate(newton_polytope(f), md)
    assert period_sequence(f, 8) == period_sequence(g, 8)
    assert period_sequence(parse("x + y + x^-1*y^-1"), 6) == [1, 0, 0, 6, 0, 0, 90]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 5: algebraic mutation, Newton match and period "
          f"invariance in {elapsed:.3f}s")


def test_criterion_6_example_smoothing_branch(p2_triangle):
    dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
    assert dp.box == (Fraction(-6), Fraction(6))
    d = Decomposition(
        INFINITY,
        PLFunc.affine((-6, 6), Fraction(-1, 2), 0),
        PLFunc.min_of_affines((-6, 6), [(1, 1), (0, 1)]),
    )
    rep = is_admissible(dp.coefficient(INFINITY), d.part0, d.part1)
    assert rep.admissible
    red = reduce_to_polygon(general_fiber(dp, d))
    assert red.reducible
    target = dilate(P((-1, -1), (2, -1), (-1, 2)), 2)
    assert lattice_equivalent(red.polygon, target) is not None
    print("PASS criterion 6: box [-6,6]; slope -1/2 + {0,1} decomposition "
          "admissible; fiber equivalent to twice the dual plane polygon")


def test_criterion_7_example_non_q_gorenstein_branch(p114_triangle):
    dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
    phi = dp.coefficient(INFINITY)
    part0 = PLFunc.min_of_affines((-6, 6), [(Fraction(1, 2), 0), (0, 0)])
    d = Decomposition(INFINITY, part0, phi - part0)
    rep = is_admissible(phi, d.part0, d.part1)
    assert rep.admissible
    red = reduce_to_polygon(general_fiber(dp, d))
    assert red.reducible
    assert len(red.polygon.vertices) == 4
    assert area(red.polygon) == 18
    # a quadrilateral is not a fake plane: no weight triple, hence no
    # Diophantine class to share with the source
    in_class = len(red.polygon.vertices) == 3 and fano.diophantine_class(
        fano.weights(red.polygon)
    ) == fano.diophantine_class(fano.weights(p114_triangle))
    assert not in_class
    print("PASS criterion 7: {1/2,0}/{0,-1/2} decomposition admissible; fiber "
          "has 4 vertices and area 18; flagged not in class")


def test_criterion_8_corollary_predicate(markov_graph):
    g, _ = markov_graph
    certified = 0
    mismatched = 0
    for src, md in _edge_data(g):
        if is_weight_reducing(src, md):
            cert = mutation_to_deformation(src, md)
            assert cert.corollary.passed
            assert cert.corollary.clauses["part0_affine"]
            assert cert.corollary.clauses["part1_exactly_two_pieces"]
            assert cert.corollary.clauses["part1_integral_slopes"]
            assert cert.corollary.clauses["part1_has_zero_slope"]
            certified += 1
        else:
            # increasing edges cannot present the mutated plane as general
            # fiber (the smooth side is rigid); the pipeline must say so
            with pytest.raises(FiberMismatch):
                mutation_to_deformation(src, md)
            mismatched += 1
    assert certified > 0
    print(f"PASS criterion 8: corollary clauses hold for all {certified} "
          f"smoothing certificates; {mismatched} non-smoothing edges refused")


# --- criterion 9: randomized property suites --------------------------------

N_CASES = 1000


def _random_lattice_polygon(rng, span=5, n=7):
    return Polygon(
        [Vector2(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
    )


def _random_origin_polygon(rng):
    while True:
        Q = _random_lattice_polygon(rng)
        if Q.dim() == 2 and Q.contains_origin_interior():
            return Q


@pytest.fixture(scope="module")
def suite_clock():
    state = {"total": 0.0}
    return state


def _timed(state, fn):
    t0 = time.monotonic()
    fn()
    state["total"] += time.monotonic() - t0
    assert state["total"] < 60.0


def test_criterion_9a_dual_involution(suite_clock):
    rng = random.Random(101)

    def body():
        for _ in range(N_CASES):
            Q = _random_origin_polygon(rng)
            assert dual(dual(Q)) == Q

    _timed(suite_clock, body)
    print(f"PASS criterion 9a: dual involution on {N_CASES} random polygons")


def test_criterion_9b_hull_lattice_roundtrip(suite_clock):
    rng = random.Random(102)

    def body():
        for _ in range(N_CASES):
            Q = _random_lattice_polygon(rng)
            assert Polygon(lattice_points(Q)) == Q

    _timed(suite_clock, body)
    print(f"PASS criterion 9b: hull/lattice-point roundtrip on {N_CASES} polygons")


def test_criterion_9c_minkowski_adjunction(suite_clock):
    rng = random.Random(103)

    def body():
        for _ in range(N_CASES):
            A = _random_lattice_polygon(rng, span=4, n=6)
            F = _random_lattice_polygon(rng, span=2, n=4)
            D = minkowski_difference(minkowski_sum(A, F), F)
            assert D is not None
            assert all(D.contains(v) for v in A.vertices)

    _timed(suite_clock, body)
    print(f"PASS criterion 9c: Minkowski sum/difference adjunction on {N_CASES} pairs")


def test_criterion_9d_area_unimodular_invariance(suite_clock):
    rng = random.Random(104)
    mats = [
        ((1, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((0, -1), (1, 0)),
        ((2, 1), (1, 1)),
        ((1, 0), (-3, 1)),
        ((1, -1), (0, -1)),
    ]

    def body():
        for _ in range(N_CASES):
            Q = _random_lattice_polygon(rng)
            U = mats[rng.randrange(len(mats))]
            t = Vector2(rng.randint(-4, 4), rng.randint(-4, 4))
            assert area(Polygon([mat_apply(U, v) + t for v in Q.vertices])) == area(Q)

    _timed(suite_clock, body)
    print(f"PASS criterion 9d: area invariance under {N_CASES} unimodular maps")


def test_criterion_9e_parse_render_roundtrip(suite_clock):
    rng = random.Random(105)

    def body():
        for _ in range(N_CASES):
            terms = {}
            for _ in range(rng.randint(0, 7)):
                e = (rng.randint(-5, 5), rng.randint(-5, 5))
                c = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
                if c:
                    terms[e] = c
            f = LaurentPoly(terms)
            assert parse(render(f)) == f

    _timed(suite_clock, body)
    print(f"PASS criterion 9e: parse/render roundtrip on {N_CASES} polynomials "
          f"(suite total {suite_clock['total']:.1f}s < 60s)")
