import math
import random
from fractions import Fraction

import pytest

from polymut.errors import DomainError
from polymut.geom import (
    ORIGIN,
    NotFullDimensional,
    NotLattice,
    OriginNotInterior,
    Polygon,
    Vector2,
    ZeroVector,
    area,
    dilate,
    dilated_dual,
    dual,
    height_basis,
    hull_of_pairs,
    is_primitive,
    lattice_equivalent,
    linear_equivalent,
    mat_apply,
    parse_vertices,
    polygon_from_json,
    polygon_to_json,
    primitivize,
    qdiv,
    to_fraction,
)
from conftest import P, random_unimodular
from oracles import (
    contains_strictly,
    cross,
    edges,
    dual_denominator,
    vertex_maps,
    extgcd,
    height_range,
    lattice_points,
    lattice_slice,
    linear_normal_form,
    minkowski_difference,
    minkowski_sum,
)


class TestExactRationals:
    def test_qdiv_matches_fraction_division(self):
        rng = random.Random(6)
        for _ in range(500):
            a, b = rng.randint(-30, 30), rng.choice([-1, 1]) * rng.randint(1, 30)
            if rng.random() < 0.5:
                a = Fraction(a, rng.randint(1, 9))
            if rng.random() < 0.5:
                b = Fraction(b, rng.randint(1, 9))
            q = qdiv(a, b)
            assert q == Fraction(a) / Fraction(b)
            assert type(q) is (int if Fraction(q).denominator == 1 else Fraction)

    def test_qdiv_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            qdiv(1, 0)
        with pytest.raises(ZeroDivisionError):
            qdiv(Fraction(1, 2), Fraction(0))

    @pytest.mark.parametrize("v", [3, Fraction(6, 2), "6/2"], ids=["int", "fraction", "str"])
    def test_to_fraction_integral_is_int(self, v):
        q = to_fraction(v)
        assert type(q) is int and q == 3

    def test_to_fraction_rational_and_invalid(self):
        q = to_fraction("1/2")
        assert type(q) is Fraction and q == Fraction(1, 2)
        with pytest.raises(DomainError):
            to_fraction("a")
        with pytest.raises(DomainError):
            to_fraction(0.5)

    @pytest.mark.parametrize(
        "v", ["1.5", "1e3", "1e1000000", " 1", "+1", "1_0", "\u0663", "1/0", "7" * 5000]
    )
    def test_to_fraction_refuses_strings_outside_the_schema_grammar(self, v):
        # only -?[0-9]+(/[0-9]+)? is read, so no string can ask for a huge
        # exponent; a zero denominator or an integer past the digit limit
        # is refused too
        with pytest.raises(DomainError):
            to_fraction(v)

    @pytest.mark.parametrize("v", [True, False, 1.0], ids=["true", "false", "integral-float"])
    def test_to_fraction_refuses_bool_and_float(self, v):
        # bool is an int subclass, but JSON true is no number
        with pytest.raises(DomainError, match="not an exact rational"):
            to_fraction(v)

    def test_vector_equality_ignores_boxing(self):
        v = Vector2(Fraction(3), 2)
        assert v == Vector2(3, 2) and hash(v) == hash(Vector2(3, 2))
        assert type(v.x) is int

    def test_trusted_vector_folds_integral_fractions(self):
        # Vector2(...) is the one constructor, trusted paths included: it
        # folds a computed integral Fraction and keeps any other Fraction
        # by identity
        half = Fraction(1, 2)
        v = Vector2(half + half, half)
        assert v == Vector2(1, half) and type(v.x) is int and v.y is half

    def test_vector_arithmetic_keeps_the_stored_form(self):
        # each result of geom's arithmetic must equal the constructor's
        # vector of the Fraction values, coordinate types included (halves
        # and thirds make integral sums and products)
        rng = random.Random(16)

        def q():
            return to_fraction(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])))

        def stored(v, x, y):
            return v == Vector2(x, y) and (type(v.x), type(v.y)) == (type(to_fraction(x)), type(to_fraction(y)))

        for _ in range(2000):
            u, v, r = Vector2(q(), q()), Vector2(q(), q()), q()
            U = ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3)))
            assert stored(u + v, Fraction(u.x) + v.x, Fraction(u.y) + v.y)
            assert stored(u - v, Fraction(u.x) - v.x, Fraction(u.y) - v.y)
            assert stored(-u, -Fraction(u.x), -Fraction(u.y))
            assert stored(u.scale(r), Fraction(r) * u.x, Fraction(r) * u.y)
            (a, b), (c, d) = U
            assert stored(mat_apply(U, u), Fraction(a) * u.x + b * u.y, Fraction(c) * u.x + d * u.y)

    def test_vector_value_semantics(self):
        # equal, hashed and ordered as the (x, y) pair, never equal to one
        rng = random.Random(17)
        vs = [Vector2(Fraction(rng.randint(-4, 4), rng.randint(1, 2)), rng.randint(-2, 2)) for _ in range(60)]
        assert sorted(vs) == sorted(vs, key=lambda v: (v.x, v.y))
        for u, v in zip(vs, vs[1:]):
            p, q = (u.x, u.y), (v.x, v.y)
            assert (u == v, u != v, u < v, u <= v, u > v, u >= v) == (p == q, p != q, p < q, p <= q, p > q, p >= q)
            assert hash(u) == hash(p)
        v = Vector2("1/2", -3)
        assert repr(v) == "(1/2, -3)" and v != (Fraction(1, 2), -3)
        with pytest.raises(TypeError):
            v < (0, 0)
        with pytest.raises(AttributeError):
            v.x = 0


def _assert_canonical_hull(vs, pts):
    """vs is the canonical hull of the points pts by its definition: input
    points, lex-least first, CCW with no collinear triple, every point on
    the inner side of every edge, and each coordinate an int when it is
    integral and a Fraction otherwise."""
    n = len(vs)
    assert set(vs) <= set(pts)
    assert vs[0] == min(pts)
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for v in vs for c in (v.x, v.y))
    if n == 1:
        assert set(pts) == {vs[0]}
    elif n == 2:
        a, b = vs
        assert b == max(pts) and all(cross(b - a, p - a) == 0 for p in pts)
    else:
        for i in range(n):
            a, b, c = vs[i], vs[(i + 1) % n], vs[(i + 2) % n]
            assert cross(b - a, c - b) > 0  # CCW, no collinear triple
            assert all(cross(b - a, p - a) >= 0 for p in pts)


class TestConvexHull:
    def test_interior_point_removed(self):
        got = Polygon(
            [Vector2(0, 0), Vector2(1, 0), Vector2(0, 1), Vector2(Fraction(1, 4), Fraction(1, 4))]
        )
        assert got == P((0, 0), (1, 0), (0, 1))

    def test_single_point(self):
        assert Polygon([Vector2(1, 1)]).vertices == (Vector2(1, 1),)

    def test_inner_origin_removed(self):
        got = Polygon([Vector2(0, -1), Vector2(1, 2), Vector2(-1, 2), Vector2(0, 0)])
        assert got == P((0, -1), (1, 2), (-1, 2))

    def test_collinear_collapses_to_segment(self):
        got = Polygon([Vector2(0, 0), Vector2(1, 1), Vector2(3, 3)])
        assert got.vertices == (Vector2(0, 0), Vector2(3, 3))

    def test_canonical_form(self):
        # CCW, lex-smallest first, no collinear triples
        got = P((2, 0), (0, 2), (1, 1), (0, 0), (2, 2))
        assert got.vertices == (Vector2(0, 0), Vector2(2, 0), Vector2(2, 2), Vector2(0, 2))

    def test_matches_a_brute_force_check_randomized(self):
        # int and Fraction coordinates, duplicates and collinear runs; the
        # oracle checks the definition of the canonical hull directly
        rng = random.Random(37)

        def coord():
            return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3)))

        shapes = {1: 0, 2: 0, 3: 0}
        for trial in range(400):
            pts = [Vector2(coord(), coord()) for _ in range(rng.randint(1, 9))]
            if trial % 2:  # a collinear run through one of the points
                p, d = pts[0], Vector2(rng.randint(-3, 3), rng.randint(-3, 3))
                pts += [p + d.scale(Fraction(k, 2)) for k in range(-4, 5)]
            pts += rng.sample(pts, rng.randint(0, len(pts)))  # duplicates
            rng.shuffle(pts)
            vs = Polygon(pts).vertices
            _assert_canonical_hull(vs, pts)
            shapes[min(len(vs), 3)] += 1
        assert min(shapes.values()) >= 10, shapes


class TestDual:
    def test_p2(self, p2_triangle):
        assert dual(p2_triangle) == P((2, -1), (-1, 2), (-1, -1))

    def test_p114_matches_paper(self, p114_triangle):
        assert dual(p114_triangle) == P((-3, 1), (3, 1), (0, Fraction(-1, 2)))

    def test_cross_polytope(self):
        sq = P((1, 0), (0, 1), (-1, 0), (0, -1))
        assert dual(sq) == P((1, 1), (-1, 1), (-1, -1), (1, -1))

    def test_involution(self, p2_triangle, p114_triangle):
        for T in (p2_triangle, p114_triangle, dual(p114_triangle)):
            assert dual(dual(T)) == T

    def test_origin_not_interior(self):
        with pytest.raises(OriginNotInterior):
            dual(P((1, 0), (0, 1), (2, 2)))


class TestMinkowski:
    def test_sum_of_segments_is_square(self):
        a = P((0, 0), (1, 0))
        b = P((0, 0), (0, 1))
        assert minkowski_sum(a, b) == P((0, 0), (1, 0), (0, 1), (1, 1))

    def test_sum_with_point_translates(self, p114_triangle):
        pt = Polygon([Vector2(2, 3)])
        assert minkowski_sum(p114_triangle, pt) == p114_triangle.translate(Vector2(2, 3))

    def test_sum_intervals_at_height(self):
        a = P((-1, 2), (1, 2))
        f = P((0, 0), (2, 0))
        assert minkowski_sum(a, f) == P((-1, 2), (3, 2))

    def test_difference_intervals(self):
        a = P((0, 5), (7, 5))
        f = P((0, 0), (3, 0))
        assert minkowski_difference(a, f) == P((0, 5), (4, 5))

    def test_difference_point_minus_segment_empty(self):
        assert minkowski_difference(Polygon([Vector2(1, 1)]), P((0, 0), (1, 0))) is None

    def test_difference_to_point(self):
        a = P((-1, 2), (1, 2))
        f = P((0, 0), (2, 0))
        assert minkowski_difference(a, f) == Polygon([Vector2(-1, 2)])

    def test_difference_full_dim(self):
        sq = P((0, 0), (4, 0), (4, 4), (0, 4))
        small = P((0, 0), (1, 0), (1, 1), (0, 1))
        assert minkowski_difference(sq, small) == P((0, 0), (3, 0), (3, 3), (0, 3))


class TestSlice:
    def test_point_slice(self, p114_triangle):
        got = lattice_slice(p114_triangle, Vector2(0, -1), -1)
        assert got == Polygon([Vector2(0, 1)])

    def test_edge_slice(self, p114_triangle):
        got = lattice_slice(p114_triangle, Vector2(0, -1), -2)
        assert got == P((-1, 2), (1, 2))

    def test_out_of_range(self, p114_triangle):
        assert lattice_slice(p114_triangle, Vector2(0, -1), 2) is None

    def test_rational_slice_without_lattice_points(self, p2_triangle):
        # at height 1 for w=(-1,-1) the rational slice misses the lattice
        assert lattice_slice(p2_triangle, Vector2(-1, -1), 1) is None


class TestHeightRange:
    def test_p114(self, p114_triangle):
        assert height_range(p114_triangle, Vector2(0, -1)) == (Fraction(-2), Fraction(1))

    def test_p2(self, p2_triangle):
        assert height_range(p2_triangle, Vector2(1, 1)) == (Fraction(-2), Fraction(1))

    def test_point(self):
        assert height_range(Polygon([Vector2(0, 0)]), Vector2(5, 7)) == (0, 0)


class TestLatticePoints:
    def test_unit_triangle(self):
        got = lattice_points(P((0, 0), (1, 0), (0, 1)))
        assert got == [Vector2(0, 0), Vector2(0, 1), Vector2(1, 0)]

    def test_square_nine_points(self):
        got = lattice_points(P((-1, -1), (1, -1), (-1, 1), (1, 1)))
        assert len(got) == 9

    def test_p114(self, p114_triangle):
        got = lattice_points(p114_triangle)
        assert got == [
            Vector2(-1, 2),
            Vector2(0, -1),
            Vector2(0, 0),
            Vector2(0, 1),
            Vector2(0, 2),
            Vector2(1, 2),
        ]

    def test_rational_polygon(self):
        got = lattice_points(P((0, 0), (Fraction(5, 2), 0), (0, Fraction(5, 2))))
        assert Vector2(2, 0) in got and Vector2(1, 1) in got and Vector2(2, 1) not in got


class TestLatticeEquivalent:
    def test_shear(self):
        a = P((0, 0), (1, 0), (0, 1))
        b = P((0, 0), (1, 0), (1, 1))
        assert lattice_equivalent(a, b) is not None

    def test_different_area(self):
        a = P((1, 0), (0, 1), (-1, -1))
        b = P((0, 0), (3, 0), (0, 3))
        assert lattice_equivalent(a, b) is None

    def test_doubled_p2_duals(self):
        a = P((-6, 5), (0, -1), (6, -1))
        b = P((-2, -2), (4, -2), (-2, 4))
        got = lattice_equivalent(a, b)
        assert got is not None
        U, t = got
        assert {mat_apply(U, v) + t for v in a.vertices} == set(b.vertices)

    def test_equivalence_relation(self):
        a = P((0, -1), (1, 2), (-1, 2))
        U = ((1, 3), (0, 1))
        b = Polygon([mat_apply(U, v) + Vector2(5, -2) for v in a.vertices])
        V = ((2, 1), (1, 1))
        c = Polygon([mat_apply(V, v) + Vector2(0, 4) for v in b.vertices])
        assert lattice_equivalent(a, a) is not None  # reflexive
        assert lattice_equivalent(b, a) is not None  # symmetric
        assert lattice_equivalent(a, c) is not None  # transitive

    def test_linear_variant_rejects_translates(self, p2_triangle):
        moved = p2_triangle.translate(Vector2(7, 0))
        assert linear_equivalent(p2_triangle, moved) is None
        assert lattice_equivalent(p2_triangle, moved) is not None


class TestVertexMaps:
    """The integer vertex-map search gives the maps of the Vector2 search
    it replaced (oracles.vertex_maps), all of them and in the same order."""

    def _same(self, A, B):
        from polymut.geom import _cycle_maps

        want = list(vertex_maps(A, B))
        assert all(type(c) is int for _, t in want for c in (t.x, t.y))
        got = list(_cycle_maps(A.cycle, B.cycle))
        assert got == [(U, (t.x, t.y)) for U, t in want], (A, B)
        assert lattice_equivalent(A, B) == next(iter(want), None)
        assert linear_equivalent(A, B) == next((U for U, t in want if t.is_zero()), None)
        return want

    def test_images_randomized(self):
        # each polygon against a random unimodular image of itself, moved,
        # and against itself, which lists every symmetry
        rng = random.Random(3203)
        counts = []
        for _ in range(300):
            A = _random_lattice_polygon(rng, span=4, n=rng.randint(3, 7))
            if A.dim() != 2:
                continue
            U, t = random_unimodular(rng), Vector2(rng.randint(-5, 5), rng.randint(-5, 5))
            B = Polygon([mat_apply(U, v) + t for v in A.vertices])
            assert self._same(A, B)
            counts.append(len(self._same(A, A)))
        assert len(counts) > 250 and max(counts) >= 4

    def test_symmetric_polygons(self):
        # every symmetry, in order: the square, the hexagon and P2
        for A, n in (
            (P((1, 0), (0, 1), (-1, 0), (0, -1)), 8),
            (P((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)), 12),
            (P((1, 0), (0, 1), (-1, -1)), 6),
        ):
            assert len(self._same(A, A)) == n

    def test_unequal_areas_and_vertex_counts(self):
        rng = random.Random(3209)
        seen = {"area": 0, "count": 0, "none": 0}
        for _ in range(300):
            A, B = (_random_lattice_polygon(rng, span=3, n=rng.randint(3, 6)) for _ in range(2))
            if A.dim() != 2 or B.dim() != 2:
                continue
            if len(A.vertices) != len(B.vertices):
                seen["count"] += 1
            elif area(A) != area(B):
                seen["area"] += 1
            seen["none"] += not self._same(A, B)
        assert min(seen.values()) > 20

    def test_refusals(self):
        from polymut.geom import NotLattice

        with pytest.raises(NotFullDimensional):
            lattice_equivalent(P((0, 0), (1, 0)), P((0, 0), (1, 0)))
        with pytest.raises(NotLattice):
            lattice_equivalent(P((0, 0), (1, 0), (0, 1)), P((0, 0), (Fraction(1, 2), 0), (0, 1)))


class TestArea:
    def test_unit_square(self):
        assert area(P((0, 0), (1, 0), (1, 1), (0, 1))) == 1

    def test_p114_dual(self):
        assert area(P((-3, 1), (3, 1), (0, Fraction(-1, 2)))) == Fraction(9, 2)

    def test_p2_dual(self):
        assert area(P((-1, -1), (2, -1), (-1, 2))) == Fraction(9, 2)

    def test_degenerate(self):
        assert area(P((0, 0), (5, 5))) == 0


class TestPrimitivize:
    @pytest.mark.parametrize(
        "v,expected",
        [((4, -6), (2, -3)), ((0, 5), (0, 1)), ((3, 7), (3, 7))],
    )
    def test_examples(self, v, expected):
        assert primitivize(Vector2(*v)) == Vector2(*expected)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            primitivize(Vector2(0, 0))

    @pytest.mark.parametrize("w", [(0, -2), (4, 6), (0, 0), ("1/2", 0)])
    def test_height_basis_refuses_non_primitive(self, w):
        # mutations are defined for primitive height functions only, and
        # height_basis is where that is decided
        from polymut import mutation
        from polymut.geom import NotPrimitive

        assert mutation.NotPrimitive is NotPrimitive
        with pytest.raises(NotPrimitive, match="height function must be primitive"):
            height_basis(Vector2(*w))


class TestJson:
    def test_roundtrip(self, p114_triangle):
        assert polygon_from_json(polygon_to_json(p114_triangle)) == p114_triangle

    def test_accepts_numbers_and_strings(self):
        obj = {"vertices": [[0, -1], ["1", 2], ["-1", "2"]]}
        assert polygon_from_json(obj) == P((0, -1), (1, 2), (-1, 2))

    @pytest.mark.parametrize("c", [True, 1.5], ids=["bool", "float"])
    def test_refuses_non_rational_coordinates(self, c):
        with pytest.raises(DomainError, match="not an exact rational"):
            polygon_from_json({"vertices": [[c, -1], [1, 2], [-1, 2]]})

    def test_parse_vertices_returns_exact_pairs_in_input_order(self):
        # ints stay ints, integral strings and Fractions fold to ints, and
        # the rest are reduced Fractions, as to_fraction stores them
        obj = {"vertices": [["4/2", "-3/6"], [Fraction(6, 3), 7], ["-5", Fraction(9, 6)], [2, "2"]]}
        got = parse_vertices(obj)
        assert got == [(2, Fraction(-1, 2)), (2, 7), (-5, Fraction(3, 2)), (2, 2)]
        assert [tuple(type(c) for c in p) for p in got] == [(int, Fraction), (int, int), (int, Fraction), (int, int)]
        assert all(c.denominator > 1 for p in got for c in p if type(c) is Fraction)

    def test_canonical_output(self):
        obj = polygon_to_json(P((0, Fraction(-1, 2)), (3, 1), (-3, 1)))
        assert obj == {"vertices": [["-3", "1"], ["0", "-1/2"], ["3", "1"]]}


def _random_lattice_polygon(rng, span=6, n=8):
    pts = [Vector2(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
    return Polygon(pts)


def test_hull_lattice_point_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(300):
        Q = _random_lattice_polygon(rng)
        assert Polygon(lattice_points(Q)) == Q


def test_lattice_points_and_slices_match_a_box_scan_randomized():
    """lattice_points(P) is every point of P's bounding box that P contains,
    and lattice_slice(P, w, h) is the hull of those at height h, on random
    rational polygons with 1 to 6 points, so points and segments included."""
    import math

    rng = random.Random(29)
    ws = [Vector2(1, 0), Vector2(0, -1), Vector2(1, 1), Vector2(-2, 3), Vector2(3, -1)]
    slices = 0
    for _ in range(150):
        Q = Polygon(
            [
                Vector2(Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))
            ]
        )
        xs = [v.x for v in Q.vertices]
        ys = [v.y for v in Q.vertices]
        pts = [
            Vector2(x, y)
            for x in range(math.floor(min(xs)), math.ceil(max(xs)) + 1)
            for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1)
            if Q.contains(Vector2(x, y))
        ]
        assert lattice_points(Q) == pts, Q
        for w in ws:
            lo, hi = height_range(Q, w)
            for h in range(math.floor(lo) - 1, math.ceil(hi) + 2):
                row = [p for p in pts if w.dot(p) == h]
                got = lattice_slice(Q, w, h)
                if not row:
                    assert got is None, (Q, w, h)
                    continue
                assert got == Polygon(row), (Q, w, h)
                slices += 1
    assert slices > 500


def test_area_unimodular_invariance_randomized():
    rng = random.Random(11)
    mats = [((1, 1), (0, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)), ((1, 0), (5, 1))]
    for _ in range(300):
        Q = _random_lattice_polygon(rng)
        U = mats[rng.randrange(len(mats))]
        t = Vector2(rng.randint(-3, 3), rng.randint(-3, 3))
        im = Polygon([mat_apply(U, v) + t for v in Q.vertices])
        assert area(im) == area(Q)


def test_minkowski_adjunction_randomized():
    rng = random.Random(13)
    for _ in range(300):
        A = _random_lattice_polygon(rng, span=4, n=6)
        F = _random_lattice_polygon(rng, span=2, n=4)
        S = minkowski_sum(A, F)
        D = minkowski_difference(S, F)
        assert D is not None
        # difference of the sum recovers at least A
        assert all(D.contains(v) for v in A.vertices)
        if F.dim() == 0:
            assert D == A


def test_minkowski_adjunction_equality_for_parallel_segments():
    A = P((1, 1), (4, 4))
    F = P((0, 0), (2, 2))
    assert minkowski_difference(minkowski_sum(A, F), F) == A


def _random_fano_polygons(rng, count, span=3):
    from polymut.fano import is_fano

    out = []
    while len(out) < count:
        Q = _random_lattice_polygon(rng, span=span, n=rng.randint(3, 6))
        if is_fano(Q):
            out.append(Q)
    return out


class TestLinearNormalForm:
    def test_invariant_and_exact_randomized(self):
        # linear_equivalent is the oracle: over every pair of a pool of random
        # Fano polygons and random GL2(Z) images of them, the normal forms are
        # equal exactly when a witness exists
        rng = random.Random(17)
        pool = []
        for Q in _random_fano_polygons(rng, 30):
            pool.append(Q)
            for _ in range(2):
                U = random_unimodular(rng)
                image = Polygon([mat_apply(U, v) for v in Q.vertices])
                assert linear_normal_form(image) == linear_normal_form(Q)
                pool.append(image)
        forms = [linear_normal_form(Q) for Q in pool]
        same = near_misses = 0
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                a, b = pool[i], pool[j]
                if len(a.vertices) != len(b.vertices) or area(a) != area(b):
                    assert forms[i] != forms[j]
                    continue
                U = linear_equivalent(a, b)
                equivalent = U is not None
                assert (forms[i] == forms[j]) == equivalent, (a, b)
                if equivalent:
                    assert Polygon([mat_apply(U, v) for v in a.vertices]) == b
                same += equivalent and a != b
                near_misses += not equivalent
        assert same >= 60 and near_misses >= 50

    def test_is_a_vertex_cycle_of_the_class(self):
        rng = random.Random(19)
        for Q in _random_fano_polygons(rng, 40):
            nf = linear_normal_form(Q)
            R = Polygon([Vector2(x, y) for x, y in nf])
            assert len(R.vertices) == len(nf)
            assert linear_equivalent(Q, R) is not None
            assert linear_normal_form(R) == nf

    def test_hermite_shape(self, p114_triangle):
        nf = linear_normal_form(p114_triangle)
        (g, zero), (above, pivot) = nf[0], nf[1]
        assert g > 0 and zero == 0 and pivot > 0 and 0 <= above < pivot

    def test_bezout_step(self):
        # the one Bezout step of the library returns Euclid's coefficients
        # exactly: on every small pair, zeros and signs included, and on
        # seeded pairs up to Markov width, with and without a common factor
        from polymut.geom import _bezout

        rng = random.Random(23)
        pairs = [(a, b) for a in range(-60, 61) for b in range(-60, 61) if (a, b) != (0, 0)]
        for _ in range(1200):
            g = rng.choice([1, 1, rng.randint(2, 10**6), rng.getrandbits(200) | 1])
            bits = rng.randint(1, 1300 - g.bit_length())
            a, b = (rng.choice([-1, 1]) * rng.getrandbits(bits) * g for _ in range(2))
            if (a, b) != (0, 0):
                pairs.append((a, b))
        for a, b in pairs:
            assert _bezout(a, b) == extgcd(a, b), (a, b)

    def test_linear_witness_where_the_first_vertex_match_translates(self):
        # a pair from a seeded search over random fake planes (weights
        # (13, 10, 7)): the first vertex match of lattice_equivalent has a
        # translation, yet a linear map exists and must be the witness
        T = P((-1, -5), (2, 3), (-1, 5))
        Q = P((-8, 7), (2, -3), (3, -1))
        _, t = lattice_equivalent(T, Q)
        assert not t.is_zero()
        U = linear_equivalent(T, Q)
        assert Polygon([mat_apply(U, v) for v in T.vertices]) == Q

    def test_translates_differ(self, p2_triangle):
        moved = p2_triangle.translate(Vector2(1, 0))
        assert linear_normal_form(moved) != linear_normal_form(p2_triangle)

    def test_needs_a_full_dimensional_lattice_polygon(self):
        with pytest.raises(NotFullDimensional):
            linear_normal_form(P((0, 0), (1, 1)))
        with pytest.raises(NotLattice):
            linear_normal_form(P((0, 0), (Fraction(1, 2), 0), (0, 1)))


def _integer_point_sets(rng):
    """Seeded integer point sets: random ones with repeats, collinear ones
    (repeats included), one point and two points."""
    sets = []
    for _ in range(300):
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 9))]
        sets.append(pts + rng.sample(pts, rng.randint(0, len(pts))))
    for _ in range(100):
        (a, b), (u, v) = (rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-2, 2), rng.randint(-2, 2))
        sets.append([(a + k * u, b + k * v) for k in (rng.randint(-3, 3) for _ in range(rng.randint(1, 6)))])
    sets += [[(2, -3)], [(0, 0)] * 3, [(1, 2), (-1, 5)], [(4, 4), (-4, -4), (4, 4)]]
    return sets


class TestIntegerKernels:
    def test_hull_of_pairs_is_the_polygon_cycle(self):
        from polymut.geom import _hull_pairs

        seen = {1: 0, 2: 0, 3: 0}
        for pts in _integer_point_sets(random.Random(29)):
            Q = Polygon([Vector2(x, y) for x, y in pts])
            cyc = _hull_pairs(pts)
            assert cyc == [(v.x, v.y) for v in Q.vertices], pts
            assert all(type(c) is int for p in cyc for c in p)
            seen[min(len(cyc), 3)] += 1
        assert min(seen.values()) >= 30, seen
        with pytest.raises(DomainError):
            _hull_pairs([])

    def test_normal_form_kernel_on_the_cycle(self):
        # from any start and in either orientation of the vertex cycle
        from oracles import _cycle_normal_form

        full = 0
        for pts in _integer_point_sets(random.Random(29)):
            Q = Polygon([Vector2(x, y) for x, y in pts])
            if Q.dim() < 2:
                continue
            full += 1
            vs = [(v.x, v.y) for v in Q.vertices]
            nf = linear_normal_form(Q)
            for i in range(len(vs)):
                assert _cycle_normal_form(vs[i:] + vs[:i]) == nf
                assert _cycle_normal_form((vs[i:] + vs[:i])[::-1]) == nf
        assert full >= 150


class TestCycleInvariant:
    def test_invariant_under_unimodular_maps_starts_and_reversal(self):
        # on the raw image cycle of each map, from every start and in both
        # orientations; so equal normal forms give equal invariants
        from polymut.geom import _cycle_invariant

        rng = random.Random(37)
        for Q in _random_fano_polygons(rng, 60) + [_random_lattice_polygon(rng) for _ in range(40)]:
            if Q.dim() < 2:
                continue
            inv = _cycle_invariant([v.as_ints() for v in Q.vertices])
            assert sum(d for d, _ in inv) == 2 * area(Q) or not Q.contains_origin_interior()
            for _ in range(3):
                U = random_unimodular(rng)
                vs = [mat_apply(U, v).as_ints() for v in Q.vertices]
                for i in range(len(vs)):
                    assert _cycle_invariant(vs[i:] + vs[:i]) == inv
                    assert _cycle_invariant((vs[i:] + vs[:i])[::-1]) == inv


class TestLatticeBasis:
    def test_hermite_basis_of_the_spanned_lattice(self):
        # (g1, h, g2) is fixed by three facts about the lattice L spanned
        # by the vectors: g1 is the gcd of their first coordinates, g1 * g2
        # is the gcd of their 2 x 2 minors (the index of L, 0 below rank
        # 2), and each vector is in Z(g1, h) + Z(0, g2); so the basis spans
        # L, and the reduction 0 <= h < g2 makes it the one Hermite form
        from itertools import combinations
        from math import gcd

        from polymut.geom import _lattice_basis

        rng = random.Random(41)
        for _ in range(500):
            shape = rng.choice(("plane", "line", "axis", "zero"))
            u = (rng.randint(-5, 5), rng.randint(-5, 5))
            vs = []
            for _ in range(rng.randint(0, 5)):
                k = rng.randint(-4, 4)
                vs.append(
                    {"plane": (rng.randint(-9, 9), rng.randint(-9, 9)), "line": (k * u[0], k * u[1]),
                     "axis": (0, rng.randint(-9, 9)), "zero": (0, 0)}[shape]
                )
            g1, h, g2 = _lattice_basis(vs)
            assert g1 == gcd(*(x for x, _ in vs))
            assert g1 * g2 == gcd(*(a[0] * b[1] - a[1] * b[0] for a, b in combinations(vs, 2)))
            assert 0 <= h < g2 or not g2
            if not g1:
                assert h == 0 and g2 == gcd(*(y for _, y in vs))
            for x, y in vs:
                a = x // g1 if g1 else 0
                assert a * g1 == x
                assert (y - a * h) % g2 == 0 if g2 else y == a * h
            shuffled = vs + [(vs[0][0] + vs[-1][0], vs[0][1] + vs[-1][1])] if vs else []
            rng.shuffle(shuffled)
            assert _lattice_basis(shuffled) == (g1, h, g2)


def _types(R):
    return [(type(v.x), type(v.y)) for v in R.vertices]


def _assert_is_hull_of(R, pts):
    """R is canonical and equals the convex hull of pts, coordinate types
    included (an int where the value is integral)."""
    H = Polygon(pts)
    assert R == Polygon(list(R.vertices)) == H
    assert _types(R) == _types(H)


def _dual_points(Q):
    # one point per edge, solved as the intersection of <u, a> = <u, b> = -1
    out = []
    for a, b in edges(Q):
        det = a.x * b.y - a.y * b.x
        out.append(Vector2(Fraction(a.y - b.y, det), Fraction(b.x - a.x, det)))
    return out


class TestCycleConstructor:
    """dual keeps the vertex cycle it is given and skips the hull, and
    dilate and translate hull the mapped cycle; the hull of the same points
    is the oracle."""

    RATIOS = (2, Fraction(1, 3), -1, Fraction(-5, 2))

    def _check(self, Q, rng):
        if Q.contains_origin_interior():
            D = dual(Q)
            _assert_is_hull_of(D, _dual_points(Q))
            _assert_is_hull_of(dual(D), _dual_points(D))
            assert dual(D) == Q
        for r in self.RATIOS:
            _assert_is_hull_of(dilate(Q, r), [v.scale(r) for v in Q.vertices])
        t = Vector2(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9))
        _assert_is_hull_of(Q.translate(t), [v + t for v in Q.vertices])

    def test_random_fano_polygons(self):
        rng = random.Random(23)
        for Q in _random_fano_polygons(rng, 120):
            self._check(Q, rng)
            self._check(dual(Q), rng)

    def test_mutation_graph_nodes(self):
        from polymut.fano import triangle_from_weights
        from polymut.mutation import mutation_graph

        rng = random.Random(29)
        g = mutation_graph(triangle_from_weights((1, 2, 3)), 4)
        assert len(g.nodes) > 10
        for node in g.nodes:
            self._check(node.polygon, rng)

    def test_points_segments_and_non_fano_polygons(self):
        rng = random.Random(31)
        for _ in range(200):
            Q = _random_lattice_polygon(rng, span=4, n=rng.randint(1, 5))
            self._check(Q, rng)

    def test_dilate_by_zero_is_one_point(self):
        for Q in (P((1, 0), (0, 1), (-1, -1)), P((1, 2), (3, 4)), P((5, 7))):
            assert dilate(Q, 0) == P((0, 0))
            assert dilate(Q, 0).vertices == (ORIGIN,)


def _random_rational(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def _random_point(rng):
    return Vector2(_random_rational(rng), _random_rational(rng))


def _origin_cases(rng):
    """A rational point set of 1 to 6 points, of a kind chosen to put the
    origin inside, outside, on an edge or at a vertex of its hull, or to
    make a point or a segment."""
    kind = rng.choice(["point", "segment", "edge", "vertex", "outside", "inside", "any"])
    if kind == "point":
        return [rng.choice([ORIGIN, _random_point(rng)])]
    if kind == "segment":
        a, d = rng.choice([ORIGIN, _random_point(rng)]), _random_point(rng)
        return [a + d.scale(_random_rational(rng)) for _ in range(rng.randint(2, 6))]
    if kind == "edge":
        p = _random_point(rng)
        q = p.scale(-Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        side = [x for x in (_random_point(rng) for _ in range(rng.randint(1, 4))) if cross(p, x) > 0]
        return [p, q] + side
    if kind == "vertex":
        return [ORIGIN] + [Vector2(_random_rational(rng), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
    if kind == "outside":
        return [Vector2(rng.randint(1, 4), _random_rational(rng)) for _ in range(rng.randint(1, 6))]
    if kind == "inside":
        # a point on each half-axis, so the origin is strictly inside
        a, b, c, d = (Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(4))
        extra = [_random_point(rng) for _ in range(rng.randint(0, 2))]
        return [Vector2(a, 0), Vector2(-b, 0), Vector2(0, c), Vector2(0, -d)] + extra
    return [_random_point(rng) for _ in range(rng.randint(1, 6))]


def test_origin_test_by_edge_determinants_matches_halfplanes():
    rng = random.Random(37)
    seen = {"point": 0, "segment": 0, "edge": 0, "vertex": 0, "outside": 0, "inside": 0}
    for _ in range(400):
        Q = Polygon(_origin_cases(rng))
        inside = contains_strictly(Q, ORIGIN)
        assert Q.contains_origin_interior() == inside
        if Q.dim() < 2:
            seen["point" if Q.dim() == 0 else "segment"] += 1
            with pytest.raises(NotFullDimensional, match="^dual needs a full-dimensional polygon$"):
                dual(Q)
            continue
        if inside:
            seen["inside"] += 1
            assert dual(dual(Q)) == Q
            continue
        if ORIGIN in Q.vertices:
            seen["vertex"] += 1
        elif Q.contains(ORIGIN):
            seen["edge"] += 1
        else:
            seen["outside"] += 1
        with pytest.raises(OriginNotInterior, match="^dual needs the origin strictly inside$"):
            dual(Q)
    assert min(seen.values()) >= 30, seen


def _denominator_lcm(P):
    # the automatic dilation as it was computed from the dual's coordinates
    out = 1
    for v in P.vertices:
        out = math.lcm(out, v.x.denominator, v.y.denominator)
    return out


class TestDilatedDual:
    """dilated_dual(P, r) is dilate(dual(P), r), and dual_denominator(P) the
    least common denominator of dual(P), read off P's edges in integers;
    the cycle kernels _dilated_dual and _dual_walk give the same from P's
    integer vertex cycle, started at any vertex."""

    RATIOS = (1, 2, 3, 12, 60, Fraction(1, 2), Fraction(3, 2), Fraction(7, 3))

    def _check(self, Q):
        from polymut.geom import _dilated_dual, _dual_walk

        Qstar = dual(Q)
        cyc = [(v.x, v.y) for v in Q.vertices]
        starts = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
        for r in self.RATIOS:
            got, want = dilated_dual(Q, r), dilate(Qstar, r)
            assert got == want and _types(got) == _types(want), (Q, r)
            pairs = [(v.x, v.y) for v in want.vertices]
            for c in starts:
                kernel = _dilated_dual(c, r)
                assert kernel == pairs and [(type(x), type(y)) for x, y in kernel] == _types(want), (Q, r)
        a = dual_denominator(Q)
        assert type(a) is int and a == _denominator_lcm(Qstar), Q
        assert all(_dual_walk(c) == (a, _dilated_dual(c, a)) for c in starts), Q
        assert dilated_dual(Q, a).is_lattice()
        assert all(not dilated_dual(Q, b).is_lattice() for b in range(1, a) if a % b == 0)

    def test_random_fano_polygons(self):
        rng = random.Random(41)
        for Q in _random_fano_polygons(rng, 200, span=5):
            self._check(Q)

    def test_mutation_graph_nodes(self):
        from polymut.fano import triangle_from_weights
        from polymut.mutation import mutation_graph

        g = mutation_graph(triangle_from_weights((1, 2, 3)), 3)
        assert len(g.nodes) == 58
        denominators = set()
        for node in g.nodes:
            self._check(node.polygon)
            denominators.add(dual_denominator(node.polygon))
        assert len(denominators) > 5

    def test_refusals(self):
        with pytest.raises(NotFullDimensional, match="^dual needs a full-dimensional polygon$"):
            dual_denominator(P((1, 0), (-1, 0)))
        with pytest.raises(OriginNotInterior, match="^dual needs the origin strictly inside$"):
            dual_denominator(P((0, 0), (1, 0), (0, 1)))
        with pytest.raises(NotLattice):
            dual_denominator(Polygon([Vector2(Fraction(1, 2), 0), Vector2(0, 1), Vector2(-1, -1)]))
        with pytest.raises(OriginNotInterior, match="^dual needs the origin strictly inside$"):
            dilated_dual(P((1, 0), (2, 0), (1, 1)), 2)
        from polymut.geom import _dilated_dual, _dual_walk

        for kernel in (_dual_walk, lambda c: _dilated_dual(c, 2)):
            with pytest.raises(OriginNotInterior, match="^dual needs the origin strictly inside$"):
                kernel([(0, 0), (1, 0), (0, 1)])
        for r in (0, -1, Fraction(-1, 2)):
            with pytest.raises(DomainError, match="must be positive"):
                dilated_dual(P((1, 0), (0, 1), (-1, -1)), r)


class TestHullOfPairs:
    """hull_of_pairs hulls integers scaled by the common denominator, and
    Polygon runs it; the oracle is the definition of the canonical hull,
    types included, which shares no code with it."""

    def test_random_rational_pairs(self):
        rng = random.Random(47)
        scaled = 0
        for _ in range(600):
            pts = _origin_cases(rng)
            pairs = [(v.x, v.y) for v in pts]
            if rng.random() < 0.2:
                # an integral value computed as a Fraction, as 1/2 + 1/2 is
                pairs = [(Fraction(x) + Fraction(1, 2) - Fraction(1, 2), y) for x, y in pairs]
            _assert_canonical_hull(hull_of_pairs(pairs).vertices, pts)
            scaled += any(type(c) is Fraction and c.denominator > 1 for p in pairs for c in p)
        assert scaled > 300

    def test_dilate_and_translate_equal_the_polygon_of_the_mapped_vertices(self):
        # dilate(Q, r) and Q.translate(t) hull the mapped cycle, so they
        # equal Polygon(...) of the mapped vertex vectors, coordinate types
        # included: an integral product or sum of Fractions is an int
        rng = random.Random(59)
        cases = [Polygon(_origin_cases(rng)) for _ in range(300)] + _random_fano_polygons(rng, 100)
        seen = {1: 0, 2: 0, 3: 0, "rational": 0}
        for Q in cases:
            for r in (2, Fraction(3, 2), -1, Fraction(-2, 3), 0):
                got, want = dilate(Q, r), Polygon([v.scale(r) for v in Q.vertices])
                assert got == want and _types(got) == _types(want), (Q, r)
            t = Vector2(_random_rational(rng), _random_rational(rng))
            got, want = Q.translate(t), Polygon([v + t for v in Q.vertices])
            assert got == want and _types(got) == _types(want), (Q, t)
            seen[min(len(Q.cycle), 3)] += 1
            seen["rational"] += not Q.is_lattice()
        assert min(seen.values()) >= 30, seen

    def test_empty_point_set_refused(self):
        with pytest.raises(DomainError, match="empty point set"):
            hull_of_pairs([])
