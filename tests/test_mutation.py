import hashlib
import json
import math
import time
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from polymut import fano
from polymut.errors import DomainError
from polymut.geom import (
    Vector2,
    area,
    dual,
    height_basis,
    linear_equivalent,
)
from polymut.mutation import (
    GraphEdge,
    InvalidFactor,
    MutationData,
    NotPrimitive,
    dual_map,
    factor_directions,
    factor_for,
    find_factors,
    mutants,
    mutate,
    mutation_graph,
)
from conftest import P, random_unimodular
from oracles import inverse_data, predicted_mutation_weights


class TestFindFactors:
    def test_p114_down_direction(self, p114_triangle):
        mds = find_factors(p114_triangle, Vector2(0, -1))
        assert len(mds) == 1
        md = mds[0]
        assert md.t == 1
        assert md.f0 == Vector2(1, 0)

    def test_isolated_vertex_blocks_factor(self, p114_triangle):
        # h_min is attained at the single vertex (0,-1)
        assert find_factors(p114_triangle, Vector2(0, 1)) == []

    def test_p2_has_factors(self, p2_triangle):
        # the standard plane is not mutation-rigid: each edge normal works
        mds = find_factors(p2_triangle, Vector2(-1, -1))
        assert [md.t for md in mds] == [1]

    def test_not_primitive(self, p114_triangle):
        with pytest.raises(NotPrimitive):
            find_factors(p114_triangle, Vector2(0, -2))
        # factor_for refuses it at every length, the identity t = 0 included
        for w in (Vector2(0, -2), Vector2(0, 0)):
            for t in (0, 1):
                with pytest.raises(NotPrimitive):
                    factor_for(p114_triangle, w, t)

    def test_factor_is_a_polygon(self, p114_triangle):
        # F = conv(0, t*f0) is a segment, and the point 0 for t = 0
        md = factor_for(p114_triangle, Vector2(0, -1), 1)
        assert md.factor == P((0, 0), (1, 0))
        assert factor_for(p114_triangle, Vector2(0, -1), 0).factor.vertices == (Vector2(0, 0),)

    def test_not_fano(self):
        with pytest.raises(fano.NotFano):
            find_factors(P((2, 0), (0, 1), (-1, -1)), Vector2(0, 1))

    def test_factor_for_proves_fano_at_every_length(self):
        # factor_for runs mutate's check, so the identity t = 0 needs a Fano
        # polygon too; a non-primitive w is refused before the polygon is read
        Q = P((2, 0), (0, 1), (-1, -1))
        for t in (0, 1):
            with pytest.raises(fano.NotFano):
                factor_for(Q, Vector2(0, 1), t)
        with pytest.raises(NotPrimitive):
            factor_for(Q, Vector2(0, 2), 1)

    def test_factor_for_refuses_a_negative_length(self, p2_triangle):
        with pytest.raises(InvalidFactor, match="factor length must be nonnegative"):
            factor_for(p2_triangle, Vector2(0, -1), -1)

    def test_factor_for_matches_find_factors(self, p2_triangle, p114_triangle):
        # every length from 0 to one past t_max: the identity, each factor
        # find_factors lists, then InvalidFactor
        trapezoid = P((-2, 1), (2, 1), (1, -1), (-1, -1))
        for Q in (p2_triangle, p114_triangle, trapezoid):
            for w in factor_directions(Q):
                mds = find_factors(Q, w)
                assert factor_for(Q, w, 0) == MutationData(w, 0, height_basis(w)[0])
                for md in mds:
                    assert factor_for(Q, w, md.t) == md
                with pytest.raises(InvalidFactor, match="no factor of length"):
                    factor_for(Q, w, len(mds) + 1)

    def test_longer_factor(self):
        # a trapezoid whose top edge has lattice length 4 at height -1
        # admits factors of every length up to 4
        Q = P((-2, 1), (2, 1), (1, -1), (-1, -1))
        mds = find_factors(Q, Vector2(0, -1))
        assert [md.t for md in mds] == [1, 2, 3, 4]
        for md in mds:
            assert fano.is_fano(mutate(Q, md))


class TestMutate:
    def test_p114_to_p2(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        Q = mutate(p114_triangle, md)
        assert Q == P((-1, 2), (0, -1), (1, -1))
        assert fano.weights(Q) == (1, 1, 1)

    def test_identity_with_point_factor(self, p114_triangle):
        md0 = factor_for(p114_triangle, Vector2(0, -1), 0)
        assert mutate(p114_triangle, md0) == p114_triangle

    def test_involution_exact(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        Q = mutate(p114_triangle, md)
        back = mutate(Q, inverse_data(p114_triangle, md))
        assert back == p114_triangle

    def test_involution_up_to_equivalence_everywhere(self, p114_triangle):
        for w in factor_directions(p114_triangle):
            for md in find_factors(p114_triangle, w):
                Q = mutate(p114_triangle, md)
                back = mutate(Q, inverse_data(p114_triangle, md))
                assert back == p114_triangle

    def test_result_is_fano(self, p2_triangle):
        for w in factor_directions(p2_triangle):
            for md in find_factors(p2_triangle, w):
                assert fano.is_fano(mutate(p2_triangle, md))

    def test_too_long_factor_rejected(self):
        # the trapezoid's factors stop at t = 4, in either direction of f0
        Q = P((-2, 1), (2, 1), (1, -1), (-1, -1))
        w, f0 = Vector2(0, -1), Vector2(1, 0)
        assert mutate(Q, MutationData(w, 4, f0)) == mutate(Q, factor_for(Q, w, 4))
        for f in (f0, -f0):
            with pytest.raises(InvalidFactor):
                mutate(Q, MutationData(w, 5, f))

    @pytest.mark.parametrize(
        "w,t,f0,error,message",
        [
            ((0, -1), -1, (1, 0), InvalidFactor, "factor length must be nonnegative"),
            ((0, -1), 1, (1, 1), InvalidFactor, "lattice vector killed by w"),
            ((0, -1), 1, ("1/2", 0), InvalidFactor, "lattice vector killed by w"),
            ((0, -1), 1, (2, 0), InvalidFactor, "factor direction must be primitive"),
            ((0, -2), 1, (1, 0), NotPrimitive, "height function must be primitive"),
            ((0, -1), Fraction(1, 2), (1, 0), InvalidFactor, "factor length must be an integer: 1/2"),
            ((0, -1), Fraction(-1, 2), (1, 0), InvalidFactor, "factor length must be an integer: -1/2"),
            ((0, -1), 1.0, (1, 0), InvalidFactor, "factor length must be an integer: 1.0"),
            ((0, -1), 2.5, (1, 0), InvalidFactor, "factor length must be an integer: 2.5"),
        ],
        ids=[
            "negative-t", "f0-outside-kernel", "f0-not-integral", "f0-not-primitive", "w-not-primitive",
            "t-half", "t-negative-half", "t-float-integral", "t-float",
        ],
    )
    def test_mutation_data_refused(self, p114_triangle, w, t, f0, error, message):
        # each case changes one field of ((0,-1), 1, (1,0)), the factor
        # find_factors gives (test_p114_down_direction)
        md = MutationData(Vector2(*w), t, Vector2(*f0))
        for op in (mutate, inverse_data):
            with pytest.raises(error, match=message):
                op(p114_triangle, md)

    @pytest.mark.parametrize("t", [True, False])
    def test_boolean_factor_length_refused(self, p114_triangle, t):
        # a bool is an int to isinstance, but not an exact rational: mutate,
        # factor_for and the deformation pipeline refuse it first, with the
        # boundary's message, so no certificate or factor JSON holds a bool
        from polymut.deform import mutation_to_deformation

        w, f0 = Vector2(0, -1), Vector2(1, 0)
        for call in (
            lambda: mutate(p114_triangle, MutationData(w, t, f0)),
            lambda: factor_for(p114_triangle, w, t),
            lambda: mutation_to_deformation(p114_triangle, MutationData(w, t, f0)),
        ):
            with pytest.raises(InvalidFactor, match=f"^not an exact rational: {t}$"):
                call()

    def test_point_factor_takes_any_kernel_vector(self, p114_triangle):
        # f0 need be primitive only when t > 0; t = 0 is the identity
        md = MutationData(Vector2(0, -1), 0, Vector2(2, 0))
        assert mutate(p114_triangle, md) == p114_triangle
        assert inverse_data(p114_triangle, md) == MutationData(Vector2(0, 1), 0, Vector2(2, 0))

    def test_dual_area_preserved(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        Q = mutate(p114_triangle, md)
        assert area(dual(Q)) == area(dual(p114_triangle))

    def test_weights_match_prediction(self, p114_triangle):
        # the isolated vertex at positive height carries the replaced weight
        for w in factor_directions(p114_triangle):
            for md in find_factors(p114_triangle, w):
                Q = mutate(p114_triangle, md)
                wp = fano.weights(p114_triangle)
                iso = max(
                    range(3), key=lambda i: w.dot(p114_triangle.vertices[i])
                )
                predicted = predicted_mutation_weights(wp, iso)
                assert sorted(fano.weights(Q)) == sorted(predicted)


def _mutate_by_definition(P, md):
    """Straight transcription of the mutation hull using only the geometry
    of oracles.py: maximal slabs from Minkowski differences below zero,
    factor-fattened lattice slices above.  Oracle for the fast sweep."""
    from fractions import Fraction

    from polymut.geom import Polygon
    from oracles import height_range, lattice_slice, minkowski_difference, minkowski_sum

    lo, hi = height_range(P, md.w)
    pts = []
    F = md.factor
    for h in range(int(lo), int(hi) + 1):
        s = lattice_slice(P, md.w, h)
        if s is None:
            continue
        if h < 0:
            nF = Polygon([v.scale(-h) for v in F.vertices])
            G = minkowski_difference(s, nF)
            if G is None:
                continue
            pts.extend(G.vertices)
        else:
            hF = Polygon([v.scale(h) for v in F.vertices])
            pts.extend(minkowski_sum(s, hF).vertices)
    return Polygon(pts)


class TestMutateAgainstDefinition:
    def test_oracle_agreement_on_corpus(self, p114_triangle, p2_triangle):
        cases = [p114_triangle, p2_triangle, P((-2, 1), (2, 1), (1, -1), (-1, -1))]
        checked = 0
        for Q in cases:
            for w in factor_directions(Q):
                for md in find_factors(Q, w):
                    assert mutate(Q, md) == _mutate_by_definition(Q, md)
                    checked += 1
        assert checked >= 10

    def test_oracle_agreement_randomized(self):
        import random

        from polymut import fano
        from polymut.geom import Polygon, Vector2

        rng = random.Random(41)
        checked = 0
        while checked < 40:
            Q = Polygon(
                [Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
            )
            if not fano.is_fano(Q):
                continue
            for w in factor_directions(Q):
                for md in find_factors(Q, w):
                    assert mutate(Q, md) == _mutate_by_definition(Q, md)
                    checked += 1

    def test_oracle_agreement_on_graph_edges(self, p2_triangle):
        g = mutation_graph(p2_triangle, 4)
        for e in g.edges:
            src = g.nodes[e.source].polygon
            md = factor_for(src, e.w, e.t)
            assert mutate(src, md) == _mutate_by_definition(src, md)
        assert len(g.edges) == 15


class TestIntKernelAgainstDefinition:
    def test_every_factor_in_both_directions_randomized(self):
        # every factor of seeded random Fano polygons, along f0 = prof.f0
        # and along -prof.f0 (a negative signed length), and the identity
        # t = 0; the cases below must all occur among them
        import random

        from polymut.geom import Polygon

        rng = random.Random(61)
        seen = dict.fromkeys(("negative f0", "identity", "top edge in a height line", "one top vertex",
                              "vertex at h = 0", "bottom row cut to a point"), 0)
        while min(seen.values()) < 10:
            Q = Polygon([Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 7))])
            if not fano.is_fano(Q):
                continue
            for w in factor_directions(Q):
                hs = [w.dot(v) for v in Q.vertices]
                f0 = height_basis(w)[0]
                mds = [MutationData(w, 0, f0)] + [MutationData(w, md.t, f) for md in find_factors(Q, w) for f in (f0, -f0)]
                for md in mds:
                    assert mutate(Q, md) == _mutate_by_definition(Q, md), (Q, md)
                if len(mds) > 1:
                    seen["negative f0"] += 1
                    seen["top edge in a height line"] += hs.count(max(hs)) == 2
                    seen["one top vertex"] += hs.count(max(hs)) == 1
                    seen["vertex at h = 0"] += 0 in hs
                    # at t_max the lowest row may keep a single lattice point
                    last = mutate(Q, mds[-1])
                    seen["bottom row cut to a point"] += [w.dot(v) for v in last.vertices].count(min(hs)) == 1
                seen["identity"] += mutate(Q, mds[0]) == Q


def _find_factors_by_definition(P, w):
    """Per-t, per-height sweep of the factor definition using only the
    geometry of oracles.py.  For each t up to the lattice length of the lowest slice,
    every negative height gets the maximal slab G_h (its lattice slice cut
    short by (-h)t steps at the f0 end); t is valid when every height that
    carries vertices keeps a slab and G_h + (-h)F covers those vertices.
    Returns [(t, gh)].  Oracle for the closed form in find_factors, which
    must return the same t values."""
    from polymut.geom import Polygon, height_basis
    from oracles import height_range, lattice_slice

    f0, _, s = height_basis(w)
    lo = int(height_range(P, w)[0])
    out = []
    ks_lo = [s.dot(v) for v in lattice_slice(P, w, lo).vertices]
    for t in range(1, max(ks_lo) - min(ks_lo) + 1):
        gh = {}
        for h in range(lo, 0):
            sl = lattice_slice(P, w, h)
            ks = [s.dot(v) for v in P.vertices if w.dot(v) == h]
            if sl is None:
                gh[h] = None
                continue
            pa, pb = sorted((sl.vertices[0], sl.vertices[-1]), key=s.dot)
            a, b = s.dot(pa), s.dot(pb)
            hi = b + h * t
            if hi < a:
                if ks:
                    break
                gh[h] = None
                continue
            if ks and not (a <= min(ks) and max(ks) <= hi + (-h) * t):
                break
            gh[h] = Polygon([pa, pb + f0.scale(h * t)])
        else:
            out.append((t, gh))
    return out


def _assert_factors_match_definition(Q, w):
    got = [md.t for md in find_factors(Q, w)]
    assert got == [t for t, _ in _find_factors_by_definition(Q, w)]
    return len(got)


class TestFindFactorsAgainstDefinition:
    def test_oracle_agreement_randomized(self):
        import random

        from polymut.geom import Polygon, is_primitive

        box = [
            Vector2(p, q)
            for p in range(-2, 3)
            for q in range(-2, 3)
            if is_primitive(Vector2(p, q))
        ]
        rng = random.Random(43)
        polygons = found = 0
        while polygons < 60:
            Q = Polygon(
                [Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
            )
            if not fano.is_fano(Q):
                continue
            polygons += 1
            for w in set(factor_directions(Q)) | set(box):
                found += _assert_factors_match_definition(Q, w)
        assert found >= 40

    def test_oracle_agreement_on_graph_nodes(self, p2_triangle):
        g = mutation_graph(p2_triangle, 4)
        found = 0
        for n in g.nodes:
            for w in factor_directions(n.polygon):
                found += _assert_factors_match_definition(n.polygon, w)
        assert found >= len(g.edges)


def _assert_directions_complete(Q, r=3):
    """Brute-force box scan: no primitive w with entries in [-r, r] outside
    factor_directions(Q) admits a factor."""
    from polymut.geom import is_primitive

    dirs = set(factor_directions(Q))
    scanned = 0
    for p in range(-r, r + 1):
        for q in range(-r, r + 1):
            w = Vector2(p, q)
            if is_primitive(w) and w not in dirs:
                assert find_factors(Q, w) == [], (Q, w)
                scanned += 1
    return scanned


class TestFactorDirectionsComplete:
    def test_box_scan_randomized(self):
        import random

        from polymut.geom import Polygon

        rng = random.Random(43)
        polygons = 0
        while polygons < 60:
            Q = Polygon(
                [Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
            )
            if not fano.is_fano(Q):
                continue
            polygons += 1
            assert _assert_directions_complete(Q) > 0

    def test_box_scan_on_graph_nodes(self, p2_triangle):
        g = mutation_graph(p2_triangle, 4)
        for n in g.nodes:
            assert _assert_directions_complete(n.polygon) > 0


def _assert_rows_match_slices(Q, w):
    """_Profile(Q, w).rows holds exactly the vertex heights, and each row is
    the k-interval of the oracle lattice_slice in height_basis coordinates."""
    from polymut.geom import height_basis
    from polymut.mutation import _Profile
    from oracles import lattice_slice

    _, _, s = height_basis(w)
    rows = _Profile(_cycle(Q), (w.x, w.y)).rows
    assert set(rows) == {w.dot(v) for v in Q.vertices}
    for h, row in rows.items():
        ks = [s.dot(v) for v in lattice_slice(Q, w, h).vertices]
        assert row == (min(ks), max(ks)), (Q, w, h)
    return len(rows)


class TestProfileRows:
    def test_rows_match_lattice_slices_randomized(self):
        import random

        from polymut.geom import Polygon

        rng = random.Random(43)
        polygons = rows = 0
        while polygons < 60:
            Q = Polygon(
                [Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
            )
            if not fano.is_fano(Q):
                continue
            polygons += 1
            for w in factor_directions(Q):
                rows += _assert_rows_match_slices(Q, w)
        assert rows > 60

    def test_rows_match_lattice_slices_on_graph_nodes(self, p2_triangle):
        g = mutation_graph(p2_triangle, 4)
        for n in g.nodes:
            for w in factor_directions(n.polygon):
                _assert_rows_match_slices(n.polygon, w)

    def test_edge_in_the_kernel(self):
        # the bottom edge lies in a height line; its endpoints are the row
        Q = P((-2, -1), (3, -1), (0, 1))
        w = Vector2(0, 1)
        assert _assert_rows_match_slices(Q, w) == 2

    def test_non_lattice_crossings(self, p2_triangle):
        # at height 0 the edges cross at k = -1 and k = 1/2, so the row must
        # round the rational end inwards to the lattice point k = 0
        from polymut.geom import height_basis
        from oracles import _cut

        w = Vector2(0, 1)
        _, _, s = height_basis(w)
        ks = [s.dot(v) for v in _cut(p2_triangle, w, 0)]
        assert (min(ks), max(ks)) == (-1, Fraction(1, 2))
        assert _assert_rows_match_slices(p2_triangle, w) == 3


class TestDualMap:
    def test_p114_image(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        img = dual_map(md, dual(p114_triangle))
        assert img == P((-3, -2), (0, 1), (3, 1))

    def test_identity_on_positive_side(self):
        md = factor_for(P((0, -1), (1, 2), (-1, 2)), Vector2(0, -1), 1)
        Q = P((1, 1), (2, 1), (1, 3))  # lies where the minimizer is the origin
        assert dual_map(md, Q) == Q

    def test_duality_consistency(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        lhs = dual(dual_map(md, dual(p114_triangle)))
        assert lhs == mutate(p114_triangle, md)

    def test_area_preserved(self, p114_triangle):
        md = find_factors(p114_triangle, Vector2(0, -1))[0]
        img = dual_map(md, dual(p114_triangle))
        assert area(img) == area(dual(p114_triangle))


def _dual_map_by_definition(md, Q):
    """The dual map by its definition: Q is clipped to either side of
    <u, f0> = 0, each piece goes through its linear branch u -> u -
    u_min(u)*w (u_min = 0 where <u, t*f0> >= 0, else <u, t*f0>), and the
    image is the hull of both.  Oracle for the one-walk dual_map."""
    from polymut.geom import ORIGIN, Polygon
    from oracles import clip_halfplane

    f = md.f0.scale(md.t)
    pieces = []
    for n, fmin in ((f, ORIGIN), (-f, f)):
        loop = clip_halfplane(list(Q.vertices), n, 0)
        pieces.extend(u - md.w.scale(u.dot(fmin)) for u in loop)
    return Polygon(pieces)


def _coordinate_types(Q):
    return [(type(v.x), type(v.y)) for v in Q.vertices]


def _dual_map_cases():
    """200 seeded Fano polygons, the classes of P(1,2,3) at depth 3 and
    the fake plane P^2/Z_3."""
    import random

    from polymut.geom import Polygon

    rng = random.Random(47)
    cases = []
    while len(cases) < 200:
        Q = Polygon([Vector2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 7))])
        if fano.is_fano(Q):
            cases.append(Q)
    cases += [n.polygon for n in mutation_graph(fano.triangle_from_weights((1, 2, 3)), 3).nodes]
    return cases + [P(*P2_MOD_3)]


class TestDualMapAgainstDefinition:
    def test_every_factor(self):
        # the image of T* is the dual of the mutant, as the two-clip
        # definition gives it, with the same coordinate types
        checked = 0
        for T in _dual_map_cases():
            Tstar = dual(T)
            for md, Q in mutants(T):
                img = dual_map(md, Tstar)
                oracle = _dual_map_by_definition(md, Tstar)
                assert img == oracle == dual(Q), (T, md)
                assert _coordinate_types(img) == _coordinate_types(oracle)
                checked += 1
        assert checked >= 500

    def test_any_polygon(self):
        # dual_map takes any polygon: points, segments and polygons that
        # miss the origin or straddle the kernel line, with rational vertices
        import random

        from polymut.geom import Polygon

        rng = random.Random(53)
        factors = [md for T in (P((1, 0), (0, 1), (-1, -1)), P(*P2_MOD_3)) for w in factor_directions(T) for md in find_factors(T, w)]
        factors.append(MutationData(w=Vector2(2, 3), t=4, f0=Vector2(-3, 2)))
        # either kernel direction: the edge crossings where the map bends
        # outwards are on the other side of Q when f0 is negated
        factors += [MutationData(w=md.w, t=md.t, f0=-md.f0) for md in factors]
        for _ in range(300):
            pts = [
                Vector2(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))
            ]
            Q = Polygon(pts)
            md = rng.choice(factors)
            img = dual_map(md, Q)
            oracle = _dual_map_by_definition(md, Q)
            assert img == oracle, (md, Q)
            assert _coordinate_types(img) == _coordinate_types(oracle)


class TestMutants:
    def test_mutants_are_find_factors_and_mutate(self, monkeypatch):
        # 200 seeded Fano polygons and every node of the pinned graphs, each
        # from one Fano proof and one profile per edge normal with a nonzero
        # cap, the edges that hold a T-cone
        from polymut import mutation
        from oracles import t_cone_normals

        cases = _dual_map_cases()
        for weights, depth in (((1, 1, 1), 5), ((2, 3, 5), 4)):
            cases += [n.polygon for n in mutation_graph(fano.triangle_from_weights(weights), depth).nodes]
        calls = []
        real_profile, real_require_fano = mutation._Profile, mutation._require_fano
        monkeypatch.setattr(mutation, "_Profile", lambda vs, w: calls.append(Vector2(*w)) or real_profile(vs, w))
        monkeypatch.setattr(mutation, "_require_fano", lambda Q: calls.append(Q) or real_require_fano(Q))
        pairs = 0
        for T in cases:
            del calls[:]
            got = mutants(T)
            assert calls == [T, *t_cone_normals(T)]
            assert got == [(md, mutate(T, md)) for w in factor_directions(T) for md in find_factors(T, w)]
            assert all(_coordinate_types(Q) == [(int, int)] * len(Q.vertices) for _, Q in got)
            pairs += len(got)
        assert pairs >= 1000

    def test_mutants_refuse_as_find_factors_does(self):
        with pytest.raises(fano.NotFano):
            mutants(P((2, 0), (0, 1), (-1, -1)))

    def test_one_profile_and_one_fano_proof(self, monkeypatch):
        # one profile per edge normal with a nonzero cap: the slanted edges
        # have lattice length 1 at height 3, so they hold no T-cone
        from polymut import mutation
        from oracles import t_cone_normals

        profiles, proofs = [], []
        real_profile, real_require_fano = mutation._Profile, mutation._require_fano

        def counting_profile(vs, w):
            profiles.append(Vector2(*w))
            return real_profile(vs, w)

        def counting_require_fano(Q):
            proofs.append(Q)
            real_require_fano(Q)

        monkeypatch.setattr(mutation, "_Profile", counting_profile)
        monkeypatch.setattr(mutation, "_require_fano", counting_require_fano)
        T = P((-2, 1), (2, 1), (1, -1), (-1, -1))  # four factors along (0, -1)
        assert len(mutants(T)) == 4 + 2  # and two along (0, 1)
        assert profiles == [Vector2(0, -1), Vector2(0, 1)] == t_cone_normals(T) and proofs == [T]
        assert len(factor_directions(T)) == 4


class TestMutationGraph:
    def test_depth_zero(self, p114_triangle):
        g = mutation_graph(p114_triangle, 0)
        assert len(g.nodes) == 1 and len(g.edges) == 0

    @pytest.mark.parametrize("depth", [True, False, 2.0], ids=["true", "false", "float"])
    def test_depth_that_is_no_int_refused(self, p2_triangle, depth):
        # a bool is an int subclass, but True is no depth of 1
        with pytest.raises(DomainError, match=f"depth must be an integer: {depth!r}"):
            mutation_graph(p2_triangle, depth)

    def test_p114_depth_one(self, p114_triangle):
        g = mutation_graph(p114_triangle, 1)
        assert g.weight_triples() == {(1, 1, 4), (1, 1, 1), (1, 4, 25)}

    def test_p2_connects_to_p114(self, p2_triangle):
        # corrected from the spec sheet: the standard plane is not rigid
        g = mutation_graph(p2_triangle, 1)
        assert g.weight_triples() == {(1, 1, 1), (1, 1, 4)}
        assert len(g.edges) == 3

    def test_finite_class_stops_before_its_depth(self):
        # the mutation class of this (7, 11, 12) triangle is finite: from
        # depth 2 on it has 4 classes and 12 edges, so the breadth-first
        # loop ends early and depth 50 records only its depth differently
        T = P((-3, -2), (3, -2), (1, 3))
        g2, g50 = mutation_graph(T, 2), mutation_graph(T, 50)
        assert (len(g2.nodes), len(g2.edges)) == (4, 12)
        assert g50.weight_triples() == {(7, 11, 12), (7, 11, 27)}
        assert (g50.metadata["depth"], g2.metadata["depth"]) == (50, 2)
        assert (g50.nodes, g50.edges) == (g2.nodes, g2.edges)
        assert {**g50.metadata, "depth": 2} == g2.metadata

    def test_duality_commutation_along_graph(self, p2_triangle):
        g = mutation_graph(p2_triangle, 3)
        for e in g.edges:
            src = g.nodes[e.source].polygon
            md = factor_for(src, e.w, e.t)
            assert dual(dual_map(md, dual(src))) == mutate(src, md)

    def test_duality_and_involution_out_of_depth_five(self, p2_triangle):
        # every mutation of every depth-5 class, i.e. the edges of depth 6;
        # heights there span up to 4.9e7, too far for the definition oracle
        g = mutation_graph(p2_triangle, 5)
        checked = 0
        for n in g.nodes:
            src = n.polygon
            for w in factor_directions(src):
                for md in find_factors(src, w):
                    Q = mutate(src, md)
                    assert dual(dual_map(md, dual(src))) == Q
                    assert mutate(Q, inverse_data(src, md)) == src
                    checked += 1
        assert checked == 51

    def test_one_profile_per_direction_and_one_fano_proof_per_node(self, monkeypatch):
        # one profile per edge normal with a nonzero cap of each expanded node
        from polymut import mutation
        from oracles import t_cone_normals

        profiles, proofs = [], []
        real_profile, real_require_fano = mutation._Profile, mutation._require_fano

        def counting_profile(vs, w):
            profiles.append((P(*vs), Vector2(*w)))
            return real_profile(vs, w)

        def counting_require_fano(Q):
            proofs.append(Q)
            real_require_fano(Q)

        monkeypatch.setattr(mutation, "_Profile", counting_profile)
        monkeypatch.setattr(mutation, "_require_fano", counting_require_fano)
        g = mutation_graph(fano.triangle_from_weights((2, 3, 5)), 3)
        expanded = [g.nodes[i].polygon for i in sorted({e.source for e in g.edges})]
        # a mutant of a Fano polygon is Fano: every node inherits the root's proof
        assert proofs == [g.nodes[0].polygon]
        assert profiles == [(Q, w) for Q in expanded for w in t_cone_normals(Q)]

    def test_vectors_built_by_the_markov_graph(self, monkeypatch):
        # the factor walk runs on integer pairs, a polygon stores its cycle
        # and the mutations back are keyed by integer pairs: P^2 to depth 5
        # builds a Vector2 only for the w of each of the 27 directions with
        # a factor of its 9 expanded nodes
        built = []
        real, T = Vector2.__init__, fano.triangle_from_weights((1, 1, 1))
        monkeypatch.setattr(Vector2, "__init__", lambda v, x, y: built.append((x, y)) or real(v, x, y))
        g = mutation_graph(T, 5)
        assert (len(g.nodes), len(g.edges)) == (17, 27)
        assert len(built) == 27

    def test_mutant_cycles_are_integer(self, monkeypatch):
        # the mutant of a lattice polygon by a valid factor is a lattice
        # polygon: _mutant's cycle holds ints only, on the pinned graphs and
        # on 60 seeded Fano polygons by every factor, along f0 and along -f0
        import random

        from polymut import mutation

        real, seen = mutation._mutant, []

        def checked(prof, t):
            cyc = real(prof, t)
            assert all(type(c) is int for v in cyc for c in v), (prof.rows, t, cyc)
            seen.append(t)
            return cyc

        monkeypatch.setattr(mutation, "_mutant", checked)
        for weights, depth in [((1, 1, 1), 5), ((2, 3, 5), 4), ((1, 1, 1), 12), ((1, 4, 5), 4)]:
            mutation_graph(fano.triangle_from_weights(weights), depth)
        rng = random.Random(43)
        polygons = 0
        while polygons < 60:
            Q = P(*((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)))
            if not fano.is_fano(Q):
                continue
            polygons += 1
            for w in factor_directions(Q):
                for md in find_factors(Q, w):
                    mutate(Q, md)
                    mutate(Q, MutationData(w=md.w, t=md.t, f0=-md.f0))
        assert (sum(t > 0 for t in seen), sum(t < 0 for t in seen)) == (2874, 195)

    @pytest.mark.parametrize(
        "start,depth",
        [((1, 1, 1), 5), ((2, 3, 5), 4), ((1, 2, 3), 4), (((-1, -1), (2, -1), (-1, 2)), 4)],
        ids=["111-depth5", "235-depth4", "123-depth4", "p2-mod-3-depth4"],
    )
    def test_nodes_inherit_the_root_fano_proof(self, start, depth):
        # the graph proves only its root Fano and reads a triangle's weights
        # off its vertices; the definitions agree on every node
        g = mutation_graph(_start_polygon(start), depth)
        for n in g.nodes:
            Q = n.polygon
            assert fano.is_fano(Q)
            if len(Q.vertices) == 3:
                assert (n.weights, n.multiplicity) == (fano.weights(Q), fano.multiplicity(Q))
            else:
                assert (n.weights, n.multiplicity) == (None, None)

    @pytest.mark.parametrize(
        "weights,depth,n_mutants,n_searches",
        [
            ((2, 3, 5), 3, 87, 6),
            ((2, 3, 5), 4, 259, 20),
            ((1, 1, 1), 12, 2051, 3),
            ((1, 4, 5), 4, 350, 23),
        ],
        ids=["235-depth3", "235-depth4", "111-depth12", "145-depth4"],
    )
    def test_one_mutant_per_edge_not_leading_back_and_normal_forms_only_on_collisions(
        self, monkeypatch, weights, depth, n_mutants, n_searches
    ):
        # a mutation back along an edge whose mutant was built, registered
        # before the edge's target is expanded, is recorded without building
        # it, so the mutants built are the edges less those reverses; a
        # Polygon is built, from the mutant's canonical cycle and with no
        # second hull, only for a new class, and the class index searches
        # for a vertex map only where a mutant's cycle invariant is shared
        # by a class, once per class in that bucket until one matches
        from polymut import mutation

        mutants, searches, polygons = [], [], []
        real_mutant, real_maps, real_polygon = mutation._mutant, mutation._cycle_maps, mutation._polygon_from_cycle

        def counting_mutant(prof, t):
            mutants.append(t)
            return real_mutant(prof, t)

        def counting_maps(vp, vq):
            searches.append(vq)
            return real_maps(vp, vq)

        def counting_polygon(cyc):
            polygons.append(cyc)
            return real_polygon(cyc)

        monkeypatch.setattr(mutation, "_mutant", counting_mutant)
        monkeypatch.setattr(mutation, "_cycle_maps", counting_maps)
        monkeypatch.setattr(mutation, "_polygon_from_cycle", counting_polygon)
        g = mutation_graph(fano.triangle_from_weights(weights), depth)
        non_root_expanded = {e.source for e in g.edges} - {0}
        assert len(non_root_expanded) > 10
        monkeypatch.undo()
        reverses = _reverse_edges(g)
        assert len(reverses) >= len(non_root_expanded)
        assert len(mutants) == len(g.edges) - len(reverses) == n_mutants
        assert len(searches) == n_searches < n_mutants
        assert len(polygons) == len(g.nodes) - 1

    def test_class_budget(self, monkeypatch):
        # (2,3,5) at depth 2 has 19 classes: a budget of 19 holds them, one
        # less is a domain error naming the budget
        from polymut import mutation

        start = fano.triangle_from_weights((2, 3, 5))
        assert mutation.GRAPH_CLASS_LIMIT >= 3148  # the widest pinned graph
        monkeypatch.setattr(mutation, "GRAPH_CLASS_LIMIT", 19)
        assert len(mutation_graph(start, 2).nodes) == 19
        monkeypatch.setattr(mutation, "GRAPH_CLASS_LIMIT", 18)
        with pytest.raises(DomainError, match="GRAPH_CLASS_LIMIT = 18"):
            mutation_graph(start, 2)

    def test_nodes_deduplicated_by_linear_equivalence(self, p114_triangle):
        g = mutation_graph(p114_triangle, 2)
        for i, n in enumerate(g.nodes):
            for m in g.nodes[i + 1 :]:
                assert linear_equivalent(n.polygon, m.polygon) is None


class TestIntegralCoordinatesAreInts:
    # integral values are stored as int, not as boxed Fraction(n, 1)
    @staticmethod
    def _assert_int_vertices(Q):
        assert all(type(c) is int for v in Q.vertices for c in (v.x, v.y)), Q

    def test_graph_nodes(self, p2_triangle):
        for n in mutation_graph(p2_triangle, 5).nodes:
            self._assert_int_vertices(n.polygon)

    def test_deformation_certificate(self, p114_triangle):
        from polymut.deform import mutation_to_deformation

        cert = mutation_to_deformation(p114_triangle, find_factors(p114_triangle, Vector2(0, -1))[0])
        for Q in (cert.source, cert.normalized_source, cert.mutated, cert.fiber_polygon, cert.target):
            self._assert_int_vertices(Q)
        for dp in (cert.divpoly, cert.fiber_divpoly):
            for f in dp.coeffs.values():
                assert all(type(c) is int for c in f.breaks + f.values), f


def _find_class_pairwise(nodes, Q):
    """The class lookup mutation_graph made before normal forms: the first
    node with the same weights whose polygon is linearly equivalent to Q.
    Oracle for the class index."""
    wq = tuple(sorted(fano.weights(Q))) if len(Q.vertices) == 3 else None
    for i, n in enumerate(nodes):
        nw = tuple(sorted(n.weights)) if n.weights else None
        if nw == wq and (n.polygon == Q or linear_equivalent(n.polygon, Q) is not None):
            return i
    return None


def _graph_sha256(g):
    return hashlib.sha256(json.dumps(g.to_json(), sort_keys=True).encode()).hexdigest()


def _start_polygon(start):
    """The triangle of a weight triple, or the polygon of a vertex tuple."""
    if isinstance(start[0], int):
        return fano.triangle_from_weights(start)
    return P(*start)


# the fake weighted projective plane P^2/Z_3: the dual of the standard plane
P2_MOD_3 = ((-1, -1), (2, -1), (-1, 2))


class TestGraphClasses:
    @pytest.mark.parametrize(
        "start,depth",
        [((2, 3, 5), 3), ((1, 1, 1), 5), ((1, 1, 2), 4), ((1, 2, 3), 3), (P2_MOD_3, 3)],
        ids=["235-depth3", "111-depth5", "112-depth4", "123-depth3", "P2-mod-3-depth3"],
    )
    def test_normal_form_classes_match_pairwise_scan(self, start, depth):
        # every edge, the mutations back that the graph records without
        # building them included, must lead to the class of the mutant
        g = mutation_graph(_start_polygon(start), depth)
        # no node is equivalent to an earlier one ...
        for i, n in enumerate(g.nodes):
            assert _find_class_pairwise(g.nodes[: i + 1], n.polygon) == i
        # ... and every mutant of every expanded node gets the class index
        # the pairwise scan gives it
        edges = set(g.edges)
        expected = set()
        for src in {e.source for e in g.edges}:
            Psrc = g.nodes[src].polygon
            for w in factor_directions(Psrc):
                for md in find_factors(Psrc, w):
                    tgt = _find_class_pairwise(g.nodes, mutate(Psrc, md))
                    expected.add(GraphEdge(src, tgt, md.w, md.t))
        assert edges == expected
        assert len(edges) == len(g.edges)

    # sha256 of json.dumps(graph.to_json(), sort_keys=True): the first-found
    # representatives and the node and edge order are part of the output
    @pytest.mark.parametrize(
        "weights,depth,classes,n_edges,digest",
        [
            ((1, 1, 1), 3, 5, 9, "771236749906f1789aa4e2d2f48c14bb078e941b84e9ad01195278cd9a3ed2f2"),
            ((1, 1, 1), 5, 17, 27, "b00d7c214bf917929f6a6a5323b961fc7ae0192fdac9cf9fcac8e441574bed06"),
            ((2, 3, 5), 2, 19, 35, "68e5e5bff08e8339ef55e4659b360fd4ee8392a0fd95c18afb79765cf591f01c"),
            ((2, 3, 5), 4, 177, 371, "7228995a721ff7899a17e6b94a771f06ef5efa718a7e5e65ec30d45f4401fb5a"),
        ],
        ids=["111-depth3", "111-depth5", "235-depth2", "235-depth4"],
    )
    def test_graph_json_bytes_pinned(self, weights, depth, classes, n_edges, digest):
        g = mutation_graph(fano.triangle_from_weights(weights), depth)
        assert (len(g.nodes), len(g.edges)) == (classes, n_edges)
        assert _graph_sha256(g) == digest

    def test_wide_graph_depth_five(self):
        start = time.monotonic()
        g = mutation_graph(fano.triangle_from_weights((2, 3, 5)), 5)
        elapsed = time.monotonic() - start
        assert (len(g.nodes), len(g.edges)) == (588, 1239)
        assert _graph_sha256(g) == "828a7213cd0244c8ec2d3ad226ceb0188b90f64bada132205a8e32a064abeef8"
        assert elapsed < 5.0

    def test_wide_graph_p123_depth_six(self):
        # the K^2 = 6 family's start, wide rather than deep: 3,148 classes
        start = time.monotonic()
        g = mutation_graph(fano.triangle_from_weights((1, 2, 3)), 6)
        elapsed = time.monotonic() - start
        assert (len(g.nodes), len(g.edges)) == (3148, 4632)
        assert _graph_sha256(g) == "968a1d51e54b2444fa8e11a3a47e09cf46c4c375439f69a0f1eca0f12b75141a"
        assert elapsed < 15.0

    def test_markov_graph_p2_depth_twelve(self):
        # deep rather than wide: the Markov tree with coordinates of growing
        # size, where almost every mutant is a class no other shares an
        # invariant with
        start = time.monotonic()
        g = mutation_graph(fano.triangle_from_weights((1, 1, 1)), 12)
        elapsed = time.monotonic() - start
        assert (len(g.nodes), len(g.edges)) == (2049, 3075)
        assert _graph_sha256(g) == "e067bfd46dfd64acf9bc8113e6cb878efe129712bf704d34e777b8e36ba4bbb8"
        assert elapsed < 5.0

    def test_wide_graph_p145_depth_four(self):
        # classes that share a cycle invariant inside a graph: 83 vertex-map
        # searches place mutants whose invariant a class already has
        start = time.monotonic()
        g = mutation_graph(fano.triangle_from_weights((1, 4, 5)), 4)
        elapsed = time.monotonic() - start
        assert (len(g.nodes), len(g.edges)) == (269, 483)
        assert _graph_sha256(g) == "2b9e893d7fa269ac1199b8138883732b589dd4bca0d863098f9bc1dfd823a0bd"
        assert elapsed < 3.0


def _cycle(Q):
    return list(Q.cycle)


# two Fano quadrilaterals with equal cycle invariants, ((1,1),(1,1),(4,2),(4,4)),
# that lie in different classes
COLLIDING = (((-1, -2), (0, -1), (1, 2), (-1, 2)), ((-2, -1), (2, -1), (2, 1), (1, 1)))
# a Fano quadrilateral and its translate by (0, 2), also Fano, with equal
# cycle invariants ((5,1),(5,5),(11,1),(13,1)): lattice-equivalent, but in
# different classes, since the origin is pinned
TRANSLATES = (((-1, -4), (3, -1), (2, 3), (-1, 1)), ((-1, -2), (3, 1), (2, 5), (-1, 3)))


# the primitive lattice points of [-3, 3]^2, from which random Fano polygons
# are drawn
PRIMITIVE_POINTS = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]


class TestClassIndex:
    """mutation._ClassIndex against oracles.linear_normal_form, the arbiter
    of class identity."""

    @staticmethod
    def _classify(polygons):
        # each polygon's class, found as mutation_graph finds a mutant's:
        # the index reads the list of representatives, which the caller
        # grows by each new class's polygon
        from polymut.mutation import _ClassIndex
        from oracles import mat_image

        representatives = []
        index = _ClassIndex(representatives)
        out = []
        for Q in polygons:
            tgt, U = index.setdefault(Q.cycle, len(representatives))
            if tgt == len(representatives):
                representatives.append(Q)
            # the witness maps the representative's cycle onto the one looked up
            assert mat_image(U, representatives[tgt]).cycle == Q.cycle
            out.append(tgt)
        return out

    def test_colliding_pair_kept_apart(self):
        from polymut.geom import _cycle_invariant
        from oracles import linear_normal_form, mat_image

        A, B = (P(*vs) for vs in COLLIDING)
        assert _cycle_invariant(_cycle(A)) == _cycle_invariant(_cycle(B)) == ((1, 1), (1, 1), (4, 2), (4, 4))
        assert linear_normal_form(A) != linear_normal_form(B)
        U = ((2, 1), (1, 1))
        images = [mat_image(U, A), mat_image(U, B)]
        # the images are other cycles, so only a vertex map can place them
        assert {Q.vertices for Q in images}.isdisjoint({A.vertices, B.vertices})
        assert self._classify([A, B, *images, A]) == [0, 1, 0, 1, 0]
        assert self._classify([B, *images, A]) == [0, 1, 0, 1]

    def test_translates_with_one_invariant_kept_apart(self):
        # the witness must be a map with no translation: the affine maps
        # from A onto B are not one
        from polymut.geom import _cycle_invariant, lattice_equivalent
        from oracles import linear_normal_form, mat_image

        A, B = (P(*vs) for vs in TRANSLATES)
        assert _cycle_invariant(_cycle(A)) == _cycle_invariant(_cycle(B))
        assert fano.is_fano(A) and fano.is_fano(B)
        assert lattice_equivalent(A, B) is not None
        assert linear_normal_form(A) != linear_normal_form(B)
        U = ((1, 1), (1, 2))
        assert self._classify([A, B, mat_image(U, B), mat_image(U, A)]) == [0, 1, 1, 0]

    def test_classes_match_normal_forms_randomized(self):
        import random

        from polymut.geom import _cycle_invariant
        from oracles import linear_normal_form, mat_image

        rng = random.Random(53)
        pool = []
        for _ in range(4000):
            Q = P(*((rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))))
            if fano.is_fano(Q):
                pool += [Q, mat_image(random_unimodular(rng), Q)]
        rng.shuffle(pool)
        forms = [linear_normal_form(Q) for Q in pool]
        # the pool (722 polygons in 255 classes) holds 17 invariants that
        # more than one class shares
        by_invariant = {}
        for Q, form in zip(pool, forms):
            by_invariant.setdefault(_cycle_invariant(_cycle(Q)), set()).add(form)
        assert sum(len(f) > 1 for f in by_invariant.values()) >= 15
        classes = self._classify(pool)
        first = {}
        for form, c in zip(forms, classes):
            assert first.setdefault(form, c) == c
        assert len(set(classes)) == len(first)

    def test_one_bucket_two_classes_randomized(self):
        # seeded unimodular images of both polygons of COLLIDING share one
        # invariant bucket; the witness places each in the class that the
        # oracle's form gives it, whichever class was created first
        import random

        from polymut.geom import _cycle_invariant
        from oracles import linear_normal_form, mat_image

        rng = random.Random(59)
        A, B = (P(*vs) for vs in COLLIDING)
        pool = [mat_image(random_unimodular(rng), rng.choice((A, B))) for _ in range(80)]
        forms = [linear_normal_form(Q) for Q in pool]
        assert len({_cycle_invariant(_cycle(Q)) for Q in pool}) == 1
        assert set(forms) == {linear_normal_form(A), linear_normal_form(B)}
        assert len({Q.vertices for Q in pool}) >= 40
        classes = self._classify(pool)
        assert sorted(set(classes)) == [0, 1]
        assert len(set(zip(forms, classes))) == 2

    def test_graph_classes_match_normal_forms_p145_depth_four(self):
        # the one measured graph whose invariant buckets hold two classes:
        # no two nodes share an oracle form, and every edge, the mutations
        # back that the graph records without building them included, leads
        # to the node whose form its mutant has
        from collections import Counter

        from polymut.geom import _cycle_invariant
        from oracles import linear_normal_form

        g = mutation_graph(fano.triangle_from_weights((1, 4, 5)), 4)
        forms = [linear_normal_form(n.polygon) for n in g.nodes]
        assert len(set(forms)) == len(forms) == 269
        shared = Counter(_cycle_invariant(_cycle(n.polygon)) for n in g.nodes)
        assert sorted(shared.values())[-3:] == [1, 2, 2]
        _assert_edges_lead_to_their_mutants_forms(g, forms)

    @pytest.mark.parametrize("weights", [(2, 3, 5), (1, 2, 3)], ids=["235-depth4", "123-depth4"])
    def test_graph_edges_match_normal_forms_depth_four(self, weights):
        # the claimed graph_wide graph and a second one: every edge, built
        # or recorded as a mutation back, leads to its mutant's class
        from oracles import linear_normal_form

        g = mutation_graph(fano.triangle_from_weights(weights), 4)
        forms = [linear_normal_form(n.polygon) for n in g.nodes]
        assert len(set(forms)) == len(forms)
        _assert_edges_lead_to_their_mutants_forms(g, forms)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @hypothesis.given(st.lists(st.sampled_from(PRIMITIVE_POINTS), min_size=3, max_size=7, unique=True))
    def test_graph_edges_match_normal_forms_random_starts(self, points):
        # from a random Fano polygon to depth 2 the nodes are pairwise
        # inequivalent and every edge leads to its mutant's class; a Fano
        # polygon is the hull of its primitive vertices, so drawing only
        # primitive points loses none with vertices in [-3, 3]^2
        from oracles import linear_normal_form

        try:
            start = P(*points)
        except DomainError:  # collinear points make no polygon
            hypothesis.assume(False)
        hypothesis.assume(fano.is_fano(start))
        g = mutation_graph(start, 2)
        forms = [linear_normal_form(n.polygon) for n in g.nodes]
        assert len(set(forms)) == len(forms)
        _assert_edges_lead_to_their_mutants_forms(g, forms)


def _assert_edges_lead_to_their_mutants_forms(g, forms):
    """Every factor of every expanded node is one edge of g, leading to
    the node whose oracle form (forms[i] for node i) its mutant has."""
    from oracles import linear_normal_form

    target = {(e.source, e.w, e.t): e.target for e in g.edges}
    checked = 0
    for src in sorted({e.source for e in g.edges}):
        for md, Q in mutants(g.nodes[src].polygon):
            assert linear_normal_form(Q) == forms[target[src, md.w, md.t]]
            checked += 1
    assert checked == len(target) == len(g.edges)


def _reverse_edges(g):
    """The edges of g that mutation_graph records as mutations back, found
    by replaying its walk with the public API: each edge whose mutant is
    built, src -> tgt by (w, t) with tgt >= src, makes (tgt, -U^T w, t) a
    mutation back to src, U = linear_equivalent(rep(tgt), mutant), unless
    that key is already registered."""
    back, out = {}, []
    for e in g.edges:
        key = (e.source, e.w.x, e.w.y, e.t)
        if key in back:
            assert back[key] == e.target
            out.append(e)
            continue
        src_poly = g.nodes[e.source].polygon
        Q = mutate(src_poly, factor_for(src_poly, e.w, e.t))
        U = linear_equivalent(g.nodes[e.target].polygon, Q)
        assert U is not None
        if e.target >= e.source:
            (a, b), (c, d) = U
            back.setdefault((e.target, -a * e.w.x - c * e.w.y, -b * e.w.x - d * e.w.y, e.t), e.source)
    return out


# the graphs whose JSON the benchmark pins by digest, and (1, 2, 3) to depth 5
REFERENCE_GRAPHS = (((1, 1, 1), 5), ((1, 1, 1), 3), ((2, 3, 5), 4), ((2, 3, 5), 2), ((1, 2, 3), 5))


class TestEdgeByEdgeExpansion:
    """mutation._factor_walk expands a node edge by edge: a profile only for
    an edge normal whose edge holds a T-cone, and its rows from one crossing
    per vertex height, both against tests/oracles.py."""

    @staticmethod
    def _assert_rows_are_the_scan(Q, ws):
        # the rows, key order included, equal the per-height scan
        from polymut.mutation import _Profile
        from oracles import profile_rows

        for w in ws:
            assert list(_Profile(_cycle(Q), (w.x, w.y)).rows.items()) == list(profile_rows(Q, w).items()), (Q, w)
        return len(ws)

    @staticmethod
    def _assert_skipped_normals_have_no_factor(Q):
        # the edge normals that mutants(Q) builds no profile for
        from polymut import mutation

        profiled, real = [], mutation._Profile
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mutation, "_Profile", lambda vs, w: profiled.append(Vector2(*w)) or real(vs, w))
            mutants(Q)
        skipped = [w for w in factor_directions(Q) if w not in profiled]
        assert [find_factors(Q, w) for w in skipped] == [[]] * len(skipped), Q
        return len(skipped)

    def test_on_the_reference_graphs(self):
        rows = skipped = 0
        for weights, depth in REFERENCE_GRAPHS:
            for n in mutation_graph(fano.triangle_from_weights(weights), depth).nodes:
                rows += self._assert_rows_are_the_scan(n.polygon, factor_directions(n.polygon))
                skipped += self._assert_skipped_normals_have_no_factor(n.polygon)
        assert (rows, skipped) == (4463, 179)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @hypothesis.given(
        st.lists(st.sampled_from(PRIMITIVE_POINTS), min_size=3, max_size=7, unique=True),
        st.sampled_from(PRIMITIVE_POINTS),
    )
    def test_on_random_fano_polygons(self, points, w):
        # every edge normal, and one primitive w that need not be one, of a
        # random Fano polygon
        try:
            Q = P(*points)
        except DomainError:  # collinear points make no polygon
            hypothesis.assume(False)
        hypothesis.assume(fano.is_fano(Q))
        self._assert_rows_are_the_scan(Q, [*factor_directions(Q), Vector2(*w)])
        self._assert_skipped_normals_have_no_factor(Q)

    @pytest.mark.parametrize(
        "weights, depth, profiles, normals",
        [((2, 3, 5), 4, 189, 239), ((1, 1, 1), 5, 27, 27), ((1, 2, 3), 5, 856, 856), ((1, 4, 5), 4, 270, 270)],
    )
    def test_profiles_per_graph(self, monkeypatch, weights, depth, profiles, normals):
        # one profile per edge normal with a nonzero cap of each expanded
        # node, of all its edge normals: the 50 that (2, 3, 5) to depth 4
        # skips are the basket's 1/3(1, 1) cones, edges of length 1 at height 3
        from polymut import mutation
        from oracles import t_cone_normals

        built, real = [], mutation._Profile
        monkeypatch.setattr(mutation, "_Profile", lambda vs, w: built.append(w) or real(vs, w))
        g = mutation_graph(fano.triangle_from_weights(weights), depth)
        expanded = [g.nodes[i].polygon for i in sorted({e.source for e in g.edges})]
        assert len(built) == sum(len(t_cone_normals(Q)) for Q in expanded) == profiles
        assert sum(len(factor_directions(Q)) for Q in expanded) == normals
