import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from polymut import fano
from polymut.errors import DomainError
from polymut.fano import (
    MARKOV,
    VIETA_DEPTH_LIMIT,
    DiophantineClass,
    NotATriangle,
    NotFano,
    NotWellFormed,
    diophantine_class,
    is_fano,
    markov_tree,
    multiplicity,
    squarefree_part,
    triangle_from_weights,
    vieta_neighbors,
    vieta_tree,
    weights,
)
from polymut.geom import Vector2, area, dual, lattice_equivalent
from polymut.mutation import mutation_graph
from conftest import P
from oracles import NotDivisible, predicted_mutation_weights


class TestIsFano:
    def test_p2(self, p2_triangle):
        assert is_fano(p2_triangle)

    def test_imprimitive_vertex(self):
        assert not is_fano(P((2, 0), (0, 1), (-1, -1)))

    def test_origin_on_boundary(self):
        # origin is the midpoint of the edge (1,-1)-(-1,1)
        assert not is_fano(P((0, -1), (1, -1), (-1, 1)))


    def test_matches_its_definition_randomized(self):
        # the lattice-int gcd check against the definition: the origin
        # strictly inside and every vertex a primitive lattice point, on
        # non-lattice polygons, a zero vertex, the origin on an edge, points
        # and segments
        from polymut.geom import Polygon, is_primitive

        def definition(Q):
            return Q.dim() == 2 and Q.is_lattice() and Q.contains_origin_interior() and all(
                is_primitive(v) for v in Q.vertices
            )

        def coord(den):
            return Fraction(rng.randint(-4, 4), rng.choice(den))

        rng = random.Random(61)
        seen = {"fano": 0, "imprimitive": 0, "not lattice": 0, "zero vertex": 0, "origin on an edge": 0, "point": 0, "segment": 0}
        for trial in range(1500):
            kind = trial % 5
            den = (1, 1, 1, 2) if kind == 1 else (1,)
            pts = [Vector2(coord(den), coord(den)) for _ in range(rng.randint(1, 6))]
            if kind == 2:
                pts.append(Vector2(0, 0))
            elif kind == 3:
                p = pts[0]
                pts.append(p.scale(-rng.randint(1, 3)))
            elif kind == 4:
                pts = [pts[0].scale(k) for k in range(rng.randint(-2, 0), rng.randint(1, 3))]
            Q = Polygon(pts)
            got = is_fano(Q)
            assert got == definition(Q), Q
            seen["fano"] += got
            seen["imprimitive"] += Q.is_lattice() and Q.contains_origin_interior() and not got
            seen["not lattice"] += not Q.is_lattice()
            seen["zero vertex"] += Vector2(0, 0) in Q.vertices
            if Q.dim() < 2:
                seen["point" if Q.dim() == 0 else "segment"] += 1
            elif Vector2(0, 0) not in Q.vertices:
                seen["origin on an edge"] += Q.contains(Vector2(0, 0)) and not Q.contains_origin_interior()
        assert min(seen.values()) >= 30, seen


class TestWeights:
    def test_p2(self, p2_triangle):
        assert weights(p2_triangle) == (1, 1, 1)

    def test_p114(self, p114_triangle):
        # canonical vertex order (-1,2), (0,-1), (1,2)
        assert weights(p114_triangle) == (1, 4, 1)
        assert fano.weights_of_vertices(Vector2(0, -1), Vector2(1, 2), Vector2(-1, 2)) == (4, 1, 1)

    def test_231(self):
        got = fano.weights_of_vertices(Vector2(1, 0), Vector2(0, 1), Vector2(-2, -3))
        assert got == (2, 3, 1)

    def test_not_a_triangle(self):
        with pytest.raises(NotATriangle):
            weights(P((1, 0), (0, 1), (-1, 0), (0, -1)))

    def test_not_fano(self):
        with pytest.raises(NotFano):
            weights(P((2, 0), (0, 1), (-1, -1)))


class TestMultiplicity:
    def test_p2(self, p2_triangle):
        assert multiplicity(p2_triangle) == 1

    def test_weights_112_is_genuine(self):
        # the vertices generate the full lattice: (1,1)+(0,-1) = (1,0)
        assert multiplicity(P((1, 1), (-1, 1), (0, -1))) == 1

    def test_index_two(self):
        T = P((1, 0), (-1, 2), (-1, -2))
        assert multiplicity(T) == 2
        assert sorted(weights(T)) == [1, 1, 2]

    def test_index_three(self):
        # the quotient of the plane by a three-torsion point
        T = P((1, 1), (1, -2), (-2, 1))
        assert multiplicity(T) == 3
        assert weights(T) == (1, 1, 1)

    def test_p114(self, p114_triangle):
        assert multiplicity(p114_triangle) == 1


class TestTriangleFromWeights:
    def test_standard_plane(self, p2_triangle):
        T = triangle_from_weights((1, 1, 1))
        assert lattice_equivalent(T, p2_triangle) is not None

    def test_114_matches_example(self, p114_triangle):
        T = triangle_from_weights((1, 1, 4))
        assert sorted(weights(T)) == [1, 1, 4]
        assert multiplicity(T) == 1
        assert lattice_equivalent(T, p114_triangle) is not None

    def test_not_well_formed(self):
        with pytest.raises(NotWellFormed):
            triangle_from_weights((2, 2, 1))

    @pytest.mark.parametrize("w", [(True, 1, 1), (1, True, 2), (1, 2, True)], ids=["first", "second", "third"])
    def test_bool_weight_refused(self, w):
        # a bool passes math.gcd, but it is no exact rational
        with pytest.raises(DomainError, match="not an exact rational: True"):
            triangle_from_weights(w)

    def test_roundtrip_random_coprime(self):
        rng = random.Random(3)
        done = 0
        while done < 150:
            w = tuple(sorted(rng.randint(1, 100) for _ in range(3)))
            if (
                math.gcd(w[0], w[1]) != 1
                or math.gcd(w[0], w[2]) != 1
                or math.gcd(w[1], w[2]) != 1
            ):
                continue
            T = triangle_from_weights(w)
            assert sorted(weights(T)) == list(w)
            assert multiplicity(T) == 1
            done += 1


    def test_digest_of_every_coprime_triple_up_to_40(self):
        # the construction's unimodular rows come from geom.height_basis;
        # digest recorded before that change, so each triangle is unchanged
        from polymut.geom import polygon_to_json

        rows = []
        for c in range(1, 41):
            for b in range(1, c + 1):
                for a in range(1, b + 1):
                    if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                        T = triangle_from_weights((a, b, c))
                        rows.append([[a, b, c], polygon_to_json(T)])
        blob = json.dumps(rows, sort_keys=True).encode()
        assert len(rows) == 3008
        assert hashlib.sha256(blob).hexdigest() == (
            "6f0252d3c805b22772ccecb4bf4b884ff2be3a762e087950efe05c2fbfc994b7"
        )


class TestPredictedMutationWeights:
    def test_smoothing_of_p114(self):
        assert predicted_mutation_weights((4, 1, 1), 0) == (1, 1, 1)

    def test_markov_step(self):
        assert predicted_mutation_weights((1, 1, 4), 0) == (1, 4, 25)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            predicted_mutation_weights((2, 3, 5), 1)

    def test_markov_square_formula(self):
        for a, b, c in [(1, 1, 1), (1, 1, 2), (1, 2, 5), (2, 5, 29)]:
            got = predicted_mutation_weights((a * a, b * b, c * c), 0)
            assert got == (b * b, c * c, (3 * b * c - a) ** 2)


class TestDiophantineClass:
    def test_markov_class(self):
        got = diophantine_class((1, 1, 4))
        assert (got.m, got.k, got.c) == (3, 1, (1, 1, 1))

    def test_p2(self):
        assert diophantine_class((1, 1, 1)) == DiophantineClass(3, 1, (1, 1, 1))

    def test_value_semantics(self):
        # equal and hashed as the (m, k, c) triple, printed as a dataclass
        # would print it (vieta_neighbors quotes it in its error message)
        cls = diophantine_class((1, 2, 3))
        assert cls == DiophantineClass(6, 1, (1, 2, 3)) and cls != DiophantineClass(6, 1, (1, 1, 3))
        assert cls != (6, 1, (1, 2, 3))
        assert hash(cls) == hash((6, 1, (1, 2, 3)))
        assert len({cls, DiophantineClass(6, 1, (1, 2, 3))}) == 1
        assert repr(cls) == "DiophantineClass(m=6, k=1, c=(1, 2, 3))"
        assert cls.to_json() == {"m": 6, "k": 1, "c": [1, 2, 3]}
        with pytest.raises(AttributeError):
            cls.m = 7

    def test_129(self):
        got = diophantine_class((1, 2, 9))
        assert (got.m, got.k, got.c) == (4, 1, (1, 1, 2))

    def test_squarefree_part(self):
        assert squarefree_part(4) == (1, 2)
        assert squarefree_part(50) == (2, 5)
        assert squarefree_part(1) == (1, 1)
        assert squarefree_part(12) == (3, 2)

    def test_squarefree_part_against_square_root_trial_division(self):
        rng = random.Random(23)
        cases = list(range(1, 20000))
        cases += [rng.randrange(1, 10**10) for _ in range(300)]
        cases += [rng.randrange(2, 10**4) ** 2 * rng.randrange(1, 10**4) for _ in range(300)]
        for n in cases:
            assert squarefree_part(n) == _squarefree_by_trial_division(n), n

    def test_squarefree_part_of_large_cofactors(self):
        p, q = 1000000007, 998244353  # primes beyond the trial-division limit
        assert squarefree_part(p) == (p, 1)
        assert squarefree_part(12 * p * q) == (3 * p * q, 2)
        assert squarefree_part(5 * p * p) == (5, p)
        assert squarefree_part((2**61 - 1) ** 2) == (1, 2**61 - 1)

    def test_squarefree_part_of_a_small_multiple_of_a_wide_square(self):
        # c * x^2 with c squarefree in 2..10 is settled by one square root,
        # however far past the trial-division limit the primes of x lie;
        # another c still falls back to the bounded trial division
        x = 10000019 * 10000079 * 10000103
        for c in (2, 3, 5, 6, 7, 10):
            assert squarefree_part(c * x * x) == (c, x)
        with pytest.raises(DomainError, match="trial division"):
            squarefree_part(11 * x * x)

    def test_k2_eight_weight_past_the_trial_division_limit(self):
        # the weights (a^2, b^2, 2c^2) of a triangle of the K^2 = 8 family,
        # a^2 + b^2 + 2c^2 = 4abc; the last one used to need trial division
        # past the limit
        w = (551357361, 219438844249, 967913776088168931842)
        assert diophantine_class(w) == DiophantineClass(4, 1, (1, 1, 2))

    def test_squarefree_part_budget(self):
        # three primes past the limit: the cofactor is not settled by one
        # square root, and trial division would have to pass 2e6
        n = 10000019 * 10000079 * 10000103
        with pytest.raises(DomainError, match="trial division"):
            squarefree_part(n)

    def test_constant_under_predicted_mutation(self):
        seen = {(1, 2, 9)}
        frontier = [(1, 2, 9)]
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
        assert len(seen) > 4
        cls = diophantine_class((1, 2, 9))
        assert all(diophantine_class(w) == cls for w in seen)


class TestMarkov:
    def test_neighbors_of_origin(self):
        assert vieta_neighbors(MARKOV, (1, 1, 1)) == ((1, 1, 2),)

    def test_neighbors_112(self):
        assert vieta_neighbors(MARKOV, (1, 1, 2)) == ((1, 1, 1), (1, 2, 5))

    def test_neighbors_125(self):
        assert vieta_neighbors(MARKOV, (1, 2, 5)) == ((1, 1, 2), (1, 5, 13), (2, 5, 29))

    def test_tree_depths(self):
        assert markov_tree(0) == {(1, 1, 1)}
        assert markov_tree(2) == {(1, 1, 1), (1, 1, 2), (1, 2, 5)}
        assert markov_tree(3) == markov_tree(2) | {(2, 5, 29), (1, 5, 13)}

    def test_tree_members_satisfy_equation(self):
        for a, b, c in markov_tree(5):
            assert a * a + b * b + c * c == 3 * a * b * c


def _solution_weights(cls, x):
    return tuple(sorted(c * xi * xi for c, xi in zip(cls.c, x)))


class TestVietaTree:
    # Hacking-Prokhorov, Thm 1.2: the four families of K^2 = 9, 8, 6 and 5.
    # At each depth the triangle weights of the mutation graph of the root
    # are the weights c_i*x_i^2 of the Vieta tree of its class; the sizes
    # are those of the tree at depths 0..6
    @pytest.mark.parametrize(
        "w, cls, sizes",
        [
            ((1, 1, 1), DiophantineClass(3, 1, (1, 1, 1)), [1, 2, 3, 5, 9, 17, 33]),
            ((1, 1, 2), DiophantineClass(4, 1, (1, 1, 2)), [1, 2, 4, 8, 16, 32, 64]),
            ((1, 2, 3), DiophantineClass(6, 1, (1, 2, 3)), [1, 3, 7, 15, 31, 63, 127]),
            ((1, 4, 5), DiophantineClass(5, 1, (1, 1, 5)), [1, 3, 7, 15, 31, 63, 127]),
        ],
        ids=["P111", "P112", "P123", "P145"],
    )
    def test_hacking_prokhorov_families(self, w, cls, sizes):
        assert diophantine_class(w) == cls
        # the square roots of the weights, beside their squarefree parts
        root = tuple(x for _, x in sorted(squarefree_part(l) for l in w))
        T = triangle_from_weights(w)
        for d, size in enumerate(sizes):
            tree = vieta_tree(cls, root, d)
            assert len(tree) == size
            assert mutation_graph(T, d).weight_triples() == {_solution_weights(cls, x) for x in tree}
        for x in tree:  # every solution within depth 6
            assert min(x) > 0
            assert cls.m * x[0] * x[1] * x[2] == cls.k * sum(c * xi * xi for c, xi in zip(cls.c, x))
            # the steps are the mutations of the weights, and a step is
            # skipped exactly when the weight formula is not integral
            ws = tuple(c * xi * xi for c, xi in zip(cls.c, x))
            predicted = set()
            for i in range(3):
                try:
                    predicted.add(tuple(sorted(predicted_mutation_weights(ws, i))))
                except NotDivisible:
                    pass
            assert {_solution_weights(cls, y) for y in vieta_neighbors(cls, x)} == predicted

    def test_solution_order(self):
        # x_i stands beside c_i, sorted where the c_i are equal; a step that
        # meets a double root gives x itself back
        cls = DiophantineClass(5, 1, (1, 1, 5))
        assert vieta_tree(cls, (2, 1, 1), 0) == {(1, 2, 1)}
        assert vieta_neighbors(cls, (2, 1, 1)) == ((1, 2, 1), (1, 3, 1), (2, 9, 1))

    @pytest.mark.parametrize(
        "cls, x",
        [(MARKOV, (1, 1, 3)), (MARKOV, (0, 0, 0)), (MARKOV, (-1, -1, 1)), (DiophantineClass(6, 1, (1, 2, 3)), (1, 1, 2))],
    )
    def test_not_a_positive_solution(self, cls, x):
        with pytest.raises(DomainError, match="not a positive solution"):
            vieta_neighbors(cls, x)
        with pytest.raises(DomainError, match="not a positive solution"):
            vieta_tree(cls, x, 0)

    @pytest.mark.parametrize("depth", [True, False, 2.0], ids=["true", "false", "float"])
    def test_depth_that_is_no_int_refused(self, depth):
        # a bool is an int subclass, but True is no depth of 1
        for tree in (markov_tree, lambda d: vieta_tree(MARKOV, (1, 1, 1), d)):
            with pytest.raises(DomainError, match=f"depth must be an integer: {depth!r}"):
                tree(depth)

    def test_depth_budget(self):
        assert VIETA_DEPTH_LIMIT >= 16
        for depth in (-1, VIETA_DEPTH_LIMIT + 1, 10**100):
            with pytest.raises(DomainError, match="VIETA_DEPTH_LIMIT"):
                markov_tree(depth)


class TestAreaRelations:
    """The spec's stated relation fails on the standard plane already; the
    relations that do hold, verified on every generated example, are
    area(T) = mult * sum(w) / 2 and area(dual T) = sum(w)^2 / (2 prod mult)."""

    def test_exact_relations(self):
        samples = [
            triangle_from_weights(w)
            for w in [(1, 1, 1), (1, 1, 4), (1, 4, 25), (2, 3, 5), (1, 2, 9), (3, 4, 5)]
        ]
        samples.append(P((1, 0), (-1, 2), (-1, -2)))  # multiplicity 2
        samples.append(P((1, 1), (1, -2), (-2, 1)))  # multiplicity 3
        for T in samples:
            w = weights(T)
            m = multiplicity(T)
            assert area(T) == Fraction(m * sum(w), 2)
            assert area(dual(T)) == Fraction(sum(w) ** 2, 2 * w[0] * w[1] * w[2] * m)


def _squarefree_by_trial_division(n):
    """(c, x) with n = c * x^2 by trial division up to the square root of
    the cofactor.  Oracle for squarefree_part."""
    c, x, p, m = 1, 1, 2, n
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        c *= p ** (e % 2)
        x *= p ** (e // 2)
        p += 1
    return c * m, x
