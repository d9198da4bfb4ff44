import pytest

from polymut.geom import Polygon, Vector2


def P(*coords):
    """Polygon from (x, y) pairs."""
    return Polygon([Vector2(x, y) for x, y in coords])


def _mat_mul(U, V):
    (a, b), (c, d) = U
    (e, f), (g, h) = V
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def random_unimodular(rng):
    """A seeded random matrix of GL2(Z): a product of up to four shears,
    swaps and reflections."""
    U = ((1, 0), (0, 1))
    for _ in range(rng.randint(0, 4)):
        k = rng.randint(-3, 3)
        U = _mat_mul(rng.choice([((1, k), (0, 1)), ((1, 0), (k, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))]), U)
    return U


@pytest.fixture
def p2_triangle():
    return P((1, 0), (0, 1), (-1, -1))


@pytest.fixture
def p114_triangle():
    return P((0, -1), (1, 2), (-1, 2))
