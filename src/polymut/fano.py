"""Fano triangles, fake-plane weights, the mutation Diophantine invariant,
and the Vieta tree of solutions of each Diophantine class."""

from __future__ import annotations

import math

from .errors import DomainError
from .geom import Polygon, Rational, _height_frame, hull_of_pairs, qdiv

WeightTriple = tuple[int, int, int]
Solution = tuple[int, int, int]


class NotATriangle(DomainError):
    pass


class NotFano(DomainError):
    pass


class NotWellFormed(DomainError):
    pass


class DiophantineClass:
    """The equation m*x1*x2*x3 = k*(c1*x1^2 + c2*x2^2 + c3*x3^2) that the
    weights of a fake plane solve; c is the sorted squarefree-part multiset."""

    __slots__ = ("m", "k", "c")

    def __init__(self, m: int, k: int, c: tuple[int, int, int]):
        ok = type(m) is type(k) is int and m > 0 and k > 0 and type(c) is tuple and len(c) == 3
        if not (ok and all(type(ci) is int and ci > 0 for ci in c)):  # a bool is no int here
            raise DomainError(f"m and k must be positive integers and c a triple of them: {m!r}, {k!r}, {c!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)

    def __setattr__(self, *a):
        raise AttributeError("DiophantineClass is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not DiophantineClass:
            return NotImplemented
        return (self.m, self.k, self.c) == (other.m, other.k, other.c)

    def __hash__(self) -> int:
        return hash((self.m, self.k, self.c))

    def __repr__(self) -> str:
        return f"DiophantineClass(m={self.m!r}, k={self.k!r}, c={self.c!r})"

    def to_json(self) -> dict:
        return {"m": self.m, "k": self.k, "c": list(self.c)}


def is_fano(P: Polygon) -> bool:
    """Origin strictly interior and all vertices primitive lattice points."""
    return P.is_lattice() and P.contains_origin_interior() and all(math.gcd(x, y) == 1 for x, y in P.cycle)


def _weights_and_multiplicity(u1: tuple[int, int], u2: tuple[int, int], u3: tuple[int, int]) -> tuple[WeightTriple, int]:
    """The weights, in vertex order, and the multiplicity of the triangle
    with integer vertices u1, u2, u3, read off one set of 2x2 minors."""
    (x1, y1), (x2, y2), (x3, y3) = u1, u2, u3
    raw = (x2 * y3 - y2 * x3, x3 * y1 - y3 * x1, x1 * y2 - y1 * x2)
    if all(r < 0 for r in raw):
        raw = (-raw[0], -raw[1], -raw[2])
    if not all(r > 0 for r in raw):
        raise NotFano("vertices do not positively span the plane around the origin")
    g = math.gcd(*raw)
    return (raw[0] // g, raw[1] // g, raw[2] // g), g


def _triangle_cycle(T: Polygon) -> tuple[tuple[Rational, Rational], ...]:
    if len(T.cycle) != 3:
        raise NotATriangle(f"expected a triangle, got {len(T.cycle)} vertices")
    return T.cycle


def weights(T: Polygon) -> WeightTriple:
    """Weights of the fake plane of a Fano triangle, in canonical vertex order."""
    _triangle_cycle(T)
    if not is_fano(T):
        raise NotFano("weights are defined for Fano triangles only")
    return triangle_weights(T)


def triangle_weights(P: Polygon) -> WeightTriple | None:
    """The weights of P, a polygon already known to be Fano, read off its
    vertex cycle without proving it Fano again; None if it is no triangle."""
    return _weights_and_multiplicity(*P.cycle)[0] if len(P.cycle) == 3 else None


def multiplicity(T: Polygon) -> int:
    """Index of the sublattice generated by the three vertices.

    Equals the gcd of the three 2x2 vertex-pair determinants; the triangle
    presents a genuine weighted projective plane exactly when this is 1.
    """
    for x, y in _triangle_cycle(T):
        if x.denominator != 1 or y.denominator != 1:
            raise NotFano(f"triangle vertex is not a lattice point: ({x}, {y})")
    return _weights_and_multiplicity(*T.cycle)[1]


def _require_ints(ns) -> None:
    """Refuse an entry of ns that is not an int, a bool included."""
    for n in ns:
        if type(n) is not int:
            raise DomainError(f"not an exact rational: {n!r}")


def triangle_from_weights(w: WeightTriple) -> Polygon:
    """A Fano triangle with the given pairwise-coprime weights and
    multiplicity 1, built by completing the weight column to a basis of Z^3
    and projecting the standard basis along the complementary rows."""
    _require_ints(w)  # before any arithmetic: a bool passes math.gcd and min
    if len(w) != 3:
        raise DomainError(f"expected three weights: {w!r}")
    l1, l2, l3 = w
    if min(w) < 1:
        raise NotWellFormed("weights must be positive")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if math.gcd(w[i], w[j]) != 1:
            raise NotWellFormed(f"weights {w[i]} and {w[j]} share a factor")
    # <vw, (l1, l2)> = 1 and <f0, (l1, l2)> = 0 for the frame (f0, vw) of
    # the primitive (l1, l2), so the rows (vw, 0), (f0, 0) and (-l3*vw, 1)
    # form a unimodular matrix sending the weight column to e1; the last
    # two rows kill it, and their columns are the triangle's vertices.
    (fx, fy), (a, b) = _height_frame(l1, l2)
    T = hull_of_pairs([(fx, -l3 * a), (fy, -l3 * b), (0, 1)])
    got = _weights_and_multiplicity(*T.cycle) if len(T.cycle) == 3 and is_fano(T) else None
    if got is None or sorted(got[0]) != sorted(w) or got[1] != 1:  # pragma: no cover - sanity
        raise AssertionError(f"triangle construction failed for {w}: got {got}")
    return T


# Work budget of squarefree_part: trial division stops with DomainError once
# the divisor passes this bound while its cube is still at most the
# unfactored cofactor.  Every n below 8e18 is settled within 10^6 divisions.
SQUAREFREE_TRIAL_LIMIT = 2_000_000

# The squarefree c in 2..10, tried before trial division: n = c*x^2 is then
# settled by one division and one integer square root, whatever the size of
# x.  The weights of the four Hacking-Prokhorov families are all c*x^2 with
# c in {1, 2, 3, 5}, so none of them reaches the trial-division bound.
_SMALL_SQUAREFREE = (2, 3, 5, 6, 7, 10)


def squarefree_part(n: int) -> tuple[int, int]:
    """(c, x) with n = c * x^2 and c squarefree.

    A perfect square, such as a Markov weight, is (1, isqrt(n)) at once,
    and so is c times a square for c in _SMALL_SQUAREFREE: c is squarefree,
    so it is the squarefree part.  Otherwise trial division runs only while
    p^3 <= m for the unfactored cofactor m; then every prime factor of m
    exceeds its cube root, so m is 1, a prime, a product of two distinct
    primes (all squarefree) or a prime square, and one integer square root
    tells them apart.  Raises DomainError past SQUAREFREE_TRIAL_LIMIT.
    """
    _require_ints((n,))
    if n < 1:
        raise DomainError("squarefree part needs a positive integer")
    r = math.isqrt(n)
    if r * r == n:
        return 1, r
    for c in _SMALL_SQUAREFREE:
        if n % c == 0:
            r = math.isqrt(n // c)
            if r * r == n // c:
                return c, r
    c, x = 1, 1
    p = 2
    m = n
    while p * p * p <= m:
        if p > SQUAREFREE_TRIAL_LIMIT:
            raise DomainError(
                f"squarefree part of {n} needs trial division past {SQUAREFREE_TRIAL_LIMIT}"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e % 2:
                c *= p
            x *= p ** (e // 2)
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return c, x * r
    return c * m, x


def diophantine_class(w: WeightTriple) -> DiophantineClass:
    """Invariant of the relabelled-mutation chain through the weights w."""
    if len(w) != 3:
        raise DomainError(f"expected three weights: {w!r}")
    parts = [squarefree_part(l) for l in w]
    cs = tuple(sorted(c for c, _ in parts))
    xprod = 1
    for _, x in parts:
        xprod *= x
    mk = qdiv(sum(w), xprod)
    m, k = mk.numerator, mk.denominator
    # identity check: m*x1*x2*x3 == k*sum(ci*xi^2) by construction
    assert m * xprod == k * sum(c * x * x for c, x in parts)
    return DiophantineClass(m, k, cs)  # type: ignore[arg-type]


# Work budget of vieta_tree: a larger depth is refused before any work.
# The tree doubles with each level and its entries lengthen, so the output
# of `polymut markov --depth d` grows about 9-fold every two levels, to 17 MB
# at depth 16.
VIETA_DEPTH_LIMIT = 16
MARKOV = DiophantineClass(3, 1, (1, 1, 1))


def _ordered(c: tuple[int, int, int], x: Solution) -> Solution:
    """x with x_i beside c_i in the order of c, sorted where the c_i are equal."""
    return tuple(xi for _, xi in sorted(zip(c, x)))  # type: ignore[return-value]


def vieta_neighbors(cls: DiophantineClass, x: Solution) -> tuple[Solution, ...]:
    """The distinct solutions one Vieta step from x: step i sets x_i to the other
    root m*x_j*x_k/(k*c_i) - x_i if it is an integer (x itself at a double root)."""
    _require_ints(x)
    if len(x) != 3 or min(x) < 1 or cls.m * math.prod(x) != cls.k * sum(ci * xi * xi for ci, xi in zip(cls.c, x)):
        raise DomainError(f"not a positive solution of {cls}: {tuple(x)}")
    out = set()
    for i in range(3):
        q, r = divmod(cls.m * x[i - 1] * x[i - 2], cls.k * cls.c[i])
        if r == 0:
            out.add(_ordered(cls.c, (*x[:i], q - x[i], *x[i + 1 :])))
    return tuple(sorted(out))


def vieta_tree(cls: DiophantineClass, root: Solution, depth: int) -> set[Solution]:
    """All solutions reachable from root in at most `depth` Vieta steps."""
    if type(depth) is not int:  # a bool is an int subclass, but no depth
        raise DomainError(f"depth must be an integer: {depth!r}")
    if not 0 <= depth <= VIETA_DEPTH_LIMIT:
        raise DomainError(f"depth {depth} is not in 0..{VIETA_DEPTH_LIMIT}, the Vieta tree budget VIETA_DEPTH_LIMIT")
    vieta_neighbors(cls, root)  # refuses a root that is not a positive solution
    seen = frontier = {_ordered(cls.c, root)}
    for _ in range(depth):
        frontier = {y for x in frontier for y in vieta_neighbors(cls, x)} - seen
        seen |= frontier
    return seen


def markov_tree(depth: int) -> set[Solution]:
    """All sorted Markov triples within `depth` Vieta steps of (1, 1, 1)."""
    return vieta_tree(MARKOV, (1, 1, 1), depth)
