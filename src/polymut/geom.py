"""Exact 2D lattice geometry over the rationals.

Coordinates are exact rationals: an `int` when the value is integral, a
`fractions.Fraction` otherwise, and never a float.  The one division is
`qdiv`, which returns an `int` for an integral quotient.  Every predicate
is exact, so results compare with ``==``.  Vectors and polygons are
immutable values and safe to share between threads.

Values are coerced once, where they come in: `Vector2(x, y)`, `dilate`
and the JSON reader `parse_vertices`, which returns exact (x, y) pairs,
run `to_fraction`.  `Vector2(x, y)` is the one vector constructor: on an
int or a Fraction computed from stored coordinates (by `+`, `-`, `scale`,
`mat_apply` or the vertex view of a polygon) `to_fraction` only folds an
integral Fraction, such as 1/2 + 1/2, to its int.  The kernels run on
exact pairs; a vector is built only where the Python API hands one out.
`scale` takes an exact int or Fraction.

A vector may play the role of a point of the one-parameter-subgroup
lattice or of a character (height function); the pairing between the two
is the dot product.  Which role a vector plays is a documentation-level
convention, not a runtime tag.

A polygon stores one thing, its canonical vertex cycle `cycle`: a tuple
of exact (x, y) pairs, counterclockwise, strictly convex (no three
collinear vertices), lexicographically smallest vertex first.  Every
kernel reads that cycle; `vertices` is a view that builds `Vector2`s on
each read, for callers that want vectors.  Points and segments are
degenerate polygons (one or two vertices) and participate in all
operations without special-casing by the caller.  A polygon is built from
exact (x, y) pairs in one of two ways: by the hull `hull_of_pairs`, which
`Polygon(points)`, `dilate`, `translate` and `polygon_from_json` run, or
by the trusted `_polygon_from_cycle`, which wraps a cycle that a kernel
(the hull, a dual, a mutation, the deformation core) proved canonical.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DomainError


class OriginNotInterior(DomainError):
    pass


class ZeroVector(DomainError):
    pass


class NotFullDimensional(DomainError):
    pass


class NotLattice(DomainError):
    pass


class NotPrimitive(DomainError):
    pass


RationalLike = Union[int, str, Fraction]
# An exact rational as stored: int when integral, Fraction otherwise.
Rational = Union[int, Fraction]

# 2x2 integer matrix as nested tuples ((a, b), (c, d)), acting on column vectors.
Mat2 = tuple[tuple[int, int], tuple[int, int]]


# The JSON schemas' rational grammar: an ASCII integer or 'p/q' string.
_RATIONAL_STR = re.compile(r"-?[0-9]+(/[0-9]+)?")


def to_fraction(v: RationalLike) -> Rational:
    """Coerce an int, Fraction or 'p/q' string to an exact rational: an
    int when the value is integral, a reduced Fraction otherwise.  Strings
    follow the schemas' rational grammar, so decimals and exponents (whose
    size is unbounded, as in '1e1000000') are refused, and so are floats
    and booleans."""
    if type(v) is int:
        return v
    if isinstance(v, str):
        if not _RATIONAL_STR.fullmatch(v):
            raise DomainError(f"not an exact rational: {v!r}")
        try:
            v = Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise DomainError(f"not an exact rational: {v!r}") from e
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise DomainError(f"not an exact rational: {v!r}")


def qdiv(a: Rational, b: Rational) -> Rational:
    """Exact quotient a / b: an int when it is integral, else a Fraction.
    The one division of the package; b == 0 raises ZeroDivisionError."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


_new = object.__new__
_set = object.__setattr__


@functools.total_ordering  # vectors order as their (x, y) pairs
class Vector2:
    """A point/vector of the rational plane with exact coordinates.

    The one constructor reads its coordinates through to_fraction, which
    keeps an int and folds an integral Fraction to its int."""

    __slots__ = ("x", "y")

    def __init__(self, x: RationalLike, y: RationalLike):
        _set(self, "x", to_fraction(x))
        _set(self, "y", to_fraction(y))

    def __setattr__(self, *a):
        raise AttributeError("Vector2 is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Vector2:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __lt__(self, other: "Vector2") -> bool:
        if other.__class__ is not Vector2:
            return NotImplemented
        return (self.x, self.y) < (other.x, other.y)

    def __add__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vector2":
        return Vector2(-self.x, -self.y)

    def scale(self, r: Rational) -> "Vector2":
        # r is an exact int or Fraction, as a vector's coordinates are
        return Vector2(r * self.x, r * self.y)

    def dot(self, other: "Vector2") -> Rational:
        return self.x * other.x + self.y * other.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def as_ints(self) -> tuple[int, int]:
        if not self.is_integral():
            raise NotLattice(f"not a lattice vector: {self}")
        return self.x, self.y

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


ORIGIN = Vector2(0, 0)


def primitivize(v: Vector2) -> Vector2:
    """Divide an integer vector by the gcd of its components."""
    if v.is_zero():
        raise ZeroVector("cannot primitivize the zero vector")
    a, b = v.as_ints()
    g = math.gcd(a, b)
    return Vector2(a // g, b // g)


def is_primitive(v: Vector2) -> bool:
    if v.is_zero() or not v.is_integral():
        return False
    a, b = v.as_ints()
    return math.gcd(a, b) == 1


def _hull_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """The canonical vertex cycle of the hull of exact (x, y) pairs:
    counterclockwise, strictly convex, lex-smallest vertex first; one or two
    distinct pairs for a point or a segment.  Andrew's monotone chain."""
    pts = sorted(set(pairs))
    if not pts:
        raise DomainError("empty point set has no hull")
    if len(pts) == 1:
        return pts
    # both chains keep their end points, so two distinct points give at least
    # two vertices, and collinear input gives exactly the two extremes
    return _hull_chain(pts)[:-1] + _hull_chain(pts[::-1])[:-1]


def _hull_chain(seq: Iterable[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """Andrew's lower chain (its strict left turns and both end points) over
    pairs sorted by increasing x, or his upper chain for decreasing x."""
    out: list[tuple[Rational, Rational]] = []
    for px, py in seq:
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (py - by) - (by - ay) * (px - bx) > 0:
                break
            out.pop()
        out.append((px, py))
    return out


class Polygon:
    """Convex rational polygon, stored as its canonical vertex cycle.

    `cycle` is the tuple of exact (x, y) pairs, ints or Fractions that are
    not integral: CCW, no collinear triples, lex-smallest vertex first.
    Construction runs the convex hull `hull_of_pairs` on the points'
    (x, y) pairs, as `dilate`, `translate` and the JSON reader do.  The
    trusted `_polygon_from_cycle` only wraps a cycle proved canonical: the
    hull, the duals, the mutation kernel and the deformation core make one.
    `vertices` is the Python API's vector view of the cycle.
    """

    __slots__ = ("cycle",)

    def __init__(self, points: Iterable[Vector2]):
        _set(self, "cycle", hull_of_pairs((p.x, p.y) for p in points).cycle)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Polygon is immutable")

    @property
    def vertices(self) -> tuple[Vector2, ...]:
        """The vertex cycle as vectors, built on each read."""
        return tuple(Vector2(x, y) for x, y in self.cycle)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.cycle == other.cycle

    def __hash__(self) -> int:
        # a vector hashes as its pair, so this is the hash of the vertices
        return hash(self.cycle)

    def __repr__(self) -> str:
        return "Polygon[" + ", ".join(f"({x}, {y})" for x, y in self.cycle) + "]"

    def dim(self) -> int:
        return min(len(self.cycle) - 1, 2)

    def is_lattice(self) -> bool:
        return all(type(x) is int and type(y) is int for x, y in self.cycle)

    def translate(self, t: Vector2) -> "Polygon":
        return hull_of_pairs([(x + t.x, y + t.y) for x, y in self.cycle])

    def contains(self, p: Vector2) -> bool:
        return all(a * p.x + b * p.y >= c for a, b, c in _halfplanes(self))

    def contains_origin_interior(self) -> bool:
        # edge (a, b) cuts out n.x >= c with c = n.a = -det(a, b)
        cyc = self.cycle
        return len(cyc) > 2 and all(ax * by - ay * bx > 0 for (ax, ay), (bx, by) in zip((cyc[-1], *cyc), cyc))


def _polygon_from_cycle(cyc: Sequence[tuple[Rational, Rational]]) -> Polygon:
    """The polygon whose canonical vertex cycle is cyc: exact (x, y) pairs,
    strictly convex and counterclockwise or one or two distinct points,
    lex-least first.  Nothing is checked."""
    P = _new(Polygon)
    _set(P, "cycle", tuple(cyc))
    return P


def _lex_first(cyc: list[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """The cycle cyc rotated to start at its lex-least pair."""
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


def hull_of_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> Polygon:
    """The convex hull of the points with these exact (x, y) pairs, ints or
    Fractions, as the canonical polygon; Polygon(points) runs it.  The hull
    runs on integers: the pairs are scaled by the lcm L of their
    denominators, hulled, and the hull's canonical cycle divided back by L
    with qdiv, which keeps it canonical."""
    pairs = list(pairs)
    L = math.lcm(*{c.denominator for p in pairs for c in p})
    cyc = _hull_pairs([(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator)) for x, y in pairs])
    return _polygon_from_cycle([(qdiv(x, L), qdiv(y, L)) for x, y in cyc] if L > 1 else cyc)


def dilate(P: Polygon, r: RationalLike) -> Polygon:
    """r*P, the hull of the scaled cycle (a point for r == 0)."""
    r = to_fraction(r)
    return hull_of_pairs([(r * x, r * y) for x, y in P.cycle])


def mat_apply(U: Mat2, v: Vector2) -> Vector2:
    (a, b), (c, d) = U
    return Vector2(a * v.x + b * v.y, c * v.x + d * v.y)


def mat_det(U: Mat2) -> int:
    (a, b), (c, d) = U
    return a * d - b * c


def area(P: Polygon) -> Rational:
    """Euclidean area by the shoelace formula (0 for points and segments)."""
    return qdiv(abs(_twice_area(P.cycle)), 2) if len(P.cycle) > 2 else 0


def _twice_area(cyc: Sequence[tuple[Rational, Rational]]) -> Rational:
    """Twice the signed area of the exact pair cycle cyc, > 0 when CCW."""
    s = 0
    x1, y1 = cyc[-1]
    for x2, y2 in cyc:
        s += x1 * y2 - y1 * x2
        x1, y1 = x2, y2
    return s


def _halfplanes(P: Polygon) -> list[tuple[Rational, Rational, Rational]]:
    """Inequalities a*x + b*y >= c cutting out P, as exact (a, b, c)
    triples off its cycle, valid in every dimension."""
    cyc = P.cycle
    if len(cyc) == 1:
        (px, py), = cyc
        return [(1, 0, px), (-1, 0, -px), (0, 1, py), (0, -1, -py)]
    if len(cyc) == 2:
        (ax, ay), (bx, by) = cyc
        dx, dy = bx - ax, by - ay
        c = dx * ay - dy * ax  # the normal (-dy, dx) at a
        return [(-dy, dx, c), (dy, -dx, -c), (dx, dy, dx * ax + dy * ay), (-dx, -dy, -dx * bx - dy * by)]
    # the normal (-dy, dx) of each edge points inward for CCW order
    return [(ay - by, bx - ax, ay * bx - ax * by) for (ax, ay), (bx, by) in zip(cyc, (*cyc[1:], cyc[0]))]


def dual(P: Polygon) -> Polygon:
    """The polar dual {u : <u, v> >= -1 for all v in P}.

    Requires a full-dimensional polygon with the origin strictly interior;
    then the dual is again such a polygon and dual(dual(P)) == P.
    """
    return dilated_dual(P, 1)


def dilated_dual(P: Polygon, r: Rational) -> Polygon:
    """r*dual(P) for an exact int or Fraction r > 0, equal to
    dilate(dual(P), r), coordinate types included, without the dual (see
    _dilated_dual)."""
    if P.dim() != 2:
        raise NotFullDimensional("dual needs a full-dimensional polygon")
    if r <= 0:
        raise DomainError(f"dilation of a dual must be positive: {r}")
    return _polygon_from_cycle(_dilated_dual(P.cycle, r))


def _dilated_dual(cyc: Sequence[tuple[Rational, Rational]], r: Rational) -> list[tuple[Rational, Rational]]:
    """The canonical cycle of r*dual(P) for the full-dimensional polygon P
    with the CCW cycle cyc of exact pairs and an exact r > 0, not checked:
    the edge (a, b) gives the vertex r*(a.y - b.y, b.x - a.x)/det(a, b)."""
    return _lex_first([(qdiv(r * (a[1] - b[1]), det), qdiv(r * (b[0] - a[0]), det)) for a, b, det in _dual_edges(cyc)])


def _dual_walk(cyc: Sequence[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """(a, the canonical cycle of a*dual(P)) in one walk along the edges of
    P as in _dilated_dual with an integer cycle, for the least a > 0 that
    makes it a lattice polygon: the lcm over the edges (a, b) of their dual
    vertex's denominator, det / gcd(det, b.x - a.x, a.y - b.y)."""
    edges = [(p[1] - q[1], q[0] - p[0], det) for p, q, det in _dual_edges(cyc)]
    a = math.lcm(*(det // math.gcd(det, x, y) for x, y, det in edges))
    return a, _lex_first([(a * x // det, a * y // det) for x, y, det in edges])


def _lattice_dual(P: Polygon) -> tuple[int, Polygon]:
    """(a, a*dual(P)) by _dual_walk, for a Fano P, not checked."""
    a, cyc = _dual_walk(P.cycle)
    return a, _polygon_from_cycle(cyc)


def _dual_edges(cyc: Sequence[tuple[Rational, Rational]]) -> Iterator[tuple[tuple, tuple, Rational]]:
    """(a, b, det(a, b)) for each edge of the CCW cycle cyc, refusing a det
    <= 0: all are positive exactly when the origin is strictly inside (see
    contains_origin_interior), and then the dual vertices are again a
    strictly convex CCW cycle."""
    a = cyc[-1]
    for b in cyc:
        det = a[0] * b[1] - a[1] * b[0]
        if det <= 0:
            raise OriginNotInterior("dual needs the origin strictly inside")
        yield a, b, det
        a = b


def height_basis(w: Vector2) -> tuple[Vector2, Vector2, Vector2]:
    """For primitive w return (f0, vw, s) adapted to the grading by w.

    f0 spans the kernel of w, <w, vw> = 1, and s is the integral functional
    with s(f0) = 1, s(vw) = 0, so v -> (<w,v>, <s,v>) is unimodular with
    inverse (h, k) -> k*f0 + h*vw.  The one place that refuses a
    non-primitive w, as mutations are defined for primitive w only.
    """
    if not is_primitive(w):
        raise NotPrimitive(f"height function must be primitive: {w}")
    (fx, fy), (a, b) = _height_frame(w.x, w.y)
    return Vector2(fx, fy), Vector2(a, b), Vector2(-b, a)


def _height_frame(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(f0, vw) of height_basis as integer pairs, for a primitive integer
    w = (p, q), which is not checked; s is (-vw[1], vw[0])."""
    _, a, b = _bezout(p, q)  # a*p + b*q == 1
    return (-q, p), (a, b)


def _cycle_maps(vp: Sequence[tuple[int, int]], vq: Sequence[tuple[int, int]]) -> Iterator[tuple[Mat2, tuple[int, int]]]:
    """Every unimodular U and integer translation t, an int pair, with
    U*P + t == Q for the lattice polygons with canonical cycles vp and vq,
    not checked.  Any such map sends vertex cycle to vertex cycle, so
    mapping the edge basis (d1, d2) at vp[0] onto the one at each vertex of
    vq, both ways round, finds them all: U = [e1 e2] [d1 d2]^-1, integral."""
    n = len(vp)
    if len(vq) != n or _twice_area(vp) != _twice_area(vq):
        return
    (px, py), (ax, ay), (bx, by) = vp[0], vp[1], vp[-1]
    d1x, d1y, d2x, d2y = ax - px, ay - py, bx - px, by - py
    det = d1x * d2y - d1y * d2x
    qset = set(vq)
    for i in range(n):
        qx, qy = vq[i]
        for sgn in (1, -1):
            (e1x, e1y), (e2x, e2y) = vq[(i + sgn) % n], vq[(i - sgn) % n]
            e1x, e1y, e2x, e2y = e1x - qx, e1y - qy, e2x - qx, e2y - qy
            u00, r00 = divmod(e1x * d2y - e2x * d1y, det)
            u01, r01 = divmod(e2x * d1x - e1x * d2x, det)
            u10, r10 = divmod(e1y * d2y - e2y * d1y, det)
            u11, r11 = divmod(e2y * d1x - e1y * d2x, det)
            if r00 or r01 or r10 or r11 or u00 * u11 - u01 * u10 not in (1, -1):
                continue
            tx, ty = qx - u00 * px - u01 * py, qy - u10 * px - u11 * py
            if {(u00 * x + u01 * y + tx, u10 * x + u11 * y + ty) for x, y in vp} == qset:
                yield ((u00, u01), (u10, u11)), (tx, ty)


def lattice_equivalent(P: Polygon, Q: Polygon) -> Optional[tuple[Mat2, Vector2]]:
    """Unimodular U and integer translation t with U*P + t == Q, or None."""
    _require_lattice_2d(P, Q)
    return next(((U, Vector2(*t)) for U, t in _cycle_maps(P.cycle, Q.cycle)), None)


def linear_equivalent(P: Polygon, Q: Polygon) -> Optional[Mat2]:
    """Unimodular U with U*P == Q (no translation), or None.

    This is the right equivalence for Fano polygons, whose origin is pinned.
    """
    _require_lattice_2d(P, Q)
    return next((U for U, t in _cycle_maps(P.cycle, Q.cycle) if t == (0, 0)), None)


def _cycle_invariant(vs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The sorted pairs (|det(v_i, v_i+1)|, gcd of v_i+1 - v_i) over the
    vertex cycle vs of a lattice polygon, as integer (x, y) pairs.

    A unimodular map keeps every determinant up to one common sign and
    every edge's lattice length, and sorting forgets the start and the
    orientation, so polygons with different invariants are not linearly
    equivalent.  The converse fails: classes may share an invariant, and
    only a vertex map with no translation (_cycle_maps) tells them apart."""
    out = []
    x1, y1 = vs[-1]
    for x2, y2 in vs:
        out.append((abs(x1 * y2 - y1 * x2), math.gcd(x2 - x1, y2 - y1)))
        x1, y1 = x2, y2
    out.sort()
    return tuple(out)


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) > 0, for (a, b) != (0, 0):
    the coefficients of the extended Euclidean algorithm, read off one
    modular inverse.

    Euclid's x is the residue of (a/g)^-1 modulo m = |b|/g with |x| <= m/2,
    the tie at m = 2 going to -1 exactly when b < 0; for m = 1, pow gives
    x = 0, as Euclid does."""
    g = math.gcd(a, b)
    if b == 0:
        return g, (1 if a > 0 else -1), 0
    m = abs(b) // g
    x = pow(a // g, -1, m)
    if 2 * x > m or (2 * x == m and b < 0):
        x -= m
    return g, x, (g - x * a) // b


def _lattice_basis(vectors: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """(g1, h, g2) such that (g1, h) and (0, g2) span the lattice that the
    integer vectors span: its row Hermite normal form, with g1, g2 >= 0,
    h = 0 when g1 = 0, and 0 <= h < g2 when g2 > 0.  A zero g1 or g2 drops
    that basis vector, so the rank may be 2, 1 or 0."""
    g1 = h = g2 = 0
    for x, y in vectors:
        if x:
            # (g, hn) = a*(g1, h) + b*(x, y); what the two vectors keep
            # beyond their multiples of (g, hn) lies on the y-axis
            g, a, b = _bezout(g1, x)
            hn = a * h + b * y
            g2 = math.gcd(g2, h - g1 // g * hn, y - x // g * hn)
            g1, h = g, hn
        else:
            g2 = math.gcd(g2, y)
        if g2:
            h %= g2
    return g1, h, g2


def _require_lattice_2d(*polys: Polygon) -> None:
    for P in polys:
        if P.dim() != 2:
            raise NotFullDimensional("equivalence needs full-dimensional polygons")
        if not P.is_lattice():
            raise NotLattice("equivalence needs lattice polygons")


# --- JSON interchange -------------------------------------------------------

def vector_to_json(v: Vector2) -> list[str]:
    return [str(v.x), str(v.y)]


def polygon_to_json(P: Polygon) -> dict:
    return {"vertices": [[str(x), str(y)] for x, y in P.cycle]}


def polygon_from_json(obj) -> Polygon:
    return hull_of_pairs(parse_vertices(obj))


def parse_vertices(obj) -> list[tuple[Rational, Rational]]:
    """The vertices of a polygon JSON object as exact (x, y) pairs, in order."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise DomainError("polygon JSON must be an object with a 'vertices' key")
    vs = obj["vertices"]
    if not isinstance(vs, list) or not vs:
        raise DomainError("polygon 'vertices' must be a nonempty list")
    out = []
    for v in vs:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise DomainError(f"bad vector: {v!r}")
        out.append((to_fraction(v[0]), to_fraction(v[1])))
    return out


def segment_to_json(S: Polygon) -> dict:
    """A point or segment as its ends {"a", "b"}, lex-smallest first."""
    return {"a": [str(c) for c in S.cycle[0]], "b": [str(c) for c in S.cycle[-1]]}
