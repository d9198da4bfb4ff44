"""Exact 2D lattice geometry over the rationals.

Coordinates are exact rationals: an `int` when the value is integral, a
`fractions.Fraction` otherwise, and never a float.  The one division is
`qdiv`, which returns an `int` for an integral quotient.  Every predicate
is exact, so results compare with ``==``.  Vectors and polygons are
immutable values and safe to share between threads.

Values are coerced once, where they come in: `Vector2(x, y)`, `dilate`
and the JSON readers run `to_fraction`.  A vector computed from stored
coordinates (by `+`, `-`, `scale`, `mat_apply`, `dilated_dual`, or the
mutation and divpoly kernels) is built by the trusted `Vector2._of`, which
assumes ints and Fractions and only folds an integral Fraction, such as
1/2 + 1/2, to its int.  `scale` takes an exact int or Fraction.

A vector may play the role of a point of the one-parameter-subgroup
lattice or of a character (height function); the pairing between the two
is the dot product.  Which role a vector plays is a documentation-level
convention, not a runtime tag.

Polygons are stored canonically: counterclockwise, strictly convex (no
three collinear vertices), lexicographically smallest vertex first.
Points and segments are degenerate polygons (one or two vertices) and
participate in all operations without special-casing by the caller.
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

    The constructor reads its coordinates through to_fraction.  Vectors
    that the library computes go through `_of`, which trusts them."""

    __slots__ = ("x", "y")

    def __init__(self, x: RationalLike, y: RationalLike):
        _set(self, "x", to_fraction(x))
        _set(self, "y", to_fraction(y))

    @classmethod
    def _of(cls, x: Rational, y: Rational) -> "Vector2":
        # x and y are ints or Fractions computed from stored coordinates, so
        # only an integral Fraction (1/2 + 1/2) is left to fold to its int
        v = _new(cls)
        _set(v, "x", x if type(x) is int or x.denominator != 1 else x.numerator)
        _set(v, "y", y if type(y) is int or y.denominator != 1 else y.numerator)
        return v

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
        return Vector2._of(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vector2") -> "Vector2":
        return Vector2._of(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vector2":
        return Vector2._of(-self.x, -self.y)

    def scale(self, r: Rational) -> "Vector2":
        # r is an exact int or Fraction, as a vector's coordinates are
        return Vector2._of(r * self.x, r * self.y)

    def dot(self, other: "Vector2") -> Rational:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vector2") -> Rational:
        return self.x * other.y - self.y * other.x

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
    return Vector2._of(a // g, b // g)


def is_primitive(v: Vector2) -> bool:
    if v.is_zero() or not v.is_integral():
        return False
    a, b = v.as_ints()
    return math.gcd(a, b) == 1


def _hull_of(points: Iterable[Vector2]) -> list[Vector2]:
    # the hull runs on the (x, y) pairs, so the only Vector2s are the input
    # points kept as hull vertices
    byxy = {(p.x, p.y): p for p in points}
    return [byxy[p] for p in _hull_pairs(byxy)]


def _hull_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
    """The canonical vertex cycle of the hull of exact (x, y) pairs:
    counterclockwise, strictly convex, lex-smallest vertex first; one or two
    distinct pairs for a point or a segment.  Andrew's monotone chain, with
    the cross products written out."""
    pts = sorted(set(pairs))
    if not pts:
        raise DomainError("empty point set has no hull")
    if len(pts) == 1:
        return pts

    def chain(seq: Sequence[tuple[Rational, Rational]]) -> list[tuple[Rational, Rational]]:
        out: list[tuple[Rational, Rational]] = []
        for px, py in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (py - by) - (by - ay) * (px - bx) > 0:
                    break
                out.pop()
            out.append((px, py))
        return out

    lower = chain(pts)
    upper = chain(pts[::-1])
    # both chains keep their end points, so two distinct points give at least
    # two vertices, and collinear input gives exactly the two extremes
    return lower[:-1] + upper[:-1]


class Polygon:
    """Convex rational polygon in canonical vertex form.

    Construction runs a convex hull, so any point list yields the canonical
    representative: CCW, no collinear triples, lex-smallest vertex first.
    Only `dilated_dual` (and `dual`), `dilate` (by r != 0), `translate` and
    `mat_image` (by a nonsingular matrix) skip the hull, through
    `_from_cycle`: each maps a canonical cycle to a strictly convex CCW
    cycle (`mat_image` reverses it when the determinant is negative), so
    only its start can move.  `_polygon_from_pairs` wraps a cycle that
    `_hull_pairs` made canonical already.
    """

    __slots__ = ("vertices",)

    def __init__(self, points: Iterable[Vector2]):
        object.__setattr__(self, "vertices", tuple(_hull_of(points)))

    @classmethod
    def _from_cycle(cls, vs: Sequence[Vector2]) -> "Polygon":
        # vs is a strictly convex CCW cycle (or one or two distinct points)
        i = vs.index(min(vs))
        P = object.__new__(cls)
        object.__setattr__(P, "vertices", tuple(vs[i:]) + tuple(vs[:i]))
        return P

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("Polygon is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return "Polygon[" + ", ".join(map(repr, self.vertices)) + "]"

    def dim(self) -> int:
        return min(len(self.vertices) - 1, 2)

    def is_lattice(self) -> bool:
        return all(v.is_integral() for v in self.vertices)

    def edges(self) -> list[tuple[Vector2, Vector2]]:
        v = self.vertices
        if len(v) == 1:
            return []
        if len(v) == 2:
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def translate(self, t: Vector2) -> "Polygon":
        return Polygon._from_cycle([v + t for v in self.vertices])

    def contains(self, p: Vector2) -> bool:
        for n, c in _halfplanes(self):
            if n.dot(p) < c:
                return False
        return True

    def contains_origin_interior(self) -> bool:
        # edge (a, b) cuts out n.x >= c with c = n.a = -cross(a, b)
        return self.dim() == 2 and all(a.cross(b) > 0 for a, b in self.edges())


def _polygon_from_pairs(cyc: Sequence[tuple[Rational, Rational]]) -> Polygon:
    """The polygon whose canonical vertex cycle, as exact (x, y) pairs, is
    cyc, as _hull_pairs returns it.  Nothing is checked: the cycle is the
    hull that a Polygon built from the same points would compute."""
    P = object.__new__(Polygon)
    object.__setattr__(P, "vertices", tuple(Vector2._of(x, y) for x, y in cyc))
    return P


def hull_of_pairs(pairs: Iterable[tuple[Rational, Rational]]) -> Polygon:
    """The polygon Polygon(...) builds from the points with these exact
    (x, y) pairs, ints or Fractions as the library computes them.  The hull
    runs on integers: the pairs are scaled by the lcm L of their
    denominators, hulled, and the hull's vertices divided back by L."""
    pairs = list(pairs)
    L = math.lcm(*{c.denominator for p in pairs for c in p})
    cyc = _hull_pairs([(x.numerator * (L // x.denominator), y.numerator * (L // y.denominator)) for x, y in pairs])
    if L > 1:
        cyc = [(qdiv(x, L), qdiv(y, L)) for x, y in cyc]
    return _polygon_from_pairs(cyc)


def dilate(P: Polygon, r: RationalLike) -> Polygon:
    """r*P; for r != 0 the scaled cycle is still CCW and strictly convex
    (r < 0 turns it by a half turn), for r == 0 it collapses to a point."""
    r = to_fraction(r)
    vs = [v.scale(r) for v in P.vertices]
    return Polygon._from_cycle(vs) if r else Polygon(vs)


def mat_apply(U: Mat2, v: Vector2) -> Vector2:
    (a, b), (c, d) = U
    return Vector2._of(a * v.x + b * v.y, c * v.x + d * v.y)


def mat_image(U: Mat2, P: Polygon) -> Polygon:
    """U*P.  A nonsingular U maps P's canonical cycle to a strictly convex
    cycle, counterclockwise when det(U) > 0 and clockwise (so reversed
    here) when det(U) < 0; a singular U collapses P and takes a hull."""
    vs = [mat_apply(U, v) for v in P.vertices]
    det = mat_det(U)
    if not det:
        return Polygon(vs)
    if det < 0:
        vs.reverse()
    return Polygon._from_cycle(vs)


def mat_det(U: Mat2) -> int:
    (a, b), (c, d) = U
    return a * d - b * c


def area(P: Polygon) -> Rational:
    """Euclidean area by the shoelace formula (0 for points and segments)."""
    v = P.vertices
    if len(v) < 3:
        return 0
    s = 0
    for i in range(len(v)):
        s += v[i].cross(v[(i + 1) % len(v)])
    return qdiv(abs(s), 2)


def _halfplanes(P: Polygon) -> list[tuple[Vector2, Rational]]:
    """Inequalities n.x >= c cutting out P, valid in every dimension."""
    v = P.vertices
    if len(v) == 1:
        p = v[0]
        return [
            (Vector2._of(1, 0), p.x),
            (Vector2._of(-1, 0), -p.x),
            (Vector2._of(0, 1), p.y),
            (Vector2._of(0, -1), -p.y),
        ]
    if len(v) == 2:
        a, b = v
        d = b - a
        n = Vector2._of(-d.y, d.x)
        return [
            (n, n.dot(a)),
            (-n, -n.dot(a)),
            (d, d.dot(a)),
            (-d, -d.dot(b)),
        ]
    out = []
    for a, b in P.edges():
        d = b - a
        n = Vector2._of(-d.y, d.x)  # inward for CCW order
        out.append((n, n.dot(a)))
    return out


def dual(P: Polygon) -> Polygon:
    """The polar dual {u : <u, v> >= -1 for all v in P}.

    Requires a full-dimensional polygon with the origin strictly interior;
    then the dual is again such a polygon and dual(dual(P)) == P.
    """
    return dilated_dual(P, 1)


def dilated_dual(P: Polygon, r: Rational) -> Polygon:
    """r*dual(P) for an exact int or Fraction r > 0, equal to
    dilate(dual(P), r), coordinate types included, without the dual: the
    CCW edge (a, b) gives the vertex r*(a.y - b.y, b.x - a.x)/det(a, b)."""
    if P.dim() != 2:
        raise NotFullDimensional("dual needs a full-dimensional polygon")
    if r <= 0:
        raise DomainError(f"dilation of a dual must be positive: {r}")
    verts = []
    for a, b in P.edges():
        # the origin is strictly inside exactly when every det is positive
        # (see contains_origin_interior); then the vertices dual to the CCW
        # edges are again a strictly convex CCW cycle
        det = a.cross(b)
        if det <= 0:
            raise OriginNotInterior("dual needs the origin strictly inside")
        verts.append(Vector2._of(qdiv(r * (a.y - b.y), det), qdiv(r * (b.x - a.x), det)))
    return Polygon._from_cycle(verts)


def dual_denominator(P: Polygon) -> int:
    """The least positive integer a with a*dual(P) a lattice polygon, for
    a full-dimensional lattice polygon P with the origin strictly inside:
    the lcm over CCW edges (a, b) of det / gcd(det, b.x - a.x, a.y - b.y),
    det = det(a, b), the denominator of the dual vertex of that edge."""
    if P.dim() != 2:
        raise NotFullDimensional("dual needs a full-dimensional polygon")
    if not P.is_lattice():
        raise NotLattice("dual_denominator needs a lattice polygon")
    out = 1
    for a, b in P.edges():
        det = a.cross(b)
        if det <= 0:
            raise OriginNotInterior("dual needs the origin strictly inside")
        out = math.lcm(out, det // math.gcd(det, b.x - a.x, a.y - b.y))
    return out


def height_basis(w: Vector2) -> tuple[Vector2, Vector2, Vector2]:
    """For primitive w return (f0, vw, s) adapted to the grading by w.

    f0 spans the kernel of w, <w, vw> = 1, and s is the integral functional
    with s(f0) = 1, s(vw) = 0, so v -> (<w,v>, <s,v>) is unimodular with
    inverse (h, k) -> k*f0 + h*vw.  The one place that refuses a
    non-primitive w, as mutations are defined for primitive w only.
    """
    if not is_primitive(w):
        raise NotPrimitive(f"height function must be primitive: {w}")
    p, q = w.as_ints()
    f0 = Vector2._of(-q, p)
    _, a, b = _bezout(p, q)
    vw = Vector2._of(a, b)  # a*p + b*q == 1
    s = Vector2._of(-b, a)
    return f0, vw, s


def _solve_pair_map(d1: Vector2, d2: Vector2, e1: Vector2, e2: Vector2) -> Optional[Mat2]:
    """Integer U with U d1 = e1 and U d2 = e2, if unimodular; else None."""
    det = d1.cross(d2)
    u00 = qdiv(e1.x * d2.y - e2.x * d1.y, det)
    u01 = qdiv(-e1.x * d2.x + e2.x * d1.x, det)
    u10 = qdiv(e1.y * d2.y - e2.y * d1.y, det)
    u11 = qdiv(-e1.y * d2.x + e2.y * d1.x, det)
    if any(u.denominator != 1 for u in (u00, u01, u10, u11)):
        return None
    U = ((u00, u01), (u10, u11))
    if mat_det(U) not in (1, -1):
        return None
    return U


def _vertex_maps(P: Polygon, Q: Polygon) -> Iterator[tuple[Mat2, Vector2]]:
    """Every unimodular U and integer translation t with U*P + t == Q.

    Brute-force vertex matching: anchor an edge-adjacent basis at one vertex
    of P and try every vertex of Q with both orientations.  Any such map
    sends the vertex cycle onto the vertex cycle, so these 2n candidates
    are all of them.
    """
    _require_lattice_2d(P, Q)
    vp, vq = P.vertices, Q.vertices
    n = len(vp)
    if len(vq) != n or area(P) != area(Q):
        return
    p0 = vp[0]
    d1 = vp[1] - p0
    d2 = vp[-1] - p0
    qset = set(vq)
    for i in range(n):
        q0 = vq[i]
        for sgn in (1, -1):
            e1 = vq[(i + sgn) % n] - q0
            e2 = vq[(i - sgn) % n] - q0
            U = _solve_pair_map(d1, d2, e1, e2)
            if U is None:
                continue
            t = q0 - mat_apply(U, p0)
            if not t.is_integral():
                continue
            if {mat_apply(U, v) + t for v in vp} == qset:
                yield U, t


def lattice_equivalent(P: Polygon, Q: Polygon) -> Optional[tuple[Mat2, Vector2]]:
    """Unimodular U and integer translation t with U*P + t == Q, or None."""
    return next(_vertex_maps(P, Q), None)


def linear_equivalent(P: Polygon, Q: Polygon) -> Optional[Mat2]:
    """Unimodular U with U*P == Q (no translation), or None.

    This is the right equivalence for Fano polygons, whose origin is pinned.
    """
    return next((U for U, t in _vertex_maps(P, Q) if t.is_zero()), None)


def linear_normal_form(P: Polygon) -> tuple[tuple[int, int], ...]:
    """Exact GL2(Z) invariant of a lattice polygon with the origin fixed:
    linear_normal_form(P) == linear_normal_form(Q) exactly when
    linear_equivalent(P, Q) is not None.

    For each starting vertex and each orientation, the 2 x n matrix of the
    vertices in cyclic order is brought to row Hermite normal form, and the
    lexicographically smallest result, read as its sequence of columns, is
    kept (Grinis and Kasprzyk, "Normal forms of convex lattice polytopes",
    arXiv:1301.6641).  Every candidate is U*P for some U in GL2(Z), so the
    normal form is the vertex cycle of a polygon in the class of P.

    The candidates are first filtered by their second Hermite column (see
    _second_column), which decides the order for every Fano polygon, then
    a tie by their third (_third_column), and only those with the least
    columns are brought to the full form.  The form itself is unchanged:
    when some candidate has no such column, all 2n are compared in full.

    _cycle_invariant is a cheaper GL2(Z) invariant that needs no Bezout
    step but does not separate every pair of classes; the mutation graph
    computes this form only for cycles whose invariants collide.
    """
    _require_lattice_2d(P)
    return _cycle_normal_form([(v.x, v.y) for v in P.vertices])


def _cycle_normal_form(vs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """linear_normal_form of the full-dimensional lattice polygon whose
    vertex cycle, as integer (x, y) pairs, is vs, from any start and in
    either orientation.  Nothing is checked."""
    n = len(vs)
    # both orientations start at the same vertices, so one Bezout step per
    # vertex serves all 2n candidates
    bez = {v: _bezout(*v) for v in vs if v != (0, 0)}
    starts = [(cyc, i) for cyc in (vs, vs[::-1]) for i in range(n)]
    keys = [_second_column(cyc[i], cyc[(i + 1) % n], bez) for cyc, i in starts]
    if None not in keys:
        least = min(keys)
        starts = [s for s, k in zip(starts, keys) if k == least]
        if len(starts) > 1:
            # the tied candidates share their first two columns
            keys = [_third_column(cyc[i], cyc[(i + 1) % n], cyc[(i + 2) % n], bez) for cyc, i in starts]
            least = min(keys)
            starts = [s for s, k in zip(starts, keys) if k == least]
    return min(_hermite_columns(cyc[i:] + cyc[:i], bez) for cyc, i in starts)


def _cycle_invariant(vs: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The sorted pairs (|det(v_i, v_i+1)|, gcd of v_i+1 - v_i) over the
    vertex cycle vs of a lattice polygon, as integer (x, y) pairs.

    A unimodular map keeps every determinant up to one common sign and
    every edge's lattice length, and sorting forgets the start and the
    orientation, so polygons with different invariants are not linearly
    equivalent.  The converse fails: classes may share an invariant, and
    only _cycle_normal_form tells them apart."""
    out = []
    x1, y1 = vs[-1]
    for x2, y2 in vs:
        out.append((abs(x1 * y2 - y1 * x2), math.gcd(x2 - x1, y2 - y1)))
        x1, y1 = x2, y2
    out.sort()
    return tuple(out)


def _second_column(
    v0: tuple[int, int], v1: tuple[int, int], bez: dict[tuple[int, int], tuple[int, int, int]]
) -> Optional[tuple[int, int]]:
    """The second column (r1 mod d, d) of the Hermite form of any vertex
    cycle that starts v0, v1, when v0 is primitive, so that its first
    column is (1, 0), and d = |det(v0, v1)| > 0; else None.

    With x*a + y*b == 1 for v0 = (a, b), the unimodular ((x, y), (-b, a))
    sends v0 to (1, 0) and v1 to (r1, +-d), r1 = x*v1[0] + y*v1[1], and the
    Hermite form reduces r1 modulo the pivot d.  Other Bezout coefficients
    change r1 by a multiple of d, so the column does not depend on them."""
    if v0 not in bez:
        return None
    g, x, y = bez[v0]
    d = abs(v0[0] * v1[1] - v0[1] * v1[0])
    if g != 1 or not d:
        return None
    return (x * v1[0] + y * v1[1]) % d, d


def _third_column(
    v0: tuple[int, int], v1: tuple[int, int], v2: tuple[int, int], bez: dict[tuple[int, int], tuple[int, int, int]]
) -> tuple[int, int]:
    """The third column of the Hermite form of any vertex cycle that starts
    v0, v1, v2, when _second_column(v0, v1, bez) is not None: the unimodular
    of _second_column, its second row negated when it sends v1 below the
    axis, then the first row reduced by q times the second, where q reduces
    the image of v1 to its second column."""
    _, x, y = bez[v0]
    a, b = v0
    d1, d2 = a * v1[1] - b * v1[0], a * v2[1] - b * v2[0]
    if d1 < 0:
        d1, d2 = -d1, -d2
    q = (x * v1[0] + y * v1[1]) // d1
    return x * v2[0] + y * v2[1] - q * d2, d2


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


def _hermite_columns(
    cols: list[tuple[int, int]], bez: dict[tuple[int, int], tuple[int, int, int]]
) -> tuple[tuple[int, int], ...]:
    """Columns of the row Hermite normal form of a rank-2 integer 2 x n
    matrix: pivots g > 0 and p > 0, zeros left of and below the first pivot,
    and 0 <= (entry above the second pivot) < p.  Unique in the GL2(Z)
    orbit of the matrix under left multiplication, so any Bezout
    coefficients for the first nonzero column, looked up in bez, give it."""
    j1 = next(j for j, c in enumerate(cols) if c != (0, 0))
    a, b = cols[j1]
    g, x, y = bez[a, b]
    # ((x, y), (-b/g, a/g)) has determinant 1 and sends column j1 to (g, 0)
    u, v = -b // g, a // g
    r1 = [x * c0 + y * c1 for c0, c1 in cols]
    r2 = [u * c0 + v * c1 for c0, c1 in cols]
    j2 = next(j for j in range(j1 + 1, len(cols)) if r2[j])
    if r2[j2] < 0:
        r2 = [-e for e in r2]
    q = r1[j2] // r2[j2]
    return tuple((e1 - q * e2, e2) for e1, e2 in zip(r1, r2))


def _require_lattice_2d(*polys: Polygon) -> None:
    for P in polys:
        if P.dim() != 2:
            raise NotFullDimensional("equivalence needs full-dimensional polygons")
        if not P.is_lattice():
            raise NotLattice("equivalence needs lattice polygons")


# --- JSON interchange -------------------------------------------------------

def vector_to_json(v: Vector2) -> list[str]:
    return [str(v.x), str(v.y)]


def vector_from_json(obj) -> Vector2:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise DomainError(f"bad vector: {obj!r}")
    return Vector2(obj[0], obj[1])


def polygon_to_json(P: Polygon) -> dict:
    return {"vertices": [vector_to_json(v) for v in P.vertices]}


def polygon_from_json(obj) -> Polygon:
    pts = parse_vertices(obj)
    return Polygon(pts)


def parse_vertices(obj) -> list[Vector2]:
    """Vertex list from a polygon JSON object, in the order given."""
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise DomainError("polygon JSON must be an object with a 'vertices' key")
    vs = obj["vertices"]
    if not isinstance(vs, list) or not vs:
        raise DomainError("polygon 'vertices' must be a nonempty list")
    return [vector_from_json(v) for v in vs]


def segment_to_json(S: Polygon) -> dict:
    """A point or segment as its ends {"a", "b"}, lex-smallest first."""
    return {"a": vector_to_json(S.vertices[0]), "b": vector_to_json(S.vertices[-1])}
