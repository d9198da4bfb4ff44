"""Exact 2D lattice geometry over the rationals.

Coordinates are exact rationals: an `int` when the value is integral, a
`fractions.Fraction` otherwise, and never a float.  The one division is
`qdiv`, which returns an `int` for an integral quotient.  Every predicate
is exact, so results compare with ``==``.  Vectors and polygons are
immutable values and safe to share between threads.

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

import math
import re
from dataclasses import dataclass
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


@dataclass(frozen=True, order=True)
class Vector2:
    """A point/vector of the rational plane with exact coordinates."""

    x: Rational
    y: Rational

    def __init__(self, x: RationalLike, y: RationalLike):
        object.__setattr__(self, "x", to_fraction(x))
        object.__setattr__(self, "y", to_fraction(y))

    def __add__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vector2") -> "Vector2":
        return Vector2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vector2":
        return Vector2(-self.x, -self.y)

    def scale(self, r: RationalLike) -> "Vector2":
        r = to_fraction(r)
        return Vector2(r * self.x, r * self.y)

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
    return Vector2(a // g, b // g)


def is_primitive(v: Vector2) -> bool:
    if v.is_zero() or not v.is_integral():
        return False
    a, b = v.as_ints()
    return math.gcd(a, b) == 1


def _hull_of(points: Iterable[Vector2]) -> list[Vector2]:
    # Andrew's monotone chain on the (x, y) pairs, with the cross products
    # written out, so the only Vector2s are the input points kept as hull
    # vertices (pairs sort as the vectors do)
    byxy = {(p.x, p.y): p for p in points}
    if not byxy:
        raise DomainError("empty point set has no hull")
    pts = sorted(byxy)
    if len(pts) == 1:
        return [byxy[pts[0]]]

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
    return [byxy[p] for p in lower[:-1] + upper[:-1]]


class Polygon:
    """Convex rational polygon in canonical vertex form.

    Construction runs a convex hull, so any point list yields the canonical
    representative: CCW, no collinear triples, lex-smallest vertex first.
    Only `dual`, `dilate` (by r != 0) and `translate` skip the hull, through
    `_from_cycle`: each maps a canonical cycle to a strictly convex CCW
    cycle, so only its start can move.
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

    def contains(self, p: Vector2, strict: bool = False) -> bool:
        if strict and self.dim() < 2:
            return False
        for n, c in _halfplanes(self):
            d = n.dot(p)
            if d < c or (strict and d == c):
                return False
        return True

    def contains_origin_interior(self) -> bool:
        # edge (a, b) cuts out n.x >= c with c = n.a = -cross(a, b)
        return self.dim() == 2 and all(a.cross(b) > 0 for a, b in self.edges())


def convex_hull(points: Iterable[Vector2]) -> Polygon:
    """Minimal canonical polygon containing the given points."""
    return Polygon(points)


def dilate(P: Polygon, r: RationalLike) -> Polygon:
    """r*P; for r != 0 the scaled cycle is still CCW and strictly convex
    (r < 0 turns it by a half turn), for r == 0 it collapses to a point."""
    r = to_fraction(r)
    vs = [v.scale(r) for v in P.vertices]
    return Polygon._from_cycle(vs) if r else Polygon(vs)


def mat_apply(U: Mat2, v: Vector2) -> Vector2:
    (a, b), (c, d) = U
    return Vector2(a * v.x + b * v.y, c * v.x + d * v.y)


def mat_det(U: Mat2) -> int:
    (a, b), (c, d) = U
    return a * d - b * c


def mat_mul(U: Mat2, V: Mat2) -> Mat2:
    (a, b), (c, d) = U
    (e, f), (g, h) = V
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


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
            (Vector2(1, 0), p.x),
            (Vector2(-1, 0), -p.x),
            (Vector2(0, 1), p.y),
            (Vector2(0, -1), -p.y),
        ]
    if len(v) == 2:
        a, b = v
        d = b - a
        n = Vector2(-d.y, d.x)
        return [
            (n, n.dot(a)),
            (-n, -n.dot(a)),
            (d, d.dot(a)),
            (-d, -d.dot(b)),
        ]
    out = []
    for a, b in P.edges():
        d = b - a
        n = Vector2(-d.y, d.x)  # inward for CCW order
        out.append((n, n.dot(a)))
    return out


def clip_halfplane(loop: list[Vector2], n: Vector2, c: Rational) -> list[Vector2]:
    """One Sutherland-Hodgman step: keep the side n.x >= c."""
    if not loop:
        return []
    if len(loop) == 1:
        return loop if n.dot(loop[0]) >= c else []
    out: list[Vector2] = []
    m = len(loop)
    for i in range(m):
        cur, nxt = loop[i], loop[(i + 1) % m]
        fc = n.dot(cur) - c
        fn = n.dot(nxt) - c
        if fc >= 0:
            out.append(cur)
        if (fc > 0 > fn) or (fc < 0 < fn):
            t = qdiv(fc, fc - fn)
            out.append(cur + (nxt - cur).scale(t))
    return out


def intersect(P: Polygon, Q: Polygon) -> Optional[Polygon]:
    """Exact intersection of two convex polygons, or None if empty."""
    loop = list(P.vertices)
    for n, c in _halfplanes(Q):
        loop = clip_halfplane(loop, n, c)
        if not loop:
            return None
    return Polygon(loop)


def minkowski_sum(A: Polygon, B: Polygon) -> Polygon:
    return Polygon([a + b for a in A.vertices for b in B.vertices])


def minkowski_difference(A: Polygon, F: Polygon) -> Optional[Polygon]:
    """Maximal polygon G with G + F inside A, or None if there is none."""
    res: Optional[Polygon] = A.translate(-F.vertices[0])
    for f in F.vertices[1:]:
        res = intersect(res, A.translate(-f))
        if res is None:
            return None
    return res


def dual(P: Polygon) -> Polygon:
    """The polar dual {u : <u, v> >= -1 for all v in P}.

    Requires a full-dimensional polygon with the origin strictly interior;
    then the dual is again such a polygon and dual(dual(P)) == P.
    """
    if P.dim() != 2:
        raise NotFullDimensional("dual needs a full-dimensional polygon")
    verts = []
    for a, b in P.edges():
        # the origin is strictly inside exactly when every det is positive
        # (see contains_origin_interior); then the vertices dual to the CCW
        # edges are again a strictly convex CCW cycle
        det = a.cross(b)
        if det <= 0:
            raise OriginNotInterior("dual needs the origin strictly inside")
        verts.append(Vector2(qdiv(a.y - b.y, det), qdiv(b.x - a.x, det)))
    return Polygon._from_cycle(verts)


def height_range(P: Polygon, w: Vector2) -> tuple[Rational, Rational]:
    """Exact (min, max) of <w, v> over P."""
    if w.is_zero():
        raise ZeroVector("height function must be nonzero")
    hs = [w.dot(v) for v in P.vertices]
    return min(hs), max(hs)


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
    f0 = Vector2(-q, p)
    g, a, b = extgcd(p, q)
    vw = Vector2(a, b)  # a*p + b*q == 1
    s = Vector2(-b, a)
    return f0, vw, s


def extgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_x, x = x, old_x - qt * x
        old_y, y = y, old_y - qt * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _cut(P: Polygon, w: Vector2, h: Rational) -> list[Vector2]:
    """The rational slice of P on the line <w, x> = h as a loop of points
    on that line (with repeats), empty when the line misses P."""
    return clip_halfplane(clip_halfplane(list(P.vertices), w, h), -w, -h)


def lattice_slice(P: Polygon, w: Vector2, h: int) -> Optional[Polygon]:
    """Hull of the lattice points of P at height h (not the rational
    slice): a one- or two-vertex polygon, or None if there are none."""
    f0, vw, s = height_basis(w)
    ks = [s.dot(v) for v in _cut(P, w, h)]
    if not ks:
        return None
    klo, khi = math.ceil(min(ks)), math.floor(max(ks))
    if klo > khi:
        return None
    return Polygon([vw.scale(h) + f0.scale(k) for k in (klo, khi)])


def lattice_points(P: Polygon) -> list[Vector2]:
    """All lattice points in P, sorted lexicographically."""
    out = []
    xs = [v.x for v in P.vertices]
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        ys = [v.y for v in _cut(P, Vector2(1, 0), x)]
        out.extend(Vector2(x, y) for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1))
    return out


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
    _second_column), which decides the order for every Fano polygon, and
    only those with the least one are brought to the full form.  The form
    itself is unchanged: when some candidate has no such column, all 2n are
    compared in full.
    """
    _require_lattice_2d(P)
    vs = [v.as_ints() for v in P.vertices]
    n = len(vs)
    # both orientations start at the same vertices, so one Bezout step per
    # vertex serves all 2n candidates
    bez = {v: _bezout(*v) for v in vs if v != (0, 0)}
    starts = [(cyc, i) for cyc in (vs, vs[::-1]) for i in range(n)]
    keys = [_second_column(cyc[i], cyc[(i + 1) % n], bez) for cyc, i in starts]
    if None not in keys:
        least = min(keys)
        starts = [s for s, k in zip(starts, keys) if k == least]
    return min(_hermite_columns(cyc[i:] + cyc[:i], bez) for cyc, i in starts)


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


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b) > 0, for (a, b) != (0, 0).

    x is one modular inverse, which beats the Python loop of extgcd on wide
    integers; the coefficients may differ from extgcd's."""
    g = math.gcd(a, b)
    if b == 0:
        return g, (1 if a > 0 else -1), 0
    x = pow(a // g, -1, abs(b) // g)
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
