"""Definitional oracles that the tests check the library against.

The library computes slices, mutations and the deformation pipeline on
integer vertex cycles.  The functions here follow the definitions
instead: the edges and cross products of a polygon's `Vector2` vertices,
the rational slice of a polygon by Sutherland-Hodgman clipping, lattice
slices and points, the lattice rows of a polygon along a height function
by a scan of its edges at each vertex height, the edges that hold a
T-cone, Minkowski sums and differences, the image of a polygon under a
matrix, the extended Euclidean algorithm, the dual's denominator and the
vertex-map search on `Vector2` polygons, the weight formula of a mutated
triangle, the integral of a PL function, the two-pass canonical form of
a PL function, its pieces, the degree function as a sum of PL functions,
the admissibility of a decomposition by pairing pieces, the
divisorial-polytope conditions, the piece-by-piece shift search that
reduces a divisorial polytope, the mutation data that undoes a mutation,
and the deformation pipeline composed of its public steps
(`deform_by_definition`), the reference of the core's integer table.
They are slow and simple, and only tests call them.

One is an independent invariant rather than a definition: the GL2(Z)
normal form `linear_normal_form`, a lexicographically least Hermite form,
is the arbiter of lattice equivalence with the origin fixed.  The library
decides that equivalence by a unimodular witness (`geom._cycle_maps`),
and the tests check the mutation graph's classes and that witness against
this form.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from polymut import deform, fano
from polymut.deform import AdmissibilityReport, DeformationCertificate, ReductionResult, ShiftRecord, _lattice_ok
from polymut.divpoly import (
    ConcavityBroken,
    _cycle_divpoly,
    DivPoly,
    DomainMismatch,
    PLFunc,
    interval_str,
    shift_affine,
    to_polygon,
)
from polymut.errors import DomainError
from polymut.fano import WeightTriple
from polymut.geom import (
    Mat2,
    NotFullDimensional,
    NotLattice,
    OriginNotInterior,
    Polygon,
    Rational,
    Vector2,
    ZeroVector,
    _bezout,
    _cycle_maps,
    _dual_walk,
    _halfplanes,
    _lex_first,
    _require_lattice_2d,
    area,
    height_basis,
    mat_apply,
    mat_det,
    qdiv,
    to_fraction,
)
from polymut.mutation import MutationData, mutate


# --- geometry ---------------------------------------------------------------

def cross(a: Vector2, b: Vector2) -> Rational:
    """det(a, b), the cross product of two plane vectors."""
    return a.x * b.y - a.y * b.x


def edges(P: Polygon) -> list[tuple[Vector2, Vector2]]:
    """The edges (a, b) of P in counterclockwise order: one for a segment,
    none for a point."""
    v = P.vertices
    if len(v) == 1:
        return []
    if len(v) == 2:
        return [(v[0], v[1])]
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def contains_strictly(P: Polygon, p: Vector2) -> bool:
    """p lies in the interior of the full-dimensional polygon P."""
    return P.dim() == 2 and all(a * p.x + b * p.y > c for a, b, c in _halfplanes(P))


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
    for a, b, c in _halfplanes(Q):
        loop = clip_halfplane(loop, Vector2(a, b), c)
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


def mat_image(U: Mat2, P: Polygon) -> Polygon:
    """U*P, the hull of the images of P's vertices."""
    return Polygon([mat_apply(U, v) for v in P.vertices])


def height_range(P: Polygon, w: Vector2) -> tuple[Rational, Rational]:
    """Exact (min, max) of <w, v> over P."""
    if w.is_zero():
        raise ZeroVector("height function must be nonzero")
    hs = [w.dot(v) for v in P.vertices]
    return min(hs), max(hs)


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


def profile_rows(P: Polygon, w: Vector2) -> dict[int, tuple[int, int]]:
    """The lattice rows of the lattice polygon P along the primitive w, as
    mutation._Profile keeps them: {h: (A_h, B_h)} at each vertex height h
    in increasing order, the least ceiling and the greatest floor of the
    k = <s, x> (s of height_basis) where P's edges cross the line
    <w, x> = h.  An edge lying in that line is skipped, since its
    endpoints are crossings of the neighbouring edges."""
    _, _, s = height_basis(w)
    hk = [(w.dot(v), s.dot(v)) for v in P.vertices]
    rows = {}
    for h in sorted({h for h, _ in hk}):
        ks = [
            k1 + qdiv((k2 - k1) * (h - h1), h2 - h1)
            for (h1, k1), (h2, k2) in zip(hk[-1:] + hk[:-1], hk)
            if h1 != h2 and min(h1, h2) <= h <= max(h1, h2)
        ]
        rows[h] = (math.ceil(min(ks)), math.floor(max(ks)))
    return rows


def t_cone_normals(P: Polygon) -> list[Vector2]:
    """The primitive inner normals, sorted, of the edges of the Fano polygon
    P that hold a primitive T-cone: an edge of lattice length l at height r
    holds floor(l / r) of them (Akhtar and Kasprzyk, "Singularity content",
    arXiv:1401.5458)."""
    out = []
    for a, b in edges(P):
        d = b - a
        l = math.gcd(d.x, d.y)
        n = Vector2(-d.y // l, d.x // l)
        if l // -n.dot(a):
            out.append(n)
    return sorted(out)


def lattice_points(P: Polygon) -> list[Vector2]:
    """All lattice points in P, sorted lexicographically."""
    out = []
    xs = [v.x for v in P.vertices]
    for x in range(math.ceil(min(xs)), math.floor(max(xs)) + 1):
        ys = [v.y for v in _cut(P, Vector2(1, 0), x)]
        out.extend(Vector2(x, y) for y in range(math.ceil(min(ys)), math.floor(max(ys)) + 1))
    return out


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
    for a, b in edges(P):
        det = cross(a, b)
        if det <= 0:
            raise OriginNotInterior("dual needs the origin strictly inside")
        out = math.lcm(out, det // math.gcd(det, b.x - a.x, a.y - b.y))
    return out


def _solve_pair_map(d1: Vector2, d2: Vector2, e1: Vector2, e2: Vector2) -> Optional[Mat2]:
    """Integer U with U d1 = e1 and U d2 = e2, if unimodular; else None."""
    det = cross(d1, d2)
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


def vertex_maps(P: Polygon, Q: Polygon) -> Iterator[tuple[Mat2, Vector2]]:
    """Every unimodular U and integer translation t with U*P + t == Q.

    Brute-force vertex matching on Vector2s: anchor an edge-adjacent basis
    at one vertex of P and try every vertex of Q with both orientations,
    solving for U in rationals.  Any such map sends the vertex cycle onto
    the vertex cycle, so these 2n candidates are all of them.
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
            t = q0 - mat_apply(U, p0)  # integral, as p0, q0 and U are
            if {mat_apply(U, v) + t for v in vp} == qset:
                yield U, t


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

    _cycle_invariant is a cheaper GL2(Z) invariant that needs no Bezout
    step but does not separate every pair of classes; the mutation graph
    tells such classes apart by a vertex map (geom._cycle_maps), and the
    tests check its classes against this form.
    """
    _require_lattice_2d(P)
    return _cycle_normal_form(P.cycle)


def _cycle_normal_form(vs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """linear_normal_form of the full-dimensional lattice polygon whose
    vertex cycle, as integer (x, y) pairs, is vs, from any start and in
    either orientation: the least Hermite form of all 2n candidates.
    Nothing is checked."""
    n = len(vs)
    # both orientations start at the same vertices, so one Bezout step per
    # vertex serves all 2n candidates
    bez = {v: _bezout(*v) for v in vs if v != (0, 0)}
    return min(_hermite_columns(cyc[i:] + cyc[:i], bez) for cyc in (vs, vs[::-1]) for i in range(n))


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


# --- weights, divisorial polytopes and mutation data ------------------------

class NotDivisible(DomainError):
    pass


def predicted_mutation_weights(w: WeightTriple, i: int) -> WeightTriple:
    """Weights after mutating away the i-th one (0-based): the other two
    weights followed by (their sum)^2 over the removed weight, reduced to
    coprime form."""
    if i not in (0, 1, 2):
        raise DomainError(f"weight index out of range: {i}")
    li = w[i]
    lj, lk = (w[j] for j in range(3) if j != i)
    s2 = (lj + lk) ** 2
    if s2 % li != 0:
        raise NotDivisible(f"{li} does not divide ({lj}+{lk})^2 = {s2}")
    out = (lj, lk, s2 // li)
    g = math.gcd(*out)
    return (out[0] // g, out[1] // g, out[2] // g)


def pieces(f: PLFunc) -> tuple[tuple[Rational, Rational, Rational], ...]:
    """The maximal affine pieces of f as (left, right, slope)."""
    return tuple(zip(f.breaks, f.breaks[1:], f.slopes()))


def degree(dp: DivPoly) -> PLFunc:
    """The degree function of dp, the sum of its coefficients, built by
    PLFunc addition: the zero function on the box when it has none."""
    out = PLFunc.constant(dp.box, 0)
    for f in dp.coeffs.values():
        out = out + f
    return out


def integral(f: PLFunc) -> Rational:
    """Exact integral of f over its domain (trapezoid rule is exact here)."""
    s = 0
    for (b1, v1), (b2, v2) in zip(zip(f.breaks, f.values), zip(f.breaks[1:], f.values[1:])):
        s += qdiv((v1 + v2) * (b2 - b1), 2)
    return s


def canonical_form_two_pass(bs, vs):
    """PLFunc's canonical form in two passes over lists: fold integral
    Fractions, refuse any breakpoint that does not strictly increase
    (DomainError), then merge collinear breakpoints and refuse a slope that
    increases (ConcavityBroken)."""
    bs = [b if type(b) is int or b.denominator != 1 else b.numerator for b in bs]
    vs = [v if type(v) is int or v.denominator != 1 else v.numerator for v in vs]
    db = [b2 - b1 for b1, b2 in zip(bs, bs[1:])]
    if any(d <= 0 for d in db):
        raise DomainError("breakpoints must be strictly increasing")
    dv = [v2 - v1 for v1, v2 in zip(vs, vs[1:])]
    kb, kv = [bs[0]], [vs[0]]
    for i in range(1, len(db)):
        c = dv[i - 1] * db[i] - dv[i] * db[i - 1]
        if c < 0:
            raise ConcavityBroken("slopes must be nonincreasing")
        if c:
            kb.append(bs[i])
            kv.append(vs[i])
    kb.append(bs[-1])
    kv.append(vs[-1])
    return tuple(kb), tuple(kv)


def admissible_by_definition(phi: PLFunc, phi0: PLFunc, phi1: PLFunc) -> AdmissibilityReport:
    """deform.is_admissible by the definitions: the parts' sum built as a
    PL function and compared with phi, and every piece of each part paired
    with every maximal affine piece of phi that it meets."""
    if phi.domain != phi0.domain or phi.domain != phi1.domain:
        raise DomainMismatch(
            "decomposition domains differ: "
            f"{interval_str(phi.domain)}, {interval_str(phi0.domain)}, {interval_str(phi1.domain)}"
        )
    violations = []
    for name, part in (("part0", phi0), ("part1", phi1)):
        if not part.has_lattice_graph():
            violations.append(f"{name}: graph vertices not in the lattice")
    if phi0 + phi1 != phi:
        violations.append("parts do not sum to the decomposed function")
    parts = (pieces(phi0), pieces(phi1))
    for a, b, _ in pieces(phi):
        # a part is bad on [a, b] when a piece of it meeting [a, b] has a
        # non-integral slope
        bad = sum(any(s.denominator != 1 for l, r, s in ps if l < b and a < r) for ps in parts)
        if bad > 1:
            violations.append(f"both parts have non-integral slope on [{a}, {b}]")
    return AdmissibilityReport(not violations, tuple(violations))


def validate(dp: DivPoly, include_notes: bool = False) -> list[str]:
    """Violations of the divisorial-polytope conditions; empty means valid.

    Checks strict positivity of the degree on the open box, nonnegativity
    at the endpoints (a zero endpoint is the principal-divisor case), and
    the lattice-graph condition per coefficient.
    """
    out = []
    deg = degree(dp)
    lo, hi = dp.box
    for u, d in zip(deg.breaks, deg.values):
        if u in (lo, hi):
            if d < 0:
                out.append(f"degree negative at endpoint u={u}")
            elif d == 0 and include_notes:
                out.append(f"note: endpoint u={u}: principal")
        elif d <= 0:
            out.append(f"degree not positive at interior u={u}")
    # a piece that vanishes identically meets the open box in a segment
    for (b1, v1), (b2, v2) in zip(
        zip(deg.breaks, deg.values), zip(deg.breaks[1:], deg.values[1:])
    ):
        if v1 == 0 and v2 == 0:
            out.append(f"degree vanishes on [{b1}, {b2}]")
    for label in dp.labels():
        f = dp.coeffs[label]
        if not f.has_lattice_graph():
            bad = next(
                (b, v)
                for b, v in zip(f.breaks, f.values)
                if b.denominator != 1 or v.denominator != 1
            )
            out.append(
                f"coefficient at {label}: graph vertex ({bad[0]}, {bad[1]}) not lattice"
            )
    return out


def _shift_candidates(dp: DivPoly) -> Iterator[ShiftRecord]:
    """Count-reducing single shifts by affine pieces of existing
    coefficients, in the order reduce_by_search tries them.

    Integral shifts come first: they twist by a principal divisor and a
    character, hence are isomorphisms and always safe.  A non-integral
    shift is not an isomorphism; the one the deformation proof sanctions
    absorbs the spectator coefficient into the freshest parameter label,
    so the non-integral pass takes the targets by decreasing kind.  Within
    a pass the walk goes by source label, then target label; each pair has
    at most one candidate, as distinct pieces of a concave source lie on
    distinct lines, and a target with two or more breakpoints is minus at
    most one of them.
    """
    labels = dp.labels()  # by (kind, name)
    freshest_first = [l for kind in (2, 1, 0) for l in labels if l.kind == kind]
    for integral, targets in ((True, labels), (False, freshest_first)):
        for frm in labels:
            cf = dp.coeffs[frm]
            if cf.is_zero():
                continue
            zeroes_from = cf.is_affine()
            lines = [(slope, va - slope * a) for (a, _, slope), va in zip(pieces(cf), cf.values)]
            lines = [(s, c) for s, c in lines if (s.denominator == 1 and c.denominator == 1) == integral]
            for to in targets:
                if to == frm:
                    continue
                ct = dp.coeffs[to]
                for slope, intercept in lines:
                    # the shift zeroes `to` when its coefficient plus the piece
                    # vanishes at every breakpoint of that coefficient
                    if zeroes_from or all(v + slope * u + intercept == 0 for u, v in zip(ct.breaks, ct.values)):
                        yield ShiftRecord(frm, to, slope, intercept)


def reduce_by_search(dp: DivPoly) -> ReductionResult:
    """Apply affine shifts until at most two nontrivial coefficients remain
    (all with lattice graphs), then reconstruct the polygon.

    Each step tries the affine extensions of the pieces of the stored
    coefficients as _shift_candidates yields them, integral ones first,
    and takes the first that reduces the count; the shifts used are
    recorded in the result."""
    shifts: list[ShiftRecord] = []
    cur = dp
    nt = cur.nontrivial_labels()  # kept equal to cur.nontrivial_labels()
    for _ in range(max(1, len(dp.coeffs))):
        if len(nt) <= 2:
            break
        for c in _shift_candidates(cur):
            nxt = shift_affine(cur, c.frm, c.to, c.slope, c.intercept)
            nt_next = nxt.nontrivial_labels()
            if len(nt_next) < len(nt) and _lattice_ok(nxt, nt_next):
                shifts.append(c)
                cur, nt = nxt, nt_next
                break
        else:
            return ReductionResult(
                False, None, tuple(shifts), None,
                "no affine shift reduces the nontrivial coefficients",
            )
    if len(nt) > 2 or not _lattice_ok(cur, nt):
        return ReductionResult(
            False, None, tuple(shifts), None,
            "reduced coefficients fail the lattice-graph condition",
        )
    return ReductionResult(True, to_polygon(cur), tuple(shifts), cur)


def inverse_data(P: Polygon, md: MutationData) -> MutationData:
    """Mutation data that undoes md on mutate(P, md): the height function
    is negated and the factor segment kept, so mutating back recovers P.
    md is checked against P by mutating P."""
    mutate(P, md)
    return MutationData(w=-md.w, t=md.t, f0=md.f0)


def deform_by_definition(P: Polygon, md: MutationData, mutant: Polygon, dilation) -> DeformationCertificate:
    """deform._deform by the public steps: the divisorial polytope
    (`_cycle_divpoly`), `standard_decomposition`, `general_fiber` and
    `reduce_to_polygon`, whose `to_polygon` hulls the fiber, each built as
    a PL object and checked by the generic divpoly algebra.  The steps are
    read off the deform module when called, so a test may watch them."""
    if len(P.cycle) != 3:
        raise fano.NotATriangle("the deformation pipeline needs a Fano triangle")
    U = deform._normalizer_for(md.w)
    mdn = deform._transform_mutation(md)
    (u00, u01), (u10, u11) = U
    pn, q = (_lex_first([(u00 * x + u01 * y, u10 * x + u11 * y) for x, y in X.cycle]) for X in (P, mutant))
    (ap, pv), (aq, qv) = _dual_walk(pn), _dual_walk(q)
    auto = math.lcm(ap, aq)
    a = auto if dilation is None else to_fraction(dilation)
    pa = None if a < 1 else deform._times(pv, a, ap)
    if pa is None or any(type(c) is not int for v in pa for c in v):
        raise deform.NoLatticeDilation(f"dilation {a} does not make the dual a lattice polygon (minimal valid: {auto})")
    dp = _cycle_divpoly(pa)
    d = deform.standard_decomposition(dp, mdn.t)
    fiber_dp = deform.general_fiber(dp, d)
    red = deform.reduce_to_polygon(fiber_dp)
    if not red.reducible:
        raise deform.FiberMismatch(f"fiber is not reducible to a toric polygon: {red.reason}")
    wp = fano._weights_and_multiplicity(*pn)[0]
    wq = fano._weights_and_multiplicity(*q)[0] if len(q) == 3 else None
    if any(not s.is_integral() for s in red.shifts) and not deform.weights_decrease(wp, wq):
        raise deform.FiberMismatch(
            "reduction needs a non-isomorphism shift but the mutation does "
            "not decrease the weights; the general fiber is not the mutated "
            "plane in this direction"
        )
    tq = deform._times(qv, a, aq)
    if any(type(c) is not int for v in tq for c in v):
        raise deform.FiberMismatch(f"dilation {a} does not make the mutated dual a lattice polygon")
    _require_lattice_2d(red.polygon)
    fc = red.polygon.cycle
    m = next(_cycle_maps(fc, tq), None)
    if m is None:
        diag = "fiber polygon is not equivalent to the dilated mutated dual"
        if next(_cycle_maps(fc, pa), None) is not None:
            diag += "; the family is isotrivial (fiber matches the source polarization)"
        raise deform.FiberMismatch(diag)
    in_class: Optional[bool] = None
    if wq is not None:
        in_class = fano.diophantine_class(wp) == fano.diophantine_class(wq)
    return DeformationCertificate(
        source=P,
        normalizer=U,
        normalized_source=deform._polygon_from_cycle(pn),
        mutation=mdn,
        mutated=deform._polygon_from_cycle(q),
        dilation=a,
        divpoly=dp,
        decomposition=d,
        fiber_divpoly=fiber_dp,
        reduction=red,
        fiber_polygon=red.polygon,
        target=deform._polygon_from_cycle(tq),
        witness=(m[0], Vector2(*m[1])),
        corollary=deform.corollary_check(d),
        extends_over_p1=True,
        in_diophantine_class=in_class,
    )
