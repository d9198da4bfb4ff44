"""Combinatorial mutations of Fano polygons.

A mutation is fixed by a primitive height function w and a factor segment
F = conv(0, t*f0) lying in the kernel of w (Akhtar, Coates, Galkin and
Kasprzyk, "Minkowski polynomials and mutations", arXiv:1212.1785).  The
mutated polygon shrinks each negative-height lattice slice to its slab G_h,
cut short by (-h) copies of F, and fattens each nonnegative slice by h
copies of F.  The slabs are implied by (w, F) and never stored: they exist
exactly when t <= t_max, read off the negative vertex heights.

The kernel works at the vertices only, on the integer vertex cycle
[(x, y), ...] that a Polygon stores as `cycle`.  In the grading by w the
slice endpoints of P are piecewise linear and break only at vertex
heights, so the valid factor lengths and the mutant are read off one table
of integer rows (A_h, B_h), the lattice k-interval of P at each vertex
height h, in increasing h, in the frame of geom.height_basis: the least
ceiling and the greatest floor of the edge crossings at h.  The mutant's
hull is one monotone chain up the lower row ends and one down the upper
ends, with no sort of points; the cost does not grow with the range of
heights.

Sign convention: for Laurent polynomials, dividing the second variable by
g(x) corresponds to w = (0,-1) with F = Newt(g) along +x; this is the
unique choice under which the Newton polygon of the mutated polynomial
equals the mutation of the Newton polygon.  Dividing the first variable by
g(y) is that case with x and y exchanged: w = (-1,0) with F = Newt(g)
along +y.  CLI certificates record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DomainError
from . import fano
from .geom import (  # NotPrimitive is re-exported: height_basis raises it
    ORIGIN,
    Mat2,
    NotPrimitive,
    Polygon,
    Vector2,
    _cycle_invariant,
    _cycle_maps,
    _height_frame,
    _hull_chain,
    _lex_first,
    _polygon_from_cycle,
    height_basis,
    hull_of_pairs,
    is_primitive,
    qdiv,
)


class InvalidFactor(DomainError):
    pass


@dataclass(frozen=True)
class MutationData:
    """Height function w and factor F = conv(0, t*f0), f0 spanning the
    kernel of w; t = 0 is the identity.

    This is the whole mutation: the slabs G_h only witness that F exists.
    mutate accepts md for P exactly when t <= t_max(P, w), with f0 either
    primitive direction of the kernel.
    """

    w: Vector2
    t: int
    f0: Vector2

    @property
    def factor(self) -> Polygon:
        """F = conv(0, t*f0): a segment, or the point 0 when t = 0."""
        return Polygon([ORIGIN, self.f0.scale(self.t)])

    def to_json(self) -> dict:
        from .geom import segment_to_json, vector_to_json

        return {
            "w": vector_to_json(self.w),
            "t": self.t,
            "f0": vector_to_json(self.f0),
            "F": segment_to_json(self.factor),
            "convention": "w=(0,-1) matches dividing the second variable by g",
        }


class _Profile:
    """The lattice rows of the lattice polygon with integer vertex cycle vs
    in the (h, k) frame of geom._height_frame for a primitive integer
    height function w = (p, q), which is not checked: rows[h] = (A_h, B_h),
    the least and greatest k of a lattice point at height h, for each
    vertex height h in increasing order.  f0 and vw are integer pairs."""

    def __init__(self, vs: list[tuple[int, int]], w: tuple[int, int]):
        p, q = w
        self.f0, self.vw = _height_frame(p, q)
        a, b = self.vw
        hk = [(p * x + q * y, a * y - b * x) for x, y in vs]
        self.rows = {h: _row(hk, h) for h in sorted({h for h, _ in hk})}


def _row(hk: list[tuple[int, int]], h: int) -> tuple[int, int]:
    """(A_h, B_h) of the polygon with (h, k) vertex cycle hk at a height h
    that it meets: the least ceiling and the greatest floor of the k where
    its edges cross h.  An edge lying in the height line is skipped, since
    its endpoints are crossings of the neighbouring edges."""
    lo = hi = None
    h1, k1 = hk[-1]
    for h2, k2 in hk:
        if h1 != h2 and (h1 - h) * (h2 - h) <= 0:
            d = h2 - h1
            num = k1 * d + (k2 - k1) * (h - h1)
            if d < 0:
                num, d = -num, -d
            a, b = -(-num // d), num // d
            if lo is None or a < lo:
                lo = a
            if hi is None or b > hi:
                hi = b
        h1, k1 = h2, k2
    return lo, hi


def _require_fano(P: Polygon) -> None:
    if not fano.is_fano(P):
        raise fano.NotFano("operation requires a Fano polygon")


def _profile(P: Polygon, w: Vector2) -> _Profile:
    """The profile of P along w, once P is proved Fano and w primitive
    (height_basis refuses a non-primitive w), in that order."""
    _require_fano(P)
    if not is_primitive(w):
        height_basis(w)  # raises NotPrimitive
    return _Profile(P.cycle, (w.x, w.y))


def _t_max(prof: _Profile) -> int:
    """Longest factor: each negative vertex height h must keep a slab after
    removing (-h)*t steps from its lattice row."""
    caps = [(b - a) // -h for h, (a, b) in prof.rows.items() if h < 0]
    return min(caps, default=0)


def find_factors(P: Polygon, w: Vector2) -> list[MutationData]:
    """All nontrivial factors conv(0, t*f0) of P with respect to w.

    The valid lengths are exactly t = 1..t_max, read off the negative
    vertex heights: at such a height h the slab G_h is the lattice slice
    [A_h, B_h] cut down to [A_h, B_h - (-h)t], which is nonempty exactly
    for t <= (B_h - A_h) // (-h), and then G_h + (-h)F = [A_h, B_h] covers
    the height-h vertices because they are lattice points of that slice.
    The list is empty when no factor exists (for instance when some
    negative-height vertex sits alone in a point slice).
    """
    prof = _profile(P, w)
    f0 = Vector2(*prof.f0)
    return [MutationData(w=w, t=t, f0=f0) for t in range(1, _t_max(prof) + 1)]


def _directions(vs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The primitive inner normals of the edges of the full-dimensional
    polygon with integer vertex cycle vs, as sorted integer pairs."""
    out = set()
    x1, y1 = vs[-1]
    for x2, y2 in vs:
        dx, dy = x2 - x1, y2 - y1
        g = math.gcd(dx, dy)
        out.add((-dy // g, dx // g))  # inner normal for CCW order
        x1, y1 = x2, y2
    return sorted(out)


def _factor_walk(vs: list[tuple[int, int]]):
    """(w, profile, t) for every nontrivial factor of the polygon with
    integer vertex cycle vs, which the caller has proved Fano: one _Profile
    per direction of _directions(vs), t = 1..t_max, and one Vector2 w per
    direction that has a factor."""
    for pq in _directions(vs):
        prof = _Profile(vs, pq)
        if n := _t_max(prof):
            w = Vector2(*pq)
            for t in range(1, n + 1):
                yield w, prof, t


def mutants(P: Polygon) -> list[tuple[MutationData, Polygon]]:
    """[(md, mutate(P, md)) for w in factor_directions(P) for md in
    find_factors(P, w)], from one profile per direction and one proof that
    P is Fano (find_factors and mutate would each redo both)."""
    _require_fano(P)
    return [
        (MutationData(w=w, t=t, f0=Vector2(*prof.f0)), _polygon_from_cycle(_mutant(prof, t)))
        for w, prof, t in _factor_walk(P.cycle)
    ]


def factor_for(P: Polygon, w: Vector2, t: int) -> MutationData:
    """The factor of length t for (P, w), checked as mutate checks it: P
    must be Fano at every t, the identity t = 0 included, and a t outside
    0..t_max is InvalidFactor.  height_basis refuses a non-primitive w."""
    md = _factor_data(w, t)
    _validate_mutation_data(P, md)
    return md


def _factor_data(w: Vector2, t: int) -> MutationData:
    """The unchecked data of factor_for, for a caller that hands it to
    mutate, which checks it: f0 is the kernel direction of height_basis."""
    return MutationData(w=w, t=t, f0=height_basis(w)[0])


def _validate_mutation_data(P: Polygon, md: MutationData) -> tuple[_Profile, int]:
    """P's profile along md.w and the factor length signed along its f0
    (negative if md.f0 = -prof.f0); height_basis refuses a non-primitive w."""
    if isinstance(md.t, bool):  # an int to isinstance, but not an exact rational
        raise InvalidFactor(f"not an exact rational: {md.t}")
    if not isinstance(md.t, int):
        raise InvalidFactor(f"factor length must be an integer: {md.t}")
    if md.t < 0:
        raise InvalidFactor("factor length must be nonnegative")
    if not md.f0.is_integral() or md.w.dot(md.f0) != 0:
        raise InvalidFactor("factor direction must be a lattice vector killed by w")
    if md.t > 0 and not is_primitive(md.f0):
        raise InvalidFactor("factor direction must be primitive")
    prof = _profile(P, md.w)
    # w is primitive, so a primitive lattice f0 it kills is +-prof.f0
    ts = md.t if (md.f0.x, md.f0.y) == prof.f0 else -md.t
    # the slab at a vertex height h is the lattice slice cut short by (-h)t
    # steps at either end, so both directions share t_max (see find_factors)
    if md.t > _t_max(prof):
        raise InvalidFactor(f"no factor of length {md.t} for w={md.w}")
    return prof, ts


def mutate(P: Polygon, md: MutationData) -> Polygon:
    """The combinatorial mutation of P by md.

    The hull of the maximal slabs at negative heights together with the
    lattice slices fattened by h copies of the factor at nonnegative
    heights.  Only the rows at vertex heights are built (see below).
    """
    prof, t = _validate_mutation_data(P, md)
    return _polygon_from_cycle(_mutant(prof, t))


def _mutant(prof: _Profile, t: int) -> list[tuple[int, int]]:
    """The canonical vertex cycle, as integer (x, y) pairs, of the mutant
    by the factor of signed length t along prof.f0, which must not exceed
    t_max in size."""
    # In (h, k) coordinates every row of the mutant is the lattice part of
    # [kmin(h), kmax(h) + h*t] (t >= 0; mirrored for t < 0).  kmin is convex,
    # kmax + h*t concave, and both break only at vertex heights of P, where
    # they pass through lattice vertices; a valid factor keeps the row
    # nonempty at every vertex height, hence everywhere between.  So the
    # region is a lattice polygon whose lower chain runs up the lower ends
    # of the rows at vertex heights and whose upper chain runs down their
    # upper ends.
    up, down = (t, 0) if t >= 0 else (0, t)
    lo = _hull_chain([(h, a + h * down) for h, (a, _) in prof.rows.items()])
    hi = _hull_chain([(h, b + h * up) for h, (_, b) in reversed(prof.rows.items())])
    # a row of one point at the lowest or the highest height is one vertex
    hk = lo[: len(lo) - (lo[-1] == hi[0])] + hi[: len(hi) - (hi[-1] == lo[0])]
    # (h, k) -> h*vw + k*f0 has determinant <w, vw> = 1, so the cycle stays
    # counterclockwise; it starts at its lex-least vertex
    (ux, uy), (fx, fy) = prof.vw, prof.f0
    return _lex_first([(h * ux + k * fx, h * uy + k * fy) for h, k in hk])


def dual_map(md: MutationData, Q: Polygon) -> Polygon:
    """Image of Q under the piecewise-linear map u -> u - u_min(u)*w on the
    dual side, u_min the least of <u, .> over the factor vertices 0 and
    t*f0.  The map is linear on either side of the line <u, f0> = 0, where
    the minimizing vertex changes, so the image is the hull of the images
    of Q's vertices and of the points where Q's edges cross that line;
    area is preserved."""
    fx, fy = md.t * md.f0.x, md.t * md.f0.y
    wx, wy = md.w.x, md.w.y
    pts = []
    ax, ay = Q.cycle[-1]
    sa = ax * fx + ay * fy
    for bx, by in Q.cycle:
        sb = bx * fx + by * fy
        if (sa > 0 > sb) or (sa < 0 < sb):
            # the crossing has <u, t*f0> = 0, so the map fixes it
            r = qdiv(sa, sa - sb)
            pts.append((ax + (bx - ax) * r, ay + (by - ay) * r))
        # u_min is 0 where <u, t*f0> >= 0 (the origin minimizes), else <u, t*f0>
        pts.append((bx - sb * wx, by - sb * wy) if sb < 0 else (bx, by))
        ax, ay, sa = bx, by, sb
    return hull_of_pairs(pts)


@dataclass(frozen=True)
class GraphNode:
    polygon: Polygon
    weights: Optional[tuple[int, int, int]]
    multiplicity: Optional[int]


@dataclass(frozen=True)
class GraphEdge:
    source: int
    target: int
    w: Vector2
    t: int


@dataclass(frozen=True)
class MutationGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    metadata: dict

    def weight_triples(self) -> set[tuple[int, int, int]]:
        return {tuple(sorted(n.weights)) for n in self.nodes if n.weights}

    def to_json(self) -> dict:
        from .geom import polygon_to_json, vector_to_json

        return {
            "nodes": [
                {
                    "index": i,
                    "polygon": polygon_to_json(n.polygon),
                    "weights": sorted(n.weights) if n.weights else None,
                    "multiplicity": n.multiplicity,
                }
                for i, n in enumerate(self.nodes)
            ],
            "edges": [
                {
                    "source": e.source,
                    "target": e.target,
                    "w": vector_to_json(e.w),
                    "t": e.t,
                }
                for e in self.edges
            ],
            "metadata": self.metadata,
        }


def factor_directions(P: Polygon) -> list[Vector2]:
    """Height functions that can possibly admit a factor: the primitive
    inner normals of the edges, sorted (the minimal face must be an edge,
    otherwise a negative-height vertex sits alone in a point slice).  They
    are also the rays of the normal fan of P, which only a full-dimensional
    P has, so a point, a segment or a polygon that is no lattice polygon
    is refused as not Fano, as find_factors refuses it."""
    if P.dim() != 2 or not P.is_lattice():
        raise fano.NotFano("operation requires a Fano polygon")
    return [Vector2(p, q) for p, q in _directions(P.cycle)]


# the most classes a mutation graph may hold; one more is a DomainError,
# since the width of the graph, not its depth, drives the cost
GRAPH_CLASS_LIMIT = 20_000


def mutation_graph(P: Polygon, depth: int) -> MutationGraph:
    """Breadth-first graph of mutation classes reachable from P.

    Nodes are origin-preserving (linear) lattice-equivalence classes: two
    polygons are in one class exactly when a unimodular map with no
    translation sends one onto the other (geom._cycle_maps finds it); the
    representative of a class is the first polygon found in it.  Edges
    record the (w, t) of each mutation found, in the order found.  Fano
    polygons anchor the origin, so translations are not quotiented out.
    Only P is proved Fano: a mutant of a Fano polygon is Fano, so each node
    inherits the root's proof and reads its weights and multiplicity off
    the minors of its vertices.

    Each node is expanded by one _factor_walk on the integer vertex cycle
    its polygon stores.  Mutants stay such cycles: one hull, one class
    lookup (_ClassIndex: a cycle seen before, else the cheap invariant
    geom._cycle_invariant, and a vertex-map search only against the
    representatives that share it), and a Polygon only for a new class.

    A mutation is undone by its negative: the mutant by (w, t) of src is
    mutated by (-w, t) back to src, up to a shear along the kernel of w.
    The lookup places the mutant's cycle as U*R, R the representative of
    its class tgt, and mutation commutes with U, so R is mutated by
    (-U^T w, t) back to src.  Every edge whose mutant was built registers
    that reverse when tgt is not expanded yet (nodes expand in index
    order, so when tgt >= src), and the expansion of tgt records it as an
    edge to src with no mutant and no lookup.  More than GRAPH_CLASS_LIMIT
    classes is a DomainError.
    """
    if type(depth) is not int:  # a bool is an int subclass, but no depth
        raise DomainError(f"depth must be an integer: {depth!r}")
    _require_fano(P)
    if depth < 0:
        raise DomainError("depth must be nonnegative")

    polygons = [P]  # each class's representative
    classes = _ClassIndex(polygons)
    classes.setdefault(P.cycle, 0)
    # back[tgt, p, q, t] = src: the mutation of tgt's representative by
    # ((p, q), t) leads to src; classes are disjoint, so a key registered
    # twice names one src
    back: dict[tuple[int, int, int, int], int] = {}
    edges: list[GraphEdge] = []  # each (src, w, t) is visited once
    frontier = [0]
    for _ in range(depth):
        next_frontier: list[int] = []
        for src in frontier:
            for w, prof, t in _factor_walk(polygons[src].cycle):
                p, q = w.x, w.y
                tgt = back.get((src, p, q, t))
                if tgt is None:
                    cyc = _mutant(prof, t)
                    tgt, ((a, b), (c, d)) = classes.setdefault(cyc, len(polygons))
                    if tgt == len(polygons):
                        if tgt == GRAPH_CLASS_LIMIT:
                            raise DomainError(
                                f"mutation graph exceeds the class budget GRAPH_CLASS_LIMIT = {GRAPH_CLASS_LIMIT}"
                            )
                        polygons.append(_polygon_from_cycle(cyc))
                        next_frontier.append(tgt)
                    if tgt >= src:  # cyc = U*rep(tgt): the reverse is -U^T w
                        back.setdefault((tgt, -a * p - c * q, -b * p - d * q, t), src)
                edges.append(GraphEdge(src, tgt, w, t))
        frontier = next_frontier
        if not frontier:
            break
    wm = [fano._weights_and_multiplicity(*Q.cycle) if len(Q.cycle) == 3 else (None, None) for Q in polygons]
    nodes = tuple(GraphNode(Q, w, m) for Q, (w, m) in zip(polygons, wm))
    # "extra_scan" stays in the graph JSON as a constant: the edge normals
    # are complete, so no wider box of height functions is ever scanned
    meta = {"scan": "edge-normals (complete for factors)", "extra_scan": None, "depth": depth}
    return MutationGraph(nodes, tuple(edges), meta)


class _ClassIndex:
    """The classes of a mutation graph, looked up by a polygon's canonical
    integer vertex cycle in three steps: an identical cycle seen before is
    in its class; a cycle whose _cycle_invariant no class has is a new
    class; only otherwise is the cycle matched against the cycle of each
    representative whose class shares its invariant, by a geom._cycle_maps
    search for a map with translation (0, 0).  _cycle_maps lists every
    unimodular affine map between two canonical cycles, so that map is
    linear equivalence itself, and classes are disjoint, so at most one
    class in the bucket matches: the witness alone decides class identity,
    and the invariant only skips searches that cannot succeed.  The memo
    of cycles seen keeps the witness with the class, since a cycle seen
    before need not be its representative."""

    def __init__(self, polygons: list[Polygon]):
        self.polygons = polygons  # each class's representative, which the caller grows
        self.seen: dict[tuple[tuple[int, int], ...], tuple[int, Mat2]] = {}
        self.invariants: dict[tuple[tuple[int, int], ...], list[int]] = {}

    def setdefault(self, cyc: Sequence[tuple[int, int]], new: int) -> tuple[int, Mat2]:
        """(class, U) for the polygon with canonical cycle cyc: U is
        unimodular with U * (the class representative's cycle) == cyc.  If
        cyc has no class, the class is recorded as new, whose
        representative, cyc itself, the caller appends, and U is the
        identity."""
        key = tuple(cyc)
        hit = self.seen.get(key)
        if hit is None:
            same = self.invariants.setdefault(_cycle_invariant(cyc), [])
            maps = ((j, U) for j in same for U, t in _cycle_maps(self.polygons[j].cycle, cyc) if t == (0, 0))
            hit = next(maps, (new, ((1, 0), (0, 1))))
            if hit[0] == new:
                same.append(new)
            self.seen[key] = hit
        return hit
