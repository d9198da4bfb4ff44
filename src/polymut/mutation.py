"""Combinatorial mutations of Fano polygons.

A mutation is fixed by a primitive height function w and a factor segment
F = conv(0, t*f0) lying in the kernel of w (Akhtar, Coates, Galkin and
Kasprzyk, "Minkowski polynomials and mutations", arXiv:1212.1785).  The
mutated polygon shrinks each negative-height lattice slice to its slab G_h,
cut short by (-h) copies of F, and fattens each nonnegative slice by h
copies of F.  The slabs are implied by (w, F) and never stored: they exist
exactly when t <= t_max, read off the negative vertex heights.

The kernel works at the vertices only.  In the grading by w the slice
endpoints of P are piecewise linear and break only at vertex heights, so
the valid factor lengths and the mutant are read off one table of integer
rows (A_h, B_h), the lattice k-interval of P at each vertex height h, in
the unimodular frame of geom.height_basis.  Each row is the least ceiling
and the greatest floor of the edge crossings at h; the cost does not grow
with the range of heights.

Sign convention: for Laurent polynomials, dividing the second variable by
g(x) corresponds to w = (0,-1) with F = Newt(g); this is the unique choice
under which the Newton polygon of the mutated polynomial equals the
mutation of the Newton polygon.  CLI certificates record it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from . import fano
from .geom import (  # NotPrimitive is re-exported: height_basis raises it
    ORIGIN,
    NotPrimitive,
    Polygon,
    Vector2,
    _cycle_invariant,
    _cycle_normal_form,
    _hull_pairs,
    _polygon_from_pairs,
    height_basis,
    hull_of_pairs,
    is_primitive,
    linear_normal_form,
    primitivize,
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
    """The lattice rows of a lattice polygon P in the (h, k) frame of a
    primitive height function w (geom.height_basis): rows[h] = (A_h, B_h),
    the least and greatest k of a lattice point of P at height h, for each
    vertex height h in vertex order."""

    def __init__(self, P: Polygon, w: Vector2):
        self.f0, self.vw, s = height_basis(w)
        hk = [(w.dot(v), s.dot(v)) for v in P.vertices]
        self.rows = {h: _row(hk, h) for h in dict.fromkeys(h for h, _ in hk)}


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
    _require_fano(P)
    prof = _Profile(P, w)  # height_basis refuses a non-primitive w
    return [MutationData(w=w, t=t, f0=prof.f0) for t in range(1, _t_max(prof) + 1)]


def _factor_walk(P: Polygon):
    """(w, profile, t) for every nontrivial factor of P, which the caller
    has proved Fano: one _Profile per w in factor_directions(P), t = 1..t_max."""
    for w in factor_directions(P):
        prof = _Profile(P, w)
        for t in range(1, _t_max(prof) + 1):
            yield w, prof, t


def mutants(P: Polygon) -> list[tuple[MutationData, Polygon]]:
    """[(md, mutate(P, md)) for w in factor_directions(P) for md in
    find_factors(P, w)], from one profile per direction and one proof that
    P is Fano (find_factors and mutate would each redo both)."""
    _require_fano(P)
    return [
        (MutationData(w=w, t=t, f0=prof.f0), _polygon_from_pairs(_mutant(prof, t)))
        for w, prof, t in _factor_walk(P)
    ]


def factor_for(P: Polygon, w: Vector2, t: int) -> MutationData:
    """The factor of length t for (P, w), or InvalidFactor if there is none."""
    if t == 0:  # height_basis refuses a non-primitive w, as find_factors does
        return MutationData(w=w, t=0, f0=height_basis(w)[0])
    for md in find_factors(P, w):
        if md.t == t:
            return md
    raise InvalidFactor(f"no factor of length {t} for w={w}")


def _validate_mutation_data(P: Polygon, md: MutationData) -> tuple[_Profile, int]:
    """P's profile along md.w and the factor length signed along its f0
    (negative if md.f0 = -prof.f0).  A non-primitive md.w is refused by
    height_basis when the profile is built."""
    if not isinstance(md.t, int):
        raise InvalidFactor(f"factor length must be an integer: {md.t}")
    if md.t < 0:
        raise InvalidFactor("factor length must be nonnegative")
    if not md.f0.is_integral() or md.w.dot(md.f0) != 0:
        raise InvalidFactor("factor direction must be a lattice vector killed by w")
    if md.t > 0 and not is_primitive(md.f0):
        raise InvalidFactor("factor direction must be primitive")
    _require_fano(P)
    prof = _Profile(P, md.w)
    # w is primitive, so a primitive lattice f0 it kills is +-prof.f0
    ts = md.t if md.f0 == prof.f0 else -md.t
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
    return _polygon_from_pairs(_mutant(prof, t))


def _mutant(prof: _Profile, t: int) -> list[tuple[int, int]]:
    """The canonical vertex cycle, as integer (x, y) pairs, of the mutant
    by the factor of signed length t along prof.f0, which must not exceed
    t_max in size."""
    # In (h, k) coordinates every row of the mutant is the lattice part of
    # [kmin(h), kmax(h) + h*t] (t >= 0; mirrored for t < 0).  kmin is convex,
    # kmax + h*t concave, and both break only at vertex heights of P, where
    # they pass through lattice vertices; a valid factor keeps the row
    # nonempty at every vertex height, hence everywhere between.  So the
    # region is a lattice polygon whose vertices all lie in the rows at
    # vertex heights, and the hull of those rows is the whole mutant.
    (ux, uy), (fx, fy) = (prof.vw.x, prof.vw.y), (prof.f0.x, prof.f0.y)
    pts = []
    for h, (a, b) in prof.rows.items():
        if t >= 0:
            b += h * t
        else:
            a += h * t
        # the row ends h*vw + a*f0 and h*vw + b*f0
        x, y = h * ux, h * uy
        pts += ((x + a * fx, y + a * fy), (x + b * fx, y + b * fy))
    cyc = _hull_pairs(pts)
    if any(type(x) is not int or type(y) is not int for x, y in cyc):  # pragma: no cover - structural guarantee
        raise AssertionError("mutation produced a non-lattice polygon")
    return cyc


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
    ax, ay = Q.vertices[-1].x, Q.vertices[-1].y
    sa = ax * fx + ay * fy
    for b in Q.vertices:
        bx, by = b.x, b.y
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
    P has, so a point or a segment is refused as not Fano."""
    if P.dim() != 2:
        raise fano.NotFano("operation requires a Fano polygon")
    out = []
    for a, b in P.edges():
        d = b - a
        out.append(primitivize(Vector2._of(-d.y, d.x)))  # inner normal for CCW order
    return sorted(set(out))


# the most classes a mutation graph may hold; one more is a DomainError,
# since the width of the graph, not its depth, drives the cost
GRAPH_CLASS_LIMIT = 20_000


def mutation_graph(P: Polygon, depth: int) -> MutationGraph:
    """Breadth-first graph of mutation classes reachable from P.

    Nodes are origin-preserving (linear) lattice-equivalence classes, told
    apart by geom.linear_normal_form; the representative of a class is the
    first polygon found in it.  Edges record the (w, t) of each mutation
    found, in the order found.  Fano polygons anchor the origin, so
    translations are not quotiented out.  Only P is proved Fano: a mutant
    of a Fano polygon is Fano, so each node inherits the root's proof and
    reads its weights off its vertices.

    Each node is expanded by one _factor_walk.  Mutants stay integer (x, y)
    vertex cycles: one hull, one class lookup (_ClassIndex: a cycle seen
    before, else the cheap invariant geom._cycle_invariant, and normal
    forms only when that invariant is shared), and a Polygon only for a
    new class.  The node found by (w, t) from src is mutated by (-w, t)
    back to src's representative, up to a shear along the kernel of w, so
    that edge is recorded as leading to src without building the mutant.
    More than GRAPH_CLASS_LIMIT classes is a DomainError.
    """
    _require_fano(P)
    if depth < 0:
        raise DomainError("depth must be nonnegative")

    nodes: list[GraphNode] = [_make_node(P)]
    classes = _ClassIndex(nodes)
    classes.setdefault([(v.x, v.y) for v in P.vertices], 0)
    # back[i] = (w, t, src): the mutation of node i back to the node src
    # that it was found from (none for the root)
    back: list[tuple[Optional[Vector2], int, int]] = [(None, 0, 0)]
    edges: list[GraphEdge] = []  # each (src, w, t) is visited once
    frontier = [0]
    for _ in range(depth):
        next_frontier: list[int] = []
        for src in frontier:
            w_back, t_back, home = back[src]
            for w, prof, t in _factor_walk(nodes[src].polygon):
                if t == t_back and w == w_back:
                    edges.append(GraphEdge(src, home, w, t))
                    continue
                cyc = _mutant(prof, t)
                tgt = classes.setdefault(cyc, len(nodes))
                if tgt == len(nodes):
                    if tgt == GRAPH_CLASS_LIMIT:
                        raise DomainError(
                            f"mutation graph exceeds the class budget GRAPH_CLASS_LIMIT = {GRAPH_CLASS_LIMIT}"
                        )
                    nodes.append(_make_node(_polygon_from_pairs(cyc)))
                    back.append((-w, t, src))
                    next_frontier.append(tgt)
                edges.append(GraphEdge(src, tgt, w, t))
        frontier = next_frontier
        if not frontier:
            break
    # "extra_scan" stays in the graph JSON as a constant: the edge normals
    # are complete, so no wider box of height functions is ever scanned
    meta = {"scan": "edge-normals (complete for factors)", "extra_scan": None, "depth": depth}
    return MutationGraph(tuple(nodes), tuple(edges), meta)


class _ClassIndex:
    """The classes of a mutation graph, looked up by a polygon's canonical
    integer vertex cycle in three steps: an identical cycle seen before is
    in its class; a cycle whose _cycle_invariant no class has is a new
    class; only otherwise are normal forms compared, the cycle's once and
    each class's (linear_normal_form of its node) once, when first needed.
    The normal form alone decides class identity: the invariant only
    skips forms that cannot match."""

    def __init__(self, nodes: list[GraphNode]):
        self.nodes = nodes  # the graph's node list, which the caller grows
        self.cycles: dict[tuple[tuple[int, int], ...], int] = {}
        self.invariants: dict[tuple[tuple[int, int], ...], list[int]] = {}
        self.forms: dict[int, tuple[tuple[int, int], ...]] = {}

    def setdefault(self, cyc: list[tuple[int, int]], new: int) -> int:
        """The class of the polygon with canonical cycle cyc; if it has
        none, the class is recorded as new, whose node the caller appends."""
        key = tuple(cyc)
        tgt = self.cycles.get(key)
        if tgt is None:
            same = self.invariants.setdefault(_cycle_invariant(cyc), [])
            form = _cycle_normal_form(cyc) if same else None
            tgt = next((j for j in same if self._form(j) == form), None)
            if tgt is None:
                tgt = new
                same.append(new)
                if form is not None:
                    self.forms[new] = form
            self.cycles[key] = tgt
        return tgt

    def _form(self, j: int) -> tuple[tuple[int, int], ...]:
        form = self.forms.get(j)
        if form is None:
            form = self.forms[j] = linear_normal_form(self.nodes[j].polygon)
        return form


def _make_node(P: Polygon) -> GraphNode:
    w = fano.triangle_weights(P)
    return GraphNode(P, w, fano.multiplicity(P) if w else None)

