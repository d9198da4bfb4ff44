"""One-parameter deformations of polarized toric surfaces from
combinatorial mutations, via admissible Minkowski decompositions of a
divisorial-polytope coefficient.

The pipeline mutates in the caller's frame, maps the polygon and its
mutant by a normalizer whose integer rows, read off `geom._height_frame`,
make the height function (0,-1), dilates the dual polygon to a lattice
polygon, splits the infinity coefficient into the affine part plus an
integral two-piece part, moves the split-off summand to a fresh point of
the projective line, reduces the three-coefficient divisorial polytope
back to a polygon by affine shifts, and certifies the result against the
dilated dual of the mutated polygon.

`mutation_to_deformation` is one check and a core: `mutate` checks the
factor and proves the source Fano once, in the caller's frame, and
`_deform` takes the mutant from it or from a caller that holds it already
(`batch-verify` and `polymut deform` without `--w`).  The core runs on
integer vertex cycles: the normalized source and mutant (det 1 keeps them
counterclockwise), the automatic dilation and both dilated duals, off one
dual walk per polygon (`geom._dual_walk`), both weight triples off
one set of minors, the divisorial polytope (`divpoly._cycle_divpoly`) and
the witness (`geom._cycle_maps`).  `is_admissible` checks the parts'
domains, then their sum and slopes in one walk along their breakpoints,
before `DivPoly.with_split` builds the general fiber, whose degree is
checked pointwise too; part1 = min(t*u, 0) comes off its breakpoints, and
the reduction moves whole affine coefficients, each line two quotients.
Once the witness exists, the certificate's normalized source, mutant and
target wrap the cycles already held (`geom._polygon_from_cycle`), and
`extends_over_p1` is written from its proof, which the tests replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import DomainError
from . import fano
from .divpoly import (
    INFINITY,
    DivPoly,
    DomainMismatch,
    LabelCollision,
    PLFunc,
    PointLabel,
    _cycle_divpoly,
    interval_str,
    shift_affine,
    to_polygon,
)
from .geom import (
    Mat2,
    Polygon,
    Rational,
    Vector2,
    _cycle_maps,
    _dual_walk,
    _height_frame,
    _lex_first,
    _polygon_from_cycle,
    _require_lattice_2d,
    polygon_to_json,
    qdiv,
    to_fraction,
    vector_to_json,
)
from .mutation import InvalidFactor, MutationData, mutate


class Inadmissible(DomainError):
    pass


class NoLatticeDilation(DomainError):
    pass


class FiberMismatch(DomainError):
    pass


@dataclass(frozen=True)
class Decomposition:
    """An admissible one-parameter Minkowski decomposition of the
    coefficient at `label` into part0 + part1."""

    label: PointLabel
    part0: PLFunc
    part1: PLFunc

    def __post_init__(self):
        # part0 + part1 is undefined on different domains
        if self.part0.domain != self.part1.domain:
            raise DomainMismatch(
                "decomposition parts' domains differ: "
                f"{interval_str(self.part0.domain)} vs {interval_str(self.part1.domain)}"
            )

    def to_json(self) -> dict:
        return {
            "label": str(self.label),
            "part0": self.part0.to_json(),
            "part1": self.part1.to_json(),
        }


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violations: tuple[str, ...]


def is_admissible(phi: PLFunc, phi0: PLFunc, phi1: PLFunc) -> AdmissibilityReport:
    """Check the three decomposition conditions: lattice graphs of both
    parts, exact pointwise sum, and at most one part with non-integral
    slope on each maximal affine piece of phi, read in one walk along the
    sorted union of the three functions' breakpoints, between neighbours
    of which all three are affine."""
    if phi.domain != phi0.domain or phi.domain != phi1.domain:
        raise DomainMismatch(
            "decomposition domains differ: "
            f"{interval_str(phi.domain)}, {interval_str(phi0.domain)}, {interval_str(phi1.domain)}"
        )
    parts = (("part0", phi0), ("part1", phi1))
    violations = [f"{name}: graph vertices not in the lattice" for name, f in parts if not f.has_lattice_graph()]
    us = sorted(set(phi.breaks).union(phi0.breaks, phi1.breaks))
    if any(x + y != z for x, y, z in zip(phi0._at(us), phi1._at(us), phi._at(us))):
        violations.append("parts do not sum to the decomposed function")
    # part k is bad on phi's piece [bs[i], bs[i+1]] when its slope sk[jk]
    # on a step between neighbours inside that piece is non-integral
    (bs, b0, b1), (s0, s1) = (phi.breaks, phi0.breaks, phi1.breaks), (phi0.slopes(), phi1.slopes())
    i = j0 = j1 = bad0 = bad1 = 0
    for u in us[1:]:
        bad0 |= s0[j0].denominator != 1
        bad1 |= s1[j1].denominator != 1
        j0 += u == b0[j0 + 1]
        j1 += u == b1[j1 + 1]
        if u == bs[i + 1]:
            if bad0 and bad1:
                violations.append(f"both parts have non-integral slope on [{bs[i]}, {u}]")
            i, bad0, bad1 = i + 1, 0, 0
    return AdmissibilityReport(not violations, tuple(violations))


def general_fiber(dp: DivPoly, d: Decomposition) -> DivPoly:
    """Divisorial polytope of the general fiber: the decomposed coefficient
    is replaced by part0, and part1 moves to the fresh parameter point s."""
    phi = dp.coefficient(d.label)
    report = is_admissible(phi, d.part0, d.part1)
    if not report.admissible:
        raise Inadmissible("; ".join(report.violations))
    fresh = PointLabel.param("s")
    if fresh in dp.coeffs or fresh == d.label:
        raise LabelCollision(f"parameter label already in use: {fresh.name!r}")
    # is_admissible proved both parts defined on phi's domain, the box
    out = dp.with_split(d.label, d.part0, fresh, d.part1)
    # the degree is unchanged: both are affine between neighbours of us
    us = sorted(set(d.part0.breaks).union(d.part1.breaks, *(f.breaks for f in dp.coeffs.values())))
    assert out._degree_at(us) == dp._degree_at(us)
    return out


@dataclass(frozen=True)
class ShiftRecord:
    frm: PointLabel
    to: PointLabel
    slope: Rational
    intercept: Rational

    def is_integral(self) -> bool:
        """Integral shifts twist by a principal divisor and a character and
        therefore preserve the polarized variety; non-integral ones do not
        and are only sanctioned by the deformation theorem."""
        return self.slope.denominator == 1 and self.intercept.denominator == 1

    def to_json(self) -> dict:
        return {
            "from": str(self.frm),
            "to": str(self.to),
            "slope": str(self.slope),
            "intercept": str(self.intercept),
        }


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reduce_to_polygon; irreducibility is a reported state
    (a non-toric complexity-one fiber), not an exception."""

    reducible: bool
    polygon: Optional[Polygon]
    shifts: tuple[ShiftRecord, ...]
    divpoly: Optional[DivPoly]
    reason: Optional[str] = None


def _lattice_ok(dp: DivPoly, nt: list[PointLabel]) -> bool:
    # nt is dp.nontrivial_labels()
    return all(dp.coeffs[l].has_lattice_graph() for l in nt)


def _moves(cur: DivPoly, nt: list[PointLabel]) -> Iterator[tuple[PointLabel, PointLabel, Rational, Rational]]:
    """(frm, to, s, c) for each move of reduce_to_polygon on cur, whose
    nontrivial labels are nt, in the order tried: the integral lines in
    label order, each onto every other label, then the others, each onto
    the freshest label first.  A line s*u + c is read off its affine
    coefficient's two points only when its first move is tried, and judged
    integral by two remainders, which build no Fraction on an int-valued
    line."""
    rest = []  # (label, s*d, c*d, d) of each non-integral line
    for frm in nt:
        f = cur.coeffs[frm]
        if not f.is_affine():
            continue
        (b0, b1), (v0, v1) = f.breaks, f.values
        d, sd, cd = b1 - b0, v1 - v0, v0 * b1 - v1 * b0
        if sd % d or cd % d:  # d > 0: exact, and Fraction-free on ints
            rest.append((frm, sd, cd, d))
            continue
        yield from ((frm, to, sd // d, cd // d) for to in nt if to != frm)
    freshest_first = sorted(nt, key=lambda l: -l.kind)  # stable: by name within a kind
    for frm, sd, cd, d in rest:
        s, c = qdiv(sd, d), qdiv(cd, d)
        yield from ((frm, to, s, c) for to in freshest_first if to != frm)


def reduce_to_polygon(dp: DivPoly) -> ReductionResult:
    """Move whole affine coefficients onto other labels until at most two
    nontrivial coefficients remain, then reconstruct the polygon.

    Each step tries the nontrivial affine coefficients in label order, each
    onto every other nontrivial label; moving the whole line zeroes the
    source, so the count drops.  Integral lines go first: their shifts
    twist by a principal divisor and a character, hence are isomorphisms.
    A non-integral shift is not; the one the deformation proof sanctions
    absorbs the spectator into the freshest parameter label, so those moves
    take their targets by decreasing kind.  The first move that keeps every
    graph in the lattice is taken and recorded; on the pipeline's general
    fibers that is one shift.  A coefficient of two or more pieces never
    moves, so a fiber without an affine one to move is refused."""
    shifts: list[ShiftRecord] = []
    cur = dp
    nt = cur.nontrivial_labels()  # kept equal to cur.nontrivial_labels()
    while len(nt) > 2:
        for frm, to, s, c in _moves(cur, nt):
            nxt = shift_affine(cur, frm, to, s, c)
            nt_next = nxt.nontrivial_labels()
            if _lattice_ok(nxt, nt_next):
                shifts.append(ShiftRecord(frm, to, s, c))
                cur, nt = nxt, nt_next
                break
        else:
            return ReductionResult(
                False, None, tuple(shifts), None,
                "no affine shift reduces the nontrivial coefficients",
            )
    if not _lattice_ok(cur, nt):
        return ReductionResult(
            False, None, tuple(shifts), None,
            "reduced coefficients fail the lattice-graph condition",
        )
    return ReductionResult(True, to_polygon(cur), tuple(shifts), cur)


@dataclass(frozen=True)
class CorollaryReport:
    """Structural check of the constructed decomposition: part0 affine and
    part1 made of exactly two integral-slope pieces, one of slope zero."""

    passed: bool
    clauses: dict = field(hash=False)
    common_slope: Optional[Rational] = None
    step_slopes: tuple[Rational, ...] = ()

    def slope_decomposition(self) -> str:
        cs = str(self.common_slope) if self.common_slope is not None else "?"
        steps = ", ".join(str(s) for s in sorted(self.step_slopes))
        return f"{cs} + {{{steps}}}"

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "clauses": dict(self.clauses),
            "slope_decomposition": self.slope_decomposition(),
        }


def corollary_check(d: Decomposition) -> CorollaryReport:
    slopes1 = d.part1.slopes()
    clauses = {
        "part0_affine": d.part0.is_affine(),
        "part1_exactly_two_pieces": len(slopes1) == 2,
        "part1_integral_slopes": all(s.denominator == 1 for s in slopes1),
        "part1_has_zero_slope": any(s == 0 for s in slopes1),
    }
    common = d.part0.slopes()[0] if d.part0.is_affine() else None
    return CorollaryReport(all(clauses.values()), clauses, common, slopes1)


@dataclass(frozen=True)
class DeformationCertificate:
    """Everything needed to re-verify one mutation-to-deformation run."""

    source: Polygon
    normalizer: Mat2
    normalized_source: Polygon
    mutation: MutationData
    mutated: Polygon
    dilation: int
    divpoly: DivPoly
    decomposition: Decomposition
    fiber_divpoly: DivPoly
    reduction: ReductionResult
    fiber_polygon: Polygon
    target: Polygon
    witness: tuple[Mat2, Vector2]
    corollary: CorollaryReport
    extends_over_p1: bool
    in_diophantine_class: Optional[bool]

    def to_json(self) -> dict:
        U, t = self.witness
        return {
            "source": polygon_to_json(self.source),
            "normalizer": [list(r) for r in self.normalizer],
            "normalized_source": polygon_to_json(self.normalized_source),
            "mutation": self.mutation.to_json(),
            "mutated": polygon_to_json(self.mutated),
            "dilation": self.dilation,
            "divpoly": self.divpoly.to_json(),
            "decomposition": self.decomposition.to_json(),
            "fiber_divpoly": self.fiber_divpoly.to_json(),
            "shifts": [s.to_json() for s in self.reduction.shifts],
            "fiber_polygon": polygon_to_json(self.fiber_polygon),
            "target": polygon_to_json(self.target),
            "witness": {"matrix": [list(r) for r in U], "translation": vector_to_json(t)},
            "corollary": self.corollary.to_json(),
            "extends_over_p1": self.extends_over_p1,
            "in_diophantine_class": self.in_diophantine_class,
        }


_NORMAL_W, _NORMAL_F0 = Vector2(0, -1), Vector2(1, 0)  # every normalized mutation's w and f0


def _normalizer_for(w: Vector2) -> Mat2:
    """Unimodular U with heights of U*P under (0,-1) matching heights of P
    under w and the factor direction mapped to (1, 0), for a primitive w,
    as mutate checked: for a non-primitive w, det U would be gcd(w)."""
    _, (a, b) = _height_frame(w.x, w.y)
    # rows: s = (-vw.y, vw.x) and -w; det = <s, vw> = 1, U*f0 = U*(-q, p) = (1, 0)
    return ((-b, a), (-w.x, -w.y))


def _transform_mutation(md: MutationData) -> MutationData:
    """md re-expressed for U*P along (0, -1).  U = _normalizer_for(md.w)
    keeps heights and sends the kernel direction (-q, p) of w = (p, q) to
    (1, 0), and only it, as U is invertible; a factor along the other
    direction is refused, since it would silently turn into its negative."""
    if (md.f0.x, md.f0.y) != (-md.w.y, md.w.x):
        raise InvalidFactor(
            f"factor direction {md.f0} is not the direction "
            f"({-md.w.y}, {md.w.x}) that deform normalizes to (1, 0) for w={md.w}"
        )
    return MutationData(w=_NORMAL_W, t=md.t, f0=_NORMAL_F0)


def standard_decomposition(dp: DivPoly, t: int) -> Decomposition:
    """Split the infinity coefficient as (phi - part1) + part1 with
    part1 = min(t*u, 0); for the maximal factor length this makes part0 the
    affine extension of the right-hand piece, as in the deformation proof."""
    phi = dp.coefficient(INFINITY)
    part1 = PLFunc._kink(dp.box, to_fraction(t))
    part0 = phi - part1
    return Decomposition(INFINITY, part0, part1)


def mutation_to_deformation(
    P: Polygon, md: MutationData, dilation: Optional[int] = None
) -> DeformationCertificate:
    """Run the full mutation-to-deformation pipeline and certify it.

    Raises FiberMismatch when the reduced general fiber is not equivalent
    to the dilated dual of the mutated polygon; this happens exactly for
    weight-increasing mutations, whose deformation is isotrivial (the
    smooth-side surface is rigid), and the diagnostics say so.
    """
    return _deform(P, md, mutate(P, md), dilation)


def _deform(
    P: Polygon, md: MutationData, mutant: Polygon, dilation: Optional[int]
) -> DeformationCertificate:
    """mutation_to_deformation for mutant = mutate(P, md), which proved P
    and so its mutant Fano.  Every polygon step runs on integer vertex
    cycles; a certificate wraps the canonical ones it holds as polygons
    once the witness exists, so a refused attempt builds none of them."""
    if len(P.cycle) != 3:
        raise fano.NotATriangle("the deformation pipeline needs a Fano triangle")
    U = _normalizer_for(md.w)
    mdn = _transform_mutation(md)
    # mutation commutes with U: U*mutate(P, md) is mutate(U*P, mdn), and
    # det(U) = 1 keeps both image cycles counterclockwise
    (u00, u01), (u10, u11) = U
    pn, q = (_lex_first([(u00 * x + u01 * y, u10 * x + u11 * y) for x, y in X.cycle]) for X in (P, mutant))
    # one dual walk each: ap*dual(pn) is the lattice polygon pv, ap least
    (ap, pv), (aq, qv) = _dual_walk(pn), _dual_walk(q)
    auto = math.lcm(ap, aq)
    a = auto if dilation is None else dilation
    # the automatic dilation always passes: it clears every denominator;
    # to_fraction refuses a dilation that is not an exact rational, as
    # geom.dilate does
    pa = None if a < 1 else _times(pv, r := to_fraction(a), ap)
    if pa is None or any(type(c) is not int for v in pa for c in v):
        raise NoLatticeDilation(f"dilation {a} does not make the dual a lattice polygon (minimal valid: {auto})")
    dp = _cycle_divpoly(pa)
    d = standard_decomposition(dp, mdn.t)
    fiber_dp = general_fiber(dp, d)
    red = reduce_to_polygon(fiber_dp)
    if not red.reducible:
        raise FiberMismatch(f"fiber is not reducible to a toric polygon: {red.reason}")
    # A non-integral reduction shift is not an isomorphism of polarized
    # varieties; the deformation theorem sanctions it exactly in the
    # smoothing (weight-decreasing) direction.  In the opposite direction
    # the reduced polygon is formal only, so refuse to certify it.
    # mutate proved P Fano, so both weight triples are read off the cycles
    wp = fano._weights_and_multiplicity(*pn)[0]
    wq = fano._weights_and_multiplicity(*q)[0] if len(q) == 3 else None
    if any(not s.is_integral() for s in red.shifts) and not weights_decrease(wp, wq):
        raise FiberMismatch(
            "reduction needs a non-isomorphism shift but the mutation does "
            "not decrease the weights; the general fiber is not the mutated "
            "plane in this direction"
        )
    tq = _times(qv, r, aq)
    if any(type(c) is not int for v in tq for c in v):
        raise FiberMismatch(f"dilation {a} does not make the mutated dual a lattice polygon")
    _require_lattice_2d(red.polygon)
    fc = red.polygon.cycle
    m = next(_cycle_maps(fc, tq), None)
    if m is None:
        diag = "fiber polygon is not equivalent to the dilated mutated dual"
        if next(_cycle_maps(fc, pa), None) is not None:
            diag += "; the family is isotrivial (fiber matches the source polarization)"
        raise FiberMismatch(diag)
    cor = corollary_check(d)
    in_class: Optional[bool] = None
    if wq is not None:
        in_class = fano.diophantine_class(wp) == fano.diophantine_class(wq)
    # pn and q are det-1 images rotated to their lex-least vertex, and tq a
    # positive scaling of _dual_walk's canonical cycle: all three canonical
    return DeformationCertificate(
        source=P,
        normalizer=U,
        normalized_source=_polygon_from_cycle(pn),
        mutation=mdn,
        mutated=_polygon_from_cycle(q),
        dilation=a,
        divpoly=dp,
        decomposition=d,
        fiber_divpoly=fiber_dp,
        reduction=red,
        fiber_polygon=red.polygon,
        target=_polygon_from_cycle(tq),
        witness=(m[0], Vector2(*m[1])),
        corollary=cor,
        # the upper envelope of the lattice polygon pa and part1 =
        # min(t*u, 0) have lattice graphs and part1 integral slopes, so no
        # piece is bad for both parts: the family extends over P^1
        extends_over_p1=True,
        in_diophantine_class=in_class,
    )


def _times(vs: list[tuple[int, int]], r: Rational, d: int) -> list[tuple[Rational, Rational]]:
    """The integer pairs vs times r/d, for an exact r > 0 and an int d > 0."""
    return [(qdiv(r * x, d), qdiv(r * y, d)) for x, y in vs]


def weights_decrease(wp: fano.WeightTriple, wq: Optional[fano.WeightTriple]) -> bool:
    """The smoothing-direction rule: True when a mutation of a triangle with
    weights wp to one with weights wq strictly decreases the weight sum, so
    that the deformation smooths the source rather than being isotrivial.
    wq is None for a mutant that is not a triangle, which never counts."""
    return wq is not None and sum(wq) < sum(wp)


def is_weight_reducing(P: Polygon, md: MutationData) -> bool:
    """weights_decrease for the Fano triangle P and its mutant by md:
    a P that is no triangle is refused first, then mutate proves P, and
    so its mutant, Fano once, and both weights are read off the cycles."""
    fano._triangle_cycle(P)  # raises NotATriangle
    Q = mutate(P, md)
    return weights_decrease(fano.triangle_weights(P), fano.triangle_weights(Q))
