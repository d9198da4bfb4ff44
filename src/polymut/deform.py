"""One-parameter deformations of polarized toric surfaces from
combinatorial mutations, via admissible Minkowski decompositions of a
divisorial-polytope coefficient.

The pipeline normalizes the mutation so its height function is (0,-1),
dilates the dual polygon to a lattice polygon, splits the infinity
coefficient into the affine part plus an integral two-piece part, moves
the split-off summand to a fresh point of the projective line, reduces the
three-coefficient divisorial polytope back to a polygon by affine shifts,
and certifies the result against the dilated dual of the mutated polygon.

Each step is built once and trusts what an earlier step proved:
`geom.mat_image` keeps the source's cycle under the normalizer, whose
determinant is 1; `geom.dual_denominator` and `geom.dilated_dual` give the
automatic dilation and the dilated duals without the undilated duals;
`mutate` proves the normalized source Fano, so both weight triples are read
by `fano.weights_of_vertices`; `is_admissible` checks that the parts are
defined on the box before `DivPoly.with_split` builds the general fiber;
and the reduction computes each divisorial polytope's nontrivial labels
once and tries the shifts as `_shift_candidates` walks them, in order,
building only the ones it tries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import DomainError
from . import fano
from .divpoly import (
    INFINITY,
    ZERO,
    DivPoly,
    DomainMismatch,
    LabelCollision,
    PLFunc,
    PointLabel,
    from_polygon,
    interval_str,
    kink,
    shift_affine,
    to_polygon,
)
from .geom import (
    Mat2,
    Polygon,
    Rational,
    Vector2,
    dilated_dual,
    dual_denominator,
    height_basis,
    lattice_equivalent,
    mat_apply,
    mat_image,
    polygon_to_json,
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
    slope on each maximal affine piece of phi."""
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
    parts = (phi0.pieces(), phi1.pieces())
    for a, b, _ in phi.pieces():
        # a part is bad on [a, b] when a piece of it meeting [a, b] has a
        # non-integral slope
        bad = sum(
            any(s.denominator != 1 for l, r, s in pieces if l < b and a < r)
            for pieces in parts
        )
        if bad > 1:
            violations.append(f"both parts have non-integral slope on [{a}, {b}]")
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
    assert out.degree() == dp.degree()  # degree function unchanged pointwise
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


def _shift_candidates(dp: DivPoly) -> Iterator[ShiftRecord]:
    """Count-reducing single shifts by affine pieces of existing
    coefficients, in the order reduce_to_polygon tries them.

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
            lines = [(slope, va - slope * a) for (a, _, slope), va in zip(cf.pieces(), cf.values)]
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


def reduce_to_polygon(dp: DivPoly) -> ReductionResult:
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


def _normalizer_for(w: Vector2) -> Mat2:
    """Unimodular U with heights of U*P under (0,-1) matching heights of P
    under w, and with the factor direction mapped to (1, 0).  For a
    non-primitive w these rows would have determinant gcd(w), so
    height_basis refuses it."""
    _, _, s = height_basis(w)
    # rows: s and -w; det = <s, vw> = 1, U*f0 = U*(-q, p) = (1, 0)
    return ((s.x, s.y), (-w.x, -w.y))


def _transform_mutation(md: MutationData, U: Mat2) -> MutationData:
    """md re-expressed for U*P along (0, -1).  U = _normalizer_for(md.w)
    keeps heights and sends the kernel direction (-q, p) of w = (p, q) to
    (1, 0); a factor along the other direction is refused, since it would
    silently turn into its negative."""
    if mat_apply(U, md.f0) != Vector2(1, 0):
        raise InvalidFactor(
            f"factor direction {md.f0} is not the direction "
            f"{Vector2(-md.w.y, md.w.x)} that deform normalizes to (1, 0) for w={md.w}"
        )
    return MutationData(w=Vector2(0, -1), t=md.t, f0=Vector2(1, 0))


def standard_decomposition(dp: DivPoly, t: int) -> Decomposition:
    """Split the infinity coefficient as (phi - part1) + part1 with
    part1 = min(t*u, 0); for the maximal factor length this makes part0 the
    affine extension of the right-hand piece, as in the deformation proof."""
    phi = dp.coefficient(INFINITY)
    # to_fraction refuses a t that is not an exact rational, as
    # PLFunc.min_of_affines would
    part1 = kink(dp.box, to_fraction(t))
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
    if len(P.vertices) != 3:
        raise fano.NotATriangle("the deformation pipeline needs a Fano triangle")
    U = _normalizer_for(md.w)
    Pn = mat_image(U, P)  # det(U) = 1
    mdn = _transform_mutation(md, U)
    Q = mutate(Pn, mdn)  # proves Pn Fano, so Q is Fano as well
    auto = math.lcm(dual_denominator(Pn), dual_denominator(Q))
    a = auto if dilation is None else dilation
    # the automatic dilation always passes: it clears every denominator;
    # to_fraction refuses a dilation that is not an exact rational, as
    # geom.dilate does
    if a < 1 or not (Pa := dilated_dual(Pn, to_fraction(a))).is_lattice():
        raise NoLatticeDilation(
            f"dilation {a} does not make the dual a lattice polygon (minimal valid: {auto})"
        )
    dp = from_polygon(Pa)
    d = standard_decomposition(dp, mdn.t)
    fiber_dp = general_fiber(dp, d)
    red = reduce_to_polygon(fiber_dp)
    if not red.reducible:
        raise FiberMismatch(f"fiber is not reducible to a toric polygon: {red.reason}")
    # A non-integral reduction shift is not an isomorphism of polarized
    # varieties; the deformation theorem sanctions it exactly in the
    # smoothing (weight-decreasing) direction.  In the opposite direction
    # the reduced polygon is formal only, so refuse to certify it.
    # mutate proved Pn Fano, and Q is its mutant, so the weights are read
    # off the vertices without proving either Fano again
    wp = fano.weights_of_vertices(*Pn.vertices)
    wq = fano.weights_of_vertices(*Q.vertices) if len(Q.vertices) == 3 else None
    if any(not s.is_integral() for s in red.shifts) and not weights_decrease(wp, wq):
        raise FiberMismatch(
            "reduction needs a non-isomorphism shift but the mutation does "
            "not decrease the weights; the general fiber is not the mutated "
            "plane in this direction"
        )
    target = dilated_dual(Q, to_fraction(a))
    if not target.is_lattice():
        raise FiberMismatch(
            f"dilation {a} does not make the mutated dual a lattice polygon"
        )
    witness = lattice_equivalent(red.polygon, target)
    if witness is None:
        diag = "fiber polygon is not equivalent to the dilated mutated dual"
        if lattice_equivalent(red.polygon, Pa) is not None:
            diag += "; the family is isotrivial (fiber matches the source polarization)"
        raise FiberMismatch(diag)
    cor = corollary_check(d)
    phi0_sum = dp.coefficient(ZERO)
    # part1 = min(t*u, 0) has a lattice graph, as does the zero coefficient
    # of a lattice polygon, so part1 always passes and is tried first
    extends = any(
        is_admissible(phi0_sum + part, phi0_sum, part).admissible
        for part in (d.part1, d.part0)
    )
    in_class: Optional[bool] = None
    if wq is not None:
        in_class = fano.diophantine_class(wp) == fano.diophantine_class(wq)
    return DeformationCertificate(
        source=P,
        normalizer=U,
        normalized_source=Pn,
        mutation=mdn,
        mutated=Q,
        dilation=a,
        divpoly=dp,
        decomposition=d,
        fiber_divpoly=fiber_dp,
        reduction=red,
        fiber_polygon=red.polygon,
        target=target,
        witness=witness,
        corollary=cor,
        extends_over_p1=extends,
        in_diophantine_class=in_class,
    )


def weights_decrease(wp: fano.WeightTriple, wq: Optional[fano.WeightTriple]) -> bool:
    """The smoothing-direction rule: True when a mutation of a triangle with
    weights wp to one with weights wq strictly decreases the weight sum, so
    that the deformation smooths the source rather than being isotrivial.
    wq is None for a mutant that is not a triangle, which never counts."""
    return wq is not None and sum(wq) < sum(wp)


def is_weight_reducing(P: Polygon, md: MutationData) -> bool:
    """weights_decrease for the Fano triangle P and its mutant by md."""
    wp = fano.weights(P)
    Q = mutate(P, md)  # the mutant of a Fano polygon is Fano
    return weights_decrease(wp, fano.weights_of_vertices(*Q.vertices) if len(Q.vertices) == 3 else None)
