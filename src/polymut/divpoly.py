"""Divisorial polytopes of polarized toric surfaces with the subtorus
action fixed to first-coordinate projection.

A divisorial polytope is a rational interval (the box) together with
finitely many concave piecewise-linear coefficient functions labelled by
points of the projective line; unlabelled points implicitly carry the zero
function.  A lattice polygon gives one via its upper envelope (the
coefficient at zero) and its negated lower envelope (at infinity).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import DomainError
from .geom import (
    Polygon,
    Rational,
    RationalLike,
    Vector2,
    qdiv,
    to_fraction,
)


class NotLatticePolygon(DomainError):
    pass


class NotFullDimensionalPolygon(DomainError):
    pass


class TooManyNontrivialCoefficients(DomainError):
    pass


class EmptyFiber(DomainError):
    pass


class ConcavityBroken(DomainError):
    pass


class DomainMismatch(DomainError):
    pass


class LabelCollision(DomainError):
    pass


@dataclass(frozen=True, order=True)
class PointLabel:
    """A closed point of the projective line: zero, infinity, or a named
    parameter point (the general-fiber location)."""

    kind: int  # 0 = zero, 1 = infinity, 2 = parameter
    name: str = ""

    def __str__(self) -> str:
        if self.kind == 0:
            return "0"
        if self.kind == 1:
            return "inf"
        return self.name

    @staticmethod
    def param(name: str) -> "PointLabel":
        if not name or name in ("0", "inf"):
            raise DomainError(f"bad parameter label: {name!r}")
        return PointLabel(2, name)

    @staticmethod
    def parse(s: str) -> "PointLabel":
        if s == "0":
            return ZERO
        if s == "inf":
            return INFINITY
        return PointLabel.param(s)


ZERO = PointLabel(0)
INFINITY = PointLabel(1)


def interval_str(iv: tuple[Rational, Rational]) -> str:
    """An interval's endpoints as canonical rationals: '(1/2, 3)'."""
    return f"({iv[0]}, {iv[1]})"


class PLFunc:
    """Concave piecewise-linear function on a rational interval, stored by
    breakpoints and values with no redundant breakpoints."""

    __slots__ = ("breaks", "values")

    def __init__(self, breaks: Sequence[RationalLike], values: Sequence[RationalLike]):
        bs = tuple(to_fraction(b) for b in breaks)
        vs = tuple(to_fraction(v) for v in values)
        if len(bs) != len(vs) or len(bs) < 2:
            raise DomainError("need matching breakpoint and value lists (>= 2 points)")
        if any(b1 >= b2 for b1, b2 in zip(bs, bs[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        # merge breakpoints where the slope does not change; the slopes of
        # the kept segments are then the merged ones
        slopes = [qdiv(vs[i + 1] - vs[i], bs[i + 1] - bs[i]) for i in range(len(bs) - 1)]
        keep = [0] + [i for i in range(1, len(bs) - 1) if slopes[i - 1] != slopes[i]]
        slopes = [slopes[i] for i in keep]
        keep.append(len(bs) - 1)
        bs = tuple(bs[i] for i in keep)
        vs = tuple(vs[i] for i in keep)
        if any(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:])):
            raise ConcavityBroken("slopes must be nonincreasing")
        object.__setattr__(self, "breaks", bs)
        object.__setattr__(self, "values", vs)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("PLFunc is immutable")

    # --- constructors ---

    @staticmethod
    def constant(domain: tuple[RationalLike, RationalLike], c: RationalLike) -> "PLFunc":
        return PLFunc.affine(domain, 0, c)

    @staticmethod
    def affine(domain: tuple[RationalLike, RationalLike], slope: RationalLike, intercept: RationalLike) -> "PLFunc":
        a, b = to_fraction(domain[0]), to_fraction(domain[1])
        s, c = to_fraction(slope), to_fraction(intercept)
        return PLFunc([a, b], [s * a + c, s * b + c])

    @staticmethod
    def min_of_affines(domain: tuple[RationalLike, RationalLike], affines: Iterable[tuple[RationalLike, RationalLike]]) -> "PLFunc":
        """Pointwise minimum of affine functions (slope, intercept)."""
        a, b = to_fraction(domain[0]), to_fraction(domain[1])
        fns = [(to_fraction(s), to_fraction(c)) for s, c in affines]
        if not fns:
            raise DomainError("need at least one affine function")
        us = {a, b}
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                s1, c1 = fns[i]
                s2, c2 = fns[j]
                if s1 != s2:
                    u = qdiv(c2 - c1, s1 - s2)
                    if a < u < b:
                        us.add(u)
        bs = sorted(us)
        vs = [min(s * u + c for s, c in fns) for u in bs]
        return PLFunc(bs, vs)

    # --- basic queries ---

    @property
    def domain(self) -> tuple[Rational, Rational]:
        return self.breaks[0], self.breaks[-1]

    def __call__(self, u: RationalLike) -> Rational:
        u = to_fraction(u)
        if u < self.breaks[0] or u > self.breaks[-1]:
            raise DomainError(f"{u} is outside the domain {interval_str(self.domain)}")
        i = bisect.bisect_right(self.breaks, u) - 1
        if i == len(self.breaks) - 1:
            return self.values[-1]
        b1, b2 = self.breaks[i], self.breaks[i + 1]
        v1, v2 = self.values[i], self.values[i + 1]
        return v1 + qdiv((v2 - v1) * (u - b1), b2 - b1)

    def slopes(self) -> tuple[Rational, ...]:
        return tuple(
            qdiv(v2 - v1, b2 - b1)
            for (b1, v1), (b2, v2) in zip(zip(self.breaks, self.values), zip(self.breaks[1:], self.values[1:]))
        )

    def pieces(self) -> tuple[tuple[Rational, Rational, Rational], ...]:
        """Maximal affine pieces as (left, right, slope)."""
        return tuple(
            (b1, b2, s)
            for (b1, b2), s in zip(zip(self.breaks, self.breaks[1:]), self.slopes())
        )

    def slopes_on(self, a: Rational, b: Rational) -> tuple[Rational, ...]:
        return tuple(s for l, r, s in self.pieces() if l < b and a < r)

    def is_affine(self) -> bool:
        return len(self.breaks) == 2

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def has_lattice_graph(self) -> bool:
        """Graph vertices (breakpoint, value) all lie in the integer lattice."""
        return all(b.denominator == 1 and v.denominator == 1 for b, v in zip(self.breaks, self.values))

    def integral(self) -> Rational:
        """Exact integral over the domain (trapezoid rule is exact here)."""
        s = 0
        for (b1, v1), (b2, v2) in zip(zip(self.breaks, self.values), zip(self.breaks[1:], self.values[1:])):
            s += qdiv((v1 + v2) * (b2 - b1), 2)
        return s

    # --- arithmetic ---

    def _binop(self, other: "PLFunc", sign: int) -> "PLFunc":
        if self.domain != other.domain:
            raise DomainMismatch(
                f"domains differ: {interval_str(self.domain)} vs {interval_str(other.domain)}"
            )
        us = sorted(set(self.breaks) | set(other.breaks))
        return PLFunc(us, [self(u) + sign * other(u) for u in us])

    def __add__(self, other: "PLFunc") -> "PLFunc":
        return self._binop(other, 1)

    def __sub__(self, other: "PLFunc") -> "PLFunc":
        return self._binop(other, -1)

    def add_affine(self, slope: RationalLike, intercept: RationalLike) -> "PLFunc":
        s, c = to_fraction(slope), to_fraction(intercept)
        return PLFunc(self.breaks, [v + s * b + c for v, b in zip(self.values, self.breaks)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PLFunc)
            and self.breaks == other.breaks
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.breaks, self.values))

    def __repr__(self) -> str:
        pts = ", ".join(f"({b}, {v})" for b, v in zip(self.breaks, self.values))
        return f"PLFunc[{pts}]"

    def to_json(self) -> dict:
        return {
            "breaks": [str(b) for b in self.breaks],
            "values": [str(v) for v in self.values],
        }

    @staticmethod
    def from_json(obj) -> "PLFunc":
        if not isinstance(obj, dict) or "breaks" not in obj or "values" not in obj:
            raise DomainError("PL function JSON needs 'breaks' and 'values'")
        return PLFunc([to_fraction(b) for b in obj["breaks"]], [to_fraction(v) for v in obj["values"]])


class DivPoly:
    """Box plus labelled concave coefficient functions on that box."""

    __slots__ = ("box", "coeffs")

    def __init__(self, box: tuple[RationalLike, RationalLike], coeffs: Mapping[PointLabel, PLFunc]):
        lo, hi = to_fraction(box[0]), to_fraction(box[1])
        if lo >= hi:
            raise DomainError("box must be a nondegenerate interval")
        cs = dict(coeffs)
        for label, f in cs.items():
            if not isinstance(label, PointLabel):
                raise DomainError(f"bad label: {label!r}")
            if f.domain != (lo, hi):
                raise DomainMismatch(
                    f"coefficient at {label} has domain {interval_str(f.domain)}, "
                    f"box is {interval_str((lo, hi))}"
                )
        object.__setattr__(self, "box", (lo, hi))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("DivPoly is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DivPoly)
            and self.box == other.box
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        cs = ", ".join(f"{l}: {f!r}" for l, f in sorted(self.coeffs.items()))
        return f"DivPoly[box={interval_str(self.box)}, {cs}]"

    def labels(self) -> list[PointLabel]:
        return sorted(self.coeffs)

    def coefficient(self, label: PointLabel) -> PLFunc:
        """The stored coefficient, or the zero function for unlabelled points."""
        f = self.coeffs.get(label)
        if f is None:
            return PLFunc.constant(self.box, 0)
        return f

    def nontrivial_labels(self) -> list[PointLabel]:
        return [l for l in self.labels() if not self.coeffs[l].is_zero()]

    def degree(self) -> PLFunc:
        """Pointwise sum of all coefficients (piecewise linear, maybe not
        concave in general, but sums of concave functions are concave)."""
        fs = list(self.coeffs.values())
        if not fs:
            return PLFunc.constant(self.box, 0)
        acc = fs[0]
        for f in fs[1:]:
            acc = acc + f
        return acc

    def with_coefficient(self, label: PointLabel, f: PLFunc) -> "DivPoly":
        cs = dict(self.coeffs)
        cs[label] = f
        return DivPoly(self.box, cs)

    def to_json(self) -> dict:
        return {
            "box": [str(self.box[0]), str(self.box[1])],
            "coeffs": {str(l): self.coeffs[l].to_json() for l in self.labels()},
        }

    @staticmethod
    def from_json(obj) -> "DivPoly":
        if not isinstance(obj, dict) or "box" not in obj or "coeffs" not in obj:
            raise DomainError("divisorial polytope JSON needs 'box' and 'coeffs'")
        box = (to_fraction(obj["box"][0]), to_fraction(obj["box"][1]))
        coeffs = {PointLabel.parse(k): PLFunc.from_json(v) for k, v in obj["coeffs"].items()}
        return DivPoly(box, coeffs)


def _lower_chain(P: Polygon) -> list[tuple[Rational, Rational]]:
    """Breakpoints of the lower envelope of a full-dimensional polygon."""
    verts = P.vertices
    n = len(verts)
    chain = [verts[0]]
    i = 0
    while True:
        nxt = verts[(i + 1) % n]
        if nxt.x > chain[-1].x:
            chain.append(nxt)
            i += 1
        else:
            break
    return [(v.x, v.y) for v in chain]


def from_polygon(delta: Polygon) -> DivPoly:
    """Divisorial polytope of a lattice polygon for the first-coordinate
    subtorus: the coefficient at zero is the upper envelope, the one at
    infinity the negated lower envelope."""
    if delta.dim() != 2:
        raise NotFullDimensionalPolygon("need a full-dimensional polygon")
    if not delta.is_lattice():
        raise NotLatticePolygon("need a lattice polygon")
    lower = _lower_chain(delta)
    reflected = Polygon([Vector2(v.x, -v.y) for v in delta.vertices])
    upper = [(x, -y) for x, y in _lower_chain(reflected)]
    phi_zero = PLFunc([x for x, _ in upper], [y for _, y in upper])
    phi_inf = PLFunc([x for x, _ in lower], [-y for _, y in lower])
    box = (lower[0][0], lower[-1][0])
    return DivPoly(box, {ZERO: phi_zero, INFINITY: phi_inf})


def to_polygon(dp: DivPoly) -> Polygon:
    """Polygon of a divisorial polytope with at most two nontrivial
    coefficients: the region between the first one and the negated second
    (labels in canonical order)."""
    nt = dp.nontrivial_labels()
    if len(nt) > 2:
        raise TooManyNontrivialCoefficients(
            f"{len(nt)} nontrivial coefficients: {[str(l) for l in nt]}"
        )
    upper = dp.coefficient(nt[0]) if nt else PLFunc.constant(dp.box, 0)
    lower = dp.coefficient(nt[1]) if len(nt) > 1 else PLFunc.constant(dp.box, 0)
    us = sorted(set(upper.breaks) | set(lower.breaks))
    pts = []
    for u in us:
        hi = upper(u)
        lo = -lower(u)
        if hi < lo:
            raise EmptyFiber(f"empty fiber over u = {u}")
        pts.append(Vector2(u, hi))
        pts.append(Vector2(u, lo))
    return Polygon(pts)


def validate(dp: DivPoly, include_notes: bool = False) -> list[str]:
    """Violations of the divisorial-polytope conditions; empty means valid.

    Checks strict positivity of the degree on the open box, nonnegativity
    at the endpoints (a zero endpoint is the principal-divisor case), and
    the lattice-graph condition per coefficient.
    """
    out = []
    deg = dp.degree()
    lo, hi = dp.box
    for u in deg.breaks:
        d = deg(u)
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


def shift_affine(
    dp: DivPoly,
    frm: PointLabel,
    to: PointLabel,
    slope: RationalLike,
    intercept: RationalLike,
) -> DivPoly:
    """Move the affine function slope*u + intercept from one coefficient to
    another; the degree function is unchanged pointwise.  Missing labels
    count as the zero coefficient."""
    if frm == to:
        raise DomainError("shift endpoints must differ")
    s, c = to_fraction(slope), to_fraction(intercept)
    f_from = dp.coefficient(frm).add_affine(-s, -c)
    f_to = dp.coefficient(to).add_affine(s, c)
    cs = dict(dp.coeffs)
    cs[frm] = f_from
    cs[to] = f_to
    return DivPoly(dp.box, cs)
