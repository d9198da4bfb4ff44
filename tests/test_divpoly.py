from fractions import Fraction

import pytest

from polymut.divpoly import (
    INFINITY,
    ZERO,
    ConcavityBroken,
    DivPoly,
    DomainMismatch,
    EmptyFiber,
    NotFullDimensionalPolygon,
    NotLatticePolygon,
    PLFunc,
    PointLabel,
    TooManyNontrivialCoefficients,
    from_polygon,
    shift_affine,
    to_polygon,
    validate,
)
from polymut.errors import DomainError
from polymut.geom import area
from conftest import P

BOX = (-6, 6)


def phi_inf_p114():
    """1 - |u|/2 on [-6, 6]."""
    return PLFunc([-6, 0, 6], [-2, 1, -2])


class TestPLFunc:
    def test_redundant_breakpoints_merged(self):
        f = PLFunc([0, 1, 2], [0, 1, 2])
        assert f.breaks == (Fraction(0), Fraction(2))
        assert f.is_affine()

    def test_concavity_enforced(self):
        with pytest.raises(ConcavityBroken):
            PLFunc([0, 1, 2], [0, 0, 5])

    def test_evaluate(self):
        f = phi_inf_p114()
        assert f(0) == 1
        assert f(-3) == Fraction(-1, 2)
        assert f(6) == -2

    def test_slopes_and_pieces(self):
        f = phi_inf_p114()
        assert f.slopes() == (Fraction(1, 2), Fraction(-1, 2))
        assert f.pieces() == (
            (Fraction(-6), Fraction(0), Fraction(1, 2)),
            (Fraction(0), Fraction(6), Fraction(-1, 2)),
        )

    def test_add_sub(self):
        f = phi_inf_p114()
        g = PLFunc.constant(BOX, 2)
        assert (f + g)(0) == 3
        assert (f + g) - g == f

    def test_min_of_affines(self):
        f = PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        assert f.breaks == (Fraction(-6), Fraction(0), Fraction(6))
        assert f.values == (Fraction(-5), Fraction(1), Fraction(1))

    def test_lattice_graph(self):
        assert phi_inf_p114().has_lattice_graph()
        assert not PLFunc([0, 1], [0, Fraction(1, 2)]).has_lattice_graph()

    def test_integral(self):
        assert phi_inf_p114().integral() == -6
        assert PLFunc.constant(BOX, 2).integral() == 24

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            phi_inf_p114() + PLFunc.constant((0, 1), 1)


class TestErrorMessages:
    # endpoints print as canonical rationals, never as Python reprs
    def test_outside_domain(self):
        with pytest.raises(DomainError) as e:
            PLFunc([Fraction(1, 2), 3], [0, 0])(5)
        assert str(e.value) == "5 is outside the domain (1/2, 3)"
        assert "Fraction(" not in str(e.value)

    def test_domains_differ(self):
        with pytest.raises(DomainMismatch) as e:
            phi_inf_p114() + PLFunc.constant((Fraction(1, 2), 3), 1)
        assert str(e.value) == "domains differ: (-6, 6) vs (1/2, 3)"
        assert "Fraction(" not in str(e.value)

    def test_coefficient_domain_against_box(self):
        with pytest.raises(DomainMismatch) as e:
            DivPoly((0, 3), {ZERO: PLFunc.constant((Fraction(1, 2), 3), 1)})
        assert str(e.value) == "coefficient at 0 has domain (1/2, 3), box is (0, 3)"
        assert "Fraction(" not in str(e.value)


class TestFromPolygon:
    def test_p114_dilated_dual(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert dp.box == (Fraction(-6), Fraction(6))
        assert dp.coefficient(ZERO) == PLFunc.constant(BOX, 2)
        assert dp.coefficient(INFINITY) == phi_inf_p114()

    def test_unit_square(self):
        dp = from_polygon(P((0, 0), (1, 0), (0, 1), (1, 1)))
        assert dp.box == (Fraction(0), Fraction(1))
        assert dp.coefficient(ZERO) == PLFunc.constant((0, 1), 1)
        assert dp.coefficient(INFINITY) == PLFunc.constant((0, 1), 0)

    def test_right_triangle(self):
        dp = from_polygon(P((0, 0), (2, 0), (0, 1)))
        assert dp.box == (Fraction(0), Fraction(2))
        assert dp.coefficient(ZERO) == PLFunc.affine((0, 2), Fraction(-1, 2), 1)
        assert dp.coefficient(INFINITY) == PLFunc.constant((0, 2), 0)

    def test_requires_lattice(self):
        with pytest.raises(NotLatticePolygon):
            from_polygon(P((0, 0), (Fraction(5, 2), 0), (0, 1)))

    def test_requires_full_dimensional(self):
        with pytest.raises(NotFullDimensionalPolygon):
            from_polygon(P((0, 0), (1, 0)))


class TestToPolygon:
    def test_roundtrip(self):
        for Q in (
            P((-6, 2), (6, 2), (0, -1)),
            P((0, 0), (1, 0), (0, 1), (1, 1)),
            P((0, 0), (2, 0), (0, 1)),
            P((-1, -1), (2, -1), (-1, 2)),
        ):
            assert to_polygon(from_polygon(Q)) == Q

    def test_general_fiber_shape(self):
        A = PLFunc.affine(BOX, Fraction(-1, 2), 2)
        B = PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        dp = DivPoly(BOX, {ZERO: A, INFINITY: B})
        assert to_polygon(dp) == P((-6, 5), (0, -1), (6, -1))

    def test_three_nontrivial_rejected(self):
        dp = DivPoly(
            BOX,
            {
                ZERO: PLFunc.constant(BOX, 1),
                INFINITY: PLFunc.constant(BOX, 1),
                PointLabel.param("s"): PLFunc.constant(BOX, 1),
            },
        )
        with pytest.raises(TooManyNontrivialCoefficients):
            to_polygon(dp)

    def test_empty_fiber(self):
        dp = DivPoly(BOX, {ZERO: PLFunc.constant(BOX, -1), INFINITY: PLFunc.constant(BOX, 0)})
        with pytest.raises(EmptyFiber):
            to_polygon(dp)


class TestValidate:
    def test_valid_p114(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert validate(dp) == []
        notes = validate(dp, include_notes=True)
        assert any("principal" in n for n in notes)

    def test_zero_degree_interior(self):
        dp = DivPoly((0, 1), {ZERO: PLFunc.constant((0, 1), 0)})
        out = validate(dp)
        assert any("vanishes" in v for v in out)

    def test_endpoint_violation(self):
        dp = DivPoly((0, 2), {ZERO: PLFunc([0, 1, 2], [1, 0, -2])})
        out = validate(dp)
        assert any("endpoint" in v for v in out)

    def test_lattice_graph_violation(self):
        dp = DivPoly((0, 2), {ZERO: PLFunc([0, 1, 2], [1, Fraction(3, 2), 1])})
        out = validate(dp)
        assert any("not lattice" in v for v in out)


class TestShiftAffine:
    def test_p114_shift(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        out = shift_affine(dp, INFINITY, ZERO, Fraction(-1, 2), 0)
        assert out.coefficient(ZERO) == PLFunc.affine(BOX, Fraction(-1, 2), 2)
        # 1 - |u|/2 + u/2 has slopes 1 then 0
        assert out.coefficient(INFINITY) == PLFunc.min_of_affines(BOX, [(1, 1), (0, 1)])
        assert out.degree() == dp.degree()

    def test_zero_shift_is_identity(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert shift_affine(dp, ZERO, INFINITY, 0, 0) == dp

    def test_shift_to_unlabelled_point(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        out = shift_affine(dp, ZERO, PointLabel.param("s"), 0, 2)
        assert out.coefficient(ZERO).is_zero()
        assert out.coefficient(PointLabel.param("s")) == PLFunc.constant(BOX, 2)

    def test_degree_always_preserved(self):
        dp = from_polygon(P((-1, -1), (2, -1), (-1, 2)))
        out = shift_affine(dp, ZERO, INFINITY, 3, -1)
        assert out.degree() == dp.degree()


class TestInvariants:
    def test_area_equals_degree_integral(self):
        for Q in (
            P((-6, 2), (6, 2), (0, -1)),
            P((-1, -1), (2, -1), (-1, 2)),
            P((0, 0), (3, 1), (1, 3), (-1, 2)),
        ):
            dp = from_polygon(Q)
            assert area(Q) == dp.degree().integral()

    def test_from_polygon_lattice_graphs(self):
        dp = from_polygon(P((0, 0), (3, 1), (1, 3), (-1, 2)))
        for label in dp.labels():
            assert dp.coeffs[label].has_lattice_graph()

    def test_json_roundtrip(self):
        dp = from_polygon(P((-6, 2), (6, 2), (0, -1)))
        assert DivPoly.from_json(dp.to_json()) == dp

    def test_polygon_roundtrip_randomized(self):
        import random

        from polymut.geom import Polygon, Vector2

        rng = random.Random(31)
        done = 0
        while done < 200:
            Q = Polygon(
                [Vector2(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(8)]
            )
            if Q.dim() != 2:
                continue
            assert to_polygon(from_polygon(Q)) == Q
            done += 1
