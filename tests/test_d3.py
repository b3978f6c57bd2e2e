import random
from fractions import Fraction

import pytest

import surgeon.d3
import surgeon.surgery
from surgeon import (
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    d3_closed_form,
    d3_pm1,
    d3_via_expansion,
    euler_class,
    expand_to_pm1,
    linking_matrix,
    solve_rational,
)

from helpers import random_diagram


def unknot_surgery(coeff):
    return SurgeryDiagram(
        (LegendrianComponent("U", -1, 0, ContactCoefficient.parse(coeff)),), ((0,),))


class TestEulerClass:
    def test_vanishing_rotation(self):
        for coeff in ("+1", "-1", "+1/3"):
            ec = euler_class(unknot_surgery(coeff))
            assert ec.coefficients == (0,)
            assert ec.torsion
            assert ec.b == (0,)

    def test_coefficients_scale_with_magnitude(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", -2, 1, ContactCoefficient.parse("-1/3")),), ((0,),))
        assert euler_class(diagram).coefficients == (3,)

    def test_invertible_matrix_is_torsion(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("trefoil", 1, 0, ContactCoefficient.parse("-1")),
             LegendrianComponent("chain", -1, 2, ContactCoefficient.parse("-1"))),
            ((0, 1), (1, 0)))
        ec = euler_class(diagram)
        assert ec.torsion
        matrix = linking_matrix(diagram).entries
        assert [sum(q * b for q, b in zip(row, ec.b)) for row in matrix] == [0, 2]

    def test_non_torsion(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("axis", -1, 2, ContactCoefficient.parse("+1")),), ((0,),))
        ec = euler_class(diagram)
        assert not ec.torsion
        assert ec.b is None
        assert d3_closed_form(diagram) is None
        assert d3_via_expansion(diagram) is None


class TestUnknotFamily:
    @pytest.mark.parametrize("coeff,expected", [
        ("+1", Fraction(0)),
        ("+1/2", Fraction(1, 2)),
        ("+1/3", Fraction(1, 4)),
        ("+1/4", Fraction(0)),
        ("+1/5", Fraction(-1, 4)),
        ("-1", Fraction(-1, 4)),
        ("-1/2", Fraction(0)),
        ("-1/3", Fraction(1, 4)),
        ("+1/64", Fraction(-15)),
        ("-1/64", Fraction(31, 2)),
    ])
    def test_closed_form_and_expansion_agree(self, coeff, expected):
        diagram = unknot_surgery(coeff)
        assert d3_closed_form(diagram) == expected
        assert d3_via_expansion(diagram) == expected

    def test_closed_form_never_expands(self, monkeypatch):
        # The same family at n = 10**6: the closed form's cost must not
        # depend on n, so the push-off expansion may not run at all.
        def refuse(_diagram):
            raise AssertionError("d3_closed_form expanded the diagram")

        for module in (surgeon.surgery, surgeon.d3):
            monkeypatch.setattr(module, "expand_to_pm1", refuse)
        n = 10 ** 6
        assert d3_closed_form(unknot_surgery(f"+1/{n}")) == 1 - Fraction(n, 4)
        assert d3_closed_form(unknot_surgery(f"-1/{n}")) == Fraction(n, 4) - Fraction(1, 2)


class TestPm1Formula:
    def test_rejects_higher_magnitudes(self):
        with pytest.raises(ValueError):
            d3_pm1(unknot_surgery("+1/2"))

    def test_plus_one_unknot(self):
        # Q = [0], sigma = 0, k = 1, one +1 coefficient
        assert d3_pm1(unknot_surgery("+1")) == 0

    def test_expanded_plus_half(self):
        expanded = expand_to_pm1(unknot_surgery("+1/2"))
        assert linking_matrix(expanded).entries == ((0, -1), (-1, 0))
        assert d3_pm1(expanded) == Fraction(1, 2)

    def test_expanded_minus_half(self):
        expanded = expand_to_pm1(unknot_surgery("-1/2"))
        assert linking_matrix(expanded).entries == ((-2, -1), (-1, -2))
        assert d3_pm1(expanded) == 0

    def test_empty_diagram_is_standard_tight_sphere(self):
        assert d3_pm1(SurgeryDiagram((), ())) == Fraction(-1, 2)
        assert d3_closed_form(SurgeryDiagram((), ())) == Fraction(-1, 2)


class TestClosedFormAgainstExpansion:
    def test_randomized_equality(self):
        rng = random.Random(123)
        checked = 0
        while checked < 80:
            diagram = random_diagram(rng)
            closed = d3_closed_form(diagram)
            expanded = d3_via_expansion(diagram)
            assert (closed is None) == (expanded is None)
            if closed is not None:
                assert closed == expanded
                checked += 1

    def test_torsion_flag_stable_under_expansion(self):
        rng = random.Random(321)
        for _ in range(60):
            diagram = random_diagram(rng)
            assert euler_class(diagram).torsion == euler_class(expand_to_pm1(diagram)).torsion


class TestSolutionChoiceIndependence:
    def test_pairing_insensitive_to_kernel_shifts(self):
        # Q = [[1, 1], [1, 1]] is singular; rot = (1, 1) is solvable
        diagram = SurgeryDiagram(
            (LegendrianComponent("A", 0, 1, ContactCoefficient.parse("+1")),
             LegendrianComponent("B", 0, 1, ContactCoefficient.parse("+1"))),
            ((0, 1), (1, 0)))
        matrix = linking_matrix(diagram).entries
        rot = [c.rot for c in diagram.components]
        particular, kernel = solve_rational(matrix, rot)
        assert kernel
        weights = [c.coeff.magnitude * c.rot for c in diagram.components]
        base = sum(w * b for w, b in zip(weights, particular))
        for v in kernel:
            other = [b + Fraction(5, 3) * x for b, x in zip(particular, v)]
            assert [sum(q * o for q, o in zip(row, other)) for row in matrix] == rot
            assert sum(w * o for w, o in zip(weights, other)) == base

    def test_random_singular_diagrams(self):
        rng = random.Random(777)
        checked = 0
        while checked < 40:
            diagram = random_diagram(rng)
            matrix = linking_matrix(diagram).entries
            rot = [c.rot for c in diagram.components]
            solved = solve_rational(matrix, rot)
            if solved is None or not solved[1]:
                continue
            particular, kernel = solved
            weights = [c.coeff.magnitude * c.rot for c in diagram.components]
            base = sum(w * b for w, b in zip(weights, particular))
            for v in kernel:
                other = [b + 2 * x for b, x in zip(particular, v)]
                assert sum(w * o for w, o in zip(weights, other)) == base
            assert d3_closed_form(diagram) == d3_via_expansion(diagram)
            checked += 1
