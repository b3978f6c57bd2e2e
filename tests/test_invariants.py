import random
from fractions import Fraction
from math import gcd

import pytest

import surgeon.exactlin
from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    d3_report,
    invariant_report,
    linking_matrix,
    minimal_order_solve,
)

from surgeon.cli import load_diagram

from helpers import (CORPUS, count_calls, fraction_det, legendrian_pushoff_sl,
                     oracle_invariants, random_diagram, t_linking_matrix, tb_pairing)


def C(text):
    return ContactCoefficient.parse(text)


def trefoil_chain(rot2, knot=None):
    knots = (knot,) if knot is not None else ()
    return SurgeryDiagram(
        (LegendrianComponent("trefoil", 1, 0, C("-1")),
         LegendrianComponent("chain", -1, rot2, C("-1"))),
        ((0, 1), (1, 0)), knots)


def single_surgery(tb_L, rot_L, coeff, knot):
    return SurgeryDiagram(
        (LegendrianComponent("L", tb_L, rot_L, C(coeff)),), ((0,),), (knot,))


class TestHomologySphereExample:
    @pytest.mark.parametrize("rot2,expected_rot", [(-2, 2), (0, 0), (2, -2)])
    def test_rotation_depends_on_expansion_choice(self, rot2, expected_rot):
        diagram = trefoil_chain(rot2, CompanionKnot("L0", "legendrian", (1, 1), tb=-1, rot=0))
        report = invariant_report(diagram, "L0")
        assert report.order == 1
        assert report.solution == (3, 1)
        assert report.rot == expected_rot
        assert report.unique_class


class TestSingleComponentClosedForms:
    @pytest.mark.parametrize("tb_L,rot_L,m,s,lk", [
        (-1, 0, 1, 1, 3), (-1, 0, 2, -1, 1), (2, 1, 3, 1, 2),
        (-3, 2, 4, -1, 5), (0, 1, 2, 1, -3), (-2, 1, 3, -1, 0),
    ])
    def test_matches_quotient_formulas(self, tb_L, rot_L, m, s, lk):
        p = m * tb_L + s
        assume_solvable = p != 0
        knot = CompanionKnot("K", "legendrian", (lk,), tb=-1, rot=0)
        diagram = single_surgery(tb_L, rot_L, str(ContactCoefficient(s, m)), knot)
        report = invariant_report(diagram, "K")
        if not assume_solvable:
            assert report.order is None
            return
        assert report.tb == -1 - Fraction(m * lk * lk, p)
        assert report.rot == 0 - Fraction(m * lk * rot_L, p)
        # minimal order is |p| / gcd(|p|, |lk|)
        expected_d = 1 if lk == 0 else abs(p) // gcd(abs(p), abs(lk))
        assert report.order == expected_d
        if expected_d == 1:
            assert report.tb.denominator == 1
            assert report.rot.denominator == 1

    def test_zero_linking_leaves_invariants_alone(self):
        knot = CompanionKnot("K", "legendrian", (0,), tb=4, rot=1)
        diagram = single_surgery(-1, 0, "-1/3", knot)
        report = invariant_report(diagram, "K")
        assert report.order == 1
        assert report.solution == (0,)
        assert (report.tb, report.rot) == (4, 1)


class TestStabilizationExample:
    def diagram(self, rot2):
        return SurgeryDiagram(
            (LegendrianComponent("strand", -1, 0, C("+1")),
             LegendrianComponent("meridian", -2, rot2, C("-1"))),
            ((0, -1), (-1, 0)),
            (CompanionKnot("K", "legendrian", (1, 1), tb=-1, rot=0),))

    def test_matrix_and_solution(self):
        from surgeon import linking_matrix
        diagram = self.diagram(1)
        assert linking_matrix(diagram).entries == ((0, -1), (-1, -3))
        report = invariant_report(diagram, "K")
        assert report.solution == (2, -1)

    def test_tb_drops_by_one_for_both_choices(self):
        for rot2 in (1, -1):
            report = invariant_report(self.diagram(rot2), "K")
            assert report.tb == -1 - 1

    def test_rot_shifts_by_one_either_way(self):
        shifts = {invariant_report(self.diagram(rot2), "K").rot - 0 for rot2 in (1, -1)}
        assert shifts == {1, -1}


class TestSelfLinkingExample:
    def overtwisted(self, orientation):
        if orientation == "positive":
            knots = (CompanionKnot("T0", "transverse", (-1,), sl=-1, transverse_sign=1),
                     CompanionKnot("L0", "legendrian", (-1,), tb=-1, rot=0))
        else:
            knots = (CompanionKnot("T0", "transverse", (1,), sl=-1, transverse_sign=-1),
                     CompanionKnot("L0", "legendrian", (1,), tb=-1, rot=0))
        return SurgeryDiagram(
            (LegendrianComponent("L", -2, 1, C("+1")),), ((0,),), knots)

    def test_positive_orientation(self):
        report = invariant_report(self.overtwisted("positive"), "T0")
        assert report.order == 1
        assert report.solution == (1,)
        assert report.sl == 1

    def test_negative_orientation_gives_same_sl(self):
        report = invariant_report(self.overtwisted("negative"), "T0")
        assert report.solution == (-1,)
        assert report.sl == 1

    def test_legendrian_pushoff_cross_check(self):
        diagram = self.overtwisted("positive")
        report = invariant_report(diagram, "L0")
        assert (report.tb, report.rot) == (0, -1)
        assert legendrian_pushoff_sl(report.tb, report.rot, 1) == 1
        sl_report = invariant_report(diagram, "T0")
        assert sl_report.sl == legendrian_pushoff_sl(report.tb, report.rot, 1)

    def test_orientation_reversal_invariance_randomized(self):
        rng = random.Random(314)
        checked = 0
        while checked < 60:
            diagram = random_diagram(rng, with_knot=False)
            k = diagram.k
            lk = tuple(rng.randint(-2, 2) for _ in range(k))
            sl = 2 * rng.randint(-2, 2) - 1
            forward = CompanionKnot("T", "transverse", lk, sl=sl, transverse_sign=1)
            backward = CompanionKnot("T", "transverse", tuple(-x for x in lk),
                                     sl=sl, transverse_sign=-1)
            d1 = SurgeryDiagram(diagram.components, diagram.linking, (forward,))
            d2 = SurgeryDiagram(diagram.components, diagram.linking, (backward,))
            r1 = invariant_report(d1, "T")
            r2 = invariant_report(d2, "T")
            if r1.order is None:
                assert r2.order is None
                continue
            assert r1.sl == r2.sl
            checked += 1

    def test_pushoff_matches_sl_randomized(self):
        # a transverse push-off carries the same linking data as its
        # Legendrian; its sl in the surgered manifold must equal tb -+ rot
        rng = random.Random(2718)
        checked = 0
        while checked < 60:
            diagram = random_diagram(rng)
            k = diagram.k
            lk = tuple(rng.randint(-2, 2) for _ in range(k))
            tb, rot = rng.randint(-3, 3), 0
            rot = rng.choice([r for r in range(-3, 4) if (tb + r) % 2 == 1])
            sign = rng.choice((1, -1))
            leg = CompanionKnot("K", "legendrian", lk, tb=tb, rot=rot)
            trans = CompanionKnot("T", "transverse", lk,
                                  sl=tb - sign * rot, transverse_sign=sign)
            d = SurgeryDiagram(diagram.components, diagram.linking, (leg, trans))
            report = invariant_report(d, "K")
            if report.order is not None:
                assert invariant_report(d, "T").sl == report.tb - sign * report.rot
            checked += 1


class TestSolutionDependence:
    def singular_diagram(self, rot2):
        # Q = [[1, 1], [1, 1]], kernel spanned by (1, -1)
        return SurgeryDiagram(
            (LegendrianComponent("A", 0, 1, C("+1")),
             LegendrianComponent("B", 0, rot2, C("+1"))),
            ((0, 1), (1, 0)),
            (CompanionKnot("K", "legendrian", (1, 1), tb=-1, rot=0),))

    def test_tb_never_depends_on_solution(self):
        # Every solution of Q*a = l is (1 + t, -t), so tb_M = -1 - <a, l> = -2.
        diagram = self.singular_diagram(1)
        report = invariant_report(diagram, "K")
        assert report.seifert_shifts
        for v, _ in report.seifert_shifts:
            assert tb_pairing(diagram, v) == 0
        assert report.tb == -2

    def test_rot_dependence_reported(self):
        diagram = self.singular_diagram(-1)
        report = invariant_report(diagram, "K")
        assert not report.unique_class
        (vector, shift), = report.seifert_shifts
        assert shift == sum(v * r for v, r in zip(vector, (1, -1)))
        assert shift != 0

    def test_zero_euler_class_kills_dependence(self):
        diagram = self.singular_diagram(1)
        ec = d3_report(diagram)
        assert ec.torsion
        report = invariant_report(diagram, "K")
        assert all(shift == 0 for _, shift in report.seifert_shifts)

    def test_random_singular_tb_independence(self):
        # With a kernel, every kernel vector pairs to 0 with the tb weights;
        # without one (and +-1 coefficients), tb matches the oracle's.
        rng = random.Random(55)
        checked = compared = 0
        while checked < 50:
            diagram = random_diagram(rng, with_knot=True)
            solved = minimal_order_solve(linking_matrix(diagram).form, diagram.knots[0].lk)
            if solved is None:
                continue
            if solved.kernel_basis:
                for v in solved.kernel_basis:
                    assert tb_pairing(diagram, v) == 0
                checked += 1
            elif (compared < 100 and all(c.coeff.magnitude == 1 for c in diagram.components)
                  and fraction_det(t_linking_matrix(diagram))):
                assert invariant_report(diagram, "K").tb == oracle_invariants(diagram, "K")[1]
                compared += 1
        assert compared == 100


class TestKindGuards:
    def test_lk_length_checked(self):
        knot = CompanionKnot("K", "legendrian", (1, 0), tb=-1, rot=0)
        diagram = single_surgery(-1, 0, "+1", knot)
        with pytest.raises(ValueError, match="K: lk vector has length 2, expected 1"):
            invariant_report(diagram, "K")

    def test_not_rationally_nullhomologous(self):
        knot = CompanionKnot("K", "legendrian", (1,), tb=-1, rot=0)
        diagram = single_surgery(-1, 0, "+1", knot)  # Q = [0], lk = 1
        report = invariant_report(diagram, "K")
        assert report.order is None
        assert report.tb is None and report.rot is None

    def test_integral_outputs_for_order_one(self):
        rng = random.Random(808)
        checked = 0
        while checked < 40:
            diagram = random_diagram(rng, with_knot=True)
            report = invariant_report(diagram, "K")
            if report.order != 1:
                continue
            assert report.tb.denominator == 1
            assert report.rot.denominator == 1
            checked += 1


def test_report_factors_q_once(monkeypatch):
    diagram = load_diagram(str(CORPUS / "diagrams" / "rational_order3.json"))
    calls = count_calls(monkeypatch, surgeon.exactlin, "_hermite_rows")
    report = invariant_report(diagram, "K")
    assert (report.order, report.tb) == (3, Fraction(-1, 3))
    assert len(calls) == 1
