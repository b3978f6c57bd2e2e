import random
from fractions import Fraction

import pytest

import surgeon.exactlin
from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    invariant_report,
)

from surgeon.cli import load_diagram

from helpers import CORPUS, count_calls, random_diagram


def C(text):
    return ContactCoefficient.parse(text)


def single_surgery(tb_L, rot_L, coeff, knot):
    return SurgeryDiagram(
        (LegendrianComponent("L", tb_L, rot_L, C(coeff)),), ((0,),), (knot,))


class TestSelfLinkingExample:
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


class TestKindGuards:
    def test_lk_length_checked(self):
        knot = CompanionKnot("K", "legendrian", (1, 0), tb=-1, rot=0)
        diagram = single_surgery(-1, 0, "+1", knot)
        with pytest.raises(ValueError, match="K: lk vector has length 2, expected 1"):
            invariant_report(diagram, "K")

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
    # det Q != 0: the one sweep of diag(m)*Q solves, with no Hermite elimination.
    swept = count_calls(monkeypatch, surgeon.exactlin, "symmetric_signature")
    hermite = count_calls(monkeypatch, surgeon.exactlin, "_hermite_rows")
    report = invariant_report(diagram, "K")
    assert (report.order, report.tb) == (3, Fraction(-1, 3))
    assert (len(swept), len(hermite)) == (1, 0)
