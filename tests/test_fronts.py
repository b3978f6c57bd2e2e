import random
from fractions import Fraction

import pytest

from surgeon import (
    CompanionKnot,
    FrontError,
    classical_invariants,
    invariant_report,
    parse_front,
    to_diagram,
    validate,
)

from helpers import front_diagram, legendrian_pushoff_sl, oracle_front_invariants, random_front_text

UNKNOT = "L1 R1"
TREFOIL = "L1 L3 X2 X2 X2 R1 R1"
KINK = "L1 X1 R1"


class TestParser:
    def test_unknot_parses(self):
        doc = parse_front(UNKNOT)
        assert [e.kind for e in doc.events] == ["L", "R"]

    def test_right_cusp_out_of_range(self):
        with pytest.raises(FrontError, match=r"R2 with 2 strands requires position <= 1"):
            parse_front("L1 R2")

    def test_left_cusp_out_of_range(self):
        with pytest.raises(FrontError, match="L3"):
            parse_front("L3 R1")

    def test_open_strands_rejected(self):
        with pytest.raises(FrontError, match="left open"):
            parse_front("L1 L1 R1")

    def test_unknown_token_position(self):
        with pytest.raises(FrontError) as excinfo:
            parse_front("L1 R1\nL1 q R1")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 4

    def test_lines_break_only_at_newlines(self):
        # A vertical tab separates tokens but does not end the line.
        with pytest.raises(FrontError) as excinfo:
            parse_front("L1 R1\x0bq")
        assert (excinfo.value.line, excinfo.value.column) == (1, 7)
        with pytest.raises(FrontError) as excinfo:
            parse_front("L1 R1\r\nL1\rL1 q")
        assert (excinfo.value.line, excinfo.value.column) == (3, 4)

    def test_comments_and_blank_lines(self):
        doc = parse_front("# a comment\n\nL1 R1  # trailing\n")
        assert len(doc.events) == 2

    def test_headers_and_marker(self):
        doc = parse_front(
            "surgery S coeff -1/2 reversed\n"
            "companion K legendrian\n"
            "companion T transverse negative\n"
            "events:\nL1 R1 L1 R1 L1 R1\n")
        assert [r.kind for r in doc.roles] == ["surgery", "legendrian", "transverse"]
        assert [r.name for r in doc.roles] == ["S", "K", "T"]
        assert str(doc.roles[0].coeff) == "-1/2"
        assert doc.roles[1].coeff is None
        assert [r.sign for r in doc.roles] == [None, None, -1]
        assert [r.reversed for r in doc.roles] == [True, False, False]

    @pytest.mark.parametrize("header", ["companion T transverse", "companion T transverse sideways",
                                        "companion T transverse reversed"])
    def test_transverse_header_needs_a_sign_word(self, header):
        with pytest.raises(FrontError, match="transverse companion needs 'positive' or 'negative'") \
                as excinfo:
            parse_front(f"surgery S coeff +1\n{header}\nevents:\nL1 R1 L1 R1\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, header.index("transverse") + 1)

    def test_headers_require_marker(self):
        with pytest.raises(FrontError, match="events:"):
            parse_front("surgery S coeff +1\nL1 R1")

    def test_header_after_events_rejected(self):
        with pytest.raises(FrontError, match="precede"):
            parse_front("events:\nL1 R1\nsurgery S coeff +1")

    def test_bad_coefficient_in_header(self):
        with pytest.raises(FrontError, match="coefficient"):
            parse_front("surgery S coeff 3/4\nevents:\nL1 R1")

    def test_trefoil_single_component(self):
        doc = parse_front(TREFOIL)
        assert classical_invariants(doc).names == ("K1",)


class TestClassicalInvariants:
    def test_kink_is_a_stabilized_unknot(self):
        inv = classical_invariants(parse_front(KINK))
        assert inv.tb == (-2,)
        assert inv.rot in ((1,), (-1,))

    def test_antiparallel_clasp(self):
        # the two branches of the loop are antiparallel, so both crossings
        # are negative: writhe -2, two cusps
        inv = classical_invariants(parse_front("L1 X1 X1 R1"))
        assert inv.tb == (-3,)
        assert inv.rot == (0,)


class TestOrientationBehaviour:
    def test_reversal_flips_rot_keeps_tb(self):
        plain = classical_invariants(parse_front(f"surgery K coeff +1\nevents:\n{KINK}"))
        flipped = classical_invariants(parse_front(f"surgery K coeff +1 reversed\nevents:\n{KINK}"))
        assert plain.tb == flipped.tb
        assert plain.rot == tuple(-r for r in flipped.rot)

    def test_reversing_one_component_flips_lk(self):
        base = "L1 L2 X1 X1 R2 R1"
        plain = classical_invariants(parse_front(
            f"surgery A coeff +1\ncompanion B legendrian\nevents:\n{base}"))
        flipped = classical_invariants(parse_front(
            f"surgery A coeff +1\ncompanion B legendrian reversed\nevents:\n{base}"))
        assert plain.linking[0][1] == -flipped.linking[0][1]
        assert plain.tb == flipped.tb

    def test_random_fronts_satisfy_parity(self):
        rng = random.Random(90210)
        for _ in range(200):
            text = random_front_text(rng)
            inv = classical_invariants(parse_front(text))
            for tb, rot in zip(inv.tb, inv.rot):
                assert (tb + rot) % 2 == 1, text
            for a in range(len(inv.names)):
                for b in range(len(inv.names)):
                    assert inv.linking[a][b] == inv.linking[b][a]
                assert inv.linking[a][a] == 0

    def test_global_reversal_fixes_tb_and_lk(self):
        rng = random.Random(11235)
        for _ in range(80):
            text = random_front_text(rng)
            doc = parse_front(text)
            n = len(classical_invariants(doc).names)
            headers = "".join(f"surgery K{i} coeff +1 reversed\n" for i in range(n))
            flipped = parse_front(f"{headers}events:\n{text}")
            a = classical_invariants(doc)
            b = classical_invariants(flipped)
            assert a.tb == b.tb
            assert a.linking == b.linking
            assert a.rot == tuple(-r for r in b.rot)


class TestAgainstHandTracing:
    HEADERS = ("surgery S{} coeff +1", "surgery S{} coeff -1/2", "companion K{} legendrian",
               "companion T{} transverse positive", "companion T{} transverse negative")

    def test_documented_anchors(self):
        assert oracle_front_invariants(UNKNOT) == ((-1,), (0,), ((0,),))
        assert oracle_front_invariants(TREFOIL) == ((1,), (0,), ((0,),))
        assert oracle_front_invariants(KINK)[0] == (-2,)

    def test_random_fronts_with_headers(self):
        rng = random.Random(4711)
        for _ in range(2500):
            events = random_front_text(rng, rng.randint(2, 40))
            n_headers = rng.randint(0, 6)
            headers = [rng.choice(self.HEADERS).format(i) + rng.choice(("", " reversed"))
                       for i in range(n_headers)]
            text = "\n".join(headers + ["events:", events]) if headers else events
            tb, rot, linking = oracle_front_invariants(text)
            if n_headers > len(tb):
                with pytest.raises(FrontError, match="no matching component"):
                    classical_invariants(parse_front(text))
                continue
            inv = classical_invariants(parse_front(text))
            assert (inv.tb, inv.rot, inv.linking) == (tb, rot, linking), text
            if n_headers < len(tb):
                continue
            # A transverse header is the push-off of the drawn knot, with its lk row.
            surgery = [i for i, h in enumerate(headers) if h.startswith("surgery")]
            knots = {w.name: w for w in front_diagram(text).knots}
            for i, header in enumerate(headers):
                if "transverse" in header:
                    sign = 1 if "positive" in header else -1
                    knot = knots[f"T{i}"]
                    assert (knot.sl, knot.transverse_sign) == (
                        legendrian_pushoff_sl(tb[i], rot[i], sign), sign), text
                    assert knot.lk == tuple(linking[i][j] for j in surgery), text


class TestToDiagram:
    DEMO = ("surgery S coeff -1\n"
            "companion K legendrian\n"
            "events:\n"
            "L1 L2 X1 X1 R2 R1\n")

    def test_demo_diagram(self):
        diagram = front_diagram(self.DEMO)
        assert validate(diagram) == []
        assert [c.name for c in diagram.components] == ["S"]
        assert diagram.components[0].tb == -1
        assert diagram.knots[0].lk == (1,)
        assert diagram.knots[0].tb == -1

    def test_matches_hand_written_diagram(self):
        from surgeon import CompanionKnot, ContactCoefficient, LegendrianComponent, SurgeryDiagram
        expected = SurgeryDiagram(
            (LegendrianComponent("S", -1, 0, ContactCoefficient.parse("-1")),),
            ((0,),),
            (CompanionKnot("K", "legendrian", (1,), tb=-1, rot=0),))
        assert front_diagram(self.DEMO) == expected

    def test_missing_role(self):
        with pytest.raises(FrontError, match="no role header"):
            front_diagram("surgery S coeff +1\nevents:\nL1 R1 L1 R1")

    def test_missing_role_points_at_its_component(self):
        # The unheaded component is the second; its first event is the
        # third left cusp, after the trefoil's two.
        text = "surgery S coeff +1\nevents:\nL1 L3 X2 X2 X2 R1 R1\n  L1 R1\n"
        with pytest.raises(FrontError, match="component 2 has no role header") as excinfo:
            front_diagram(text)
        assert (excinfo.value.line, excinfo.value.column) == (4, 3)

    def test_extra_role(self):
        with pytest.raises(FrontError, match="no matching component"):
            front_diagram("surgery S coeff +1\nsurgery T coeff +1\nevents:\nL1 R1")

    def test_transverse_companion_is_the_pushoff(self):
        # K is drawn with tb -2, rot 1 and lk 1; its push-off of sign t has
        # sl = -2 - t, and S at -1 makes K of order 2.
        events = "events:\nL1 L2 L3 R2 X1 X1 R2 R1\n"
        legendrian = front_diagram("surgery S coeff -1\ncompanion K legendrian\n" + events)
        assert legendrian.knots == (CompanionKnot("K", "legendrian", (1,), tb=-2, rot=1),)
        report = invariant_report(legendrian, "K")
        assert (report.order, report.tb, report.rot) == (2, Fraction(-3, 2), 1)
        for word, sign, sl, sl_m in (("positive", 1, -3, Fraction(-5, 2)),
                                     ("negative", -1, -1, Fraction(-1, 2))):
            diagram = front_diagram(f"surgery S coeff -1\ncompanion K transverse {word}\n" + events)
            assert validate(diagram) == []
            assert diagram == legendrian._replace(
                knots=(CompanionKnot("K", "transverse", (1,), sl=sl, transverse_sign=sign),))
            report = invariant_report(diagram, "K")
            assert (report.order, report.sl, report.seifert_shifts) == (2, sl_m, ())

    def test_component_names_fall_back(self):
        assert classical_invariants(parse_front("L1 R1 L1 R1")).names == ("K1", "K2")
        doc = parse_front("surgery S coeff +1\nevents:\nL1 R1 L1 R1")
        assert classical_invariants(doc).names == ("S", "K2")

    def test_roundtrip_through_invariants(self):
        # the assembled diagram carries exactly the computed front data
        doc = parse_front(self.DEMO)
        inv = classical_invariants(doc)
        diagram = to_diagram(doc, inv)
        assert diagram.components[0].tb == inv.tb[0]
        assert diagram.components[0].rot == inv.rot[0]
        assert diagram.knots[0].lk[0] == inv.linking[1][0]
