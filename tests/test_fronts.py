import random

import pytest

from surgeon import FrontError, classical_invariants, parse_front, to_diagram, validate
from surgeon.fronts import component_names

from helpers import oracle_front_invariants, random_front_text

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

    def test_comments_and_blank_lines(self):
        doc = parse_front("# a comment\n\nL1 R1  # trailing\n")
        assert len(doc.events) == 2

    def test_headers_and_marker(self):
        doc = parse_front(
            "surgery S coeff -1/2 reversed\n"
            "companion K legendrian\n"
            "companion T transverse negative\n"
            "events:\nL1 R1 L1 R1 L1 R1\n")
        assert [r.role for r in doc.roles] == ["surgery", "companion", "companion"]
        assert str(doc.roles[0].coeff) == "-1/2"
        assert doc.roles[0].reversed
        assert doc.roles[2].transverse_sign == -1

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
        assert classical_invariants(doc).n_components == 1


class TestClassicalInvariants:
    def test_unknot(self):
        inv = classical_invariants(parse_front(UNKNOT))
        assert inv.tb == (-1,)
        assert inv.rot == (0,)

    def test_max_tb_trefoil(self):
        inv = classical_invariants(parse_front(TREFOIL))
        assert inv.tb == (1,)
        assert inv.rot == (0,)

    def test_split_unknots_do_not_link(self):
        inv = classical_invariants(parse_front("L1 R1 L1 R1"))
        assert inv.tb == (-1, -1)
        assert inv.linking == ((0, 0), (0, 0))

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
            for a in range(inv.n_components):
                for b in range(inv.n_components):
                    assert inv.linking[a][b] == inv.linking[b][a]
                assert inv.linking[a][a] == 0

    def test_global_reversal_fixes_tb_and_lk(self):
        rng = random.Random(11235)
        for _ in range(80):
            text = random_front_text(rng)
            doc = parse_front(text)
            n = classical_invariants(doc).n_components
            headers = "".join(f"surgery K{i} coeff +1 reversed\n" for i in range(n))
            flipped = parse_front(f"{headers}events:\n{text}")
            a = classical_invariants(doc)
            b = classical_invariants(flipped)
            assert a.tb == b.tb
            assert a.linking == b.linking
            assert a.rot == tuple(-r for r in b.rot)


class TestAgainstHandTracing:
    HEADERS = ("surgery S{} coeff +1", "surgery S{} coeff -1/2", "companion K{} legendrian",
               "companion T{} transverse positive")

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
            inv = classical_invariants(parse_front(text))
            assert (inv.tb, inv.rot, inv.linking) == oracle_front_invariants(text), text


class TestToDiagram:
    DEMO = ("surgery S coeff -1\n"
            "companion K legendrian\n"
            "events:\n"
            "L1 L2 X1 X1 R2 R1\n")

    def test_demo_diagram(self):
        diagram = to_diagram(parse_front(self.DEMO))
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
        assert to_diagram(parse_front(self.DEMO)) == expected

    def test_missing_role(self):
        with pytest.raises(FrontError, match="no role header"):
            to_diagram(parse_front("surgery S coeff +1\nevents:\nL1 R1 L1 R1"))

    def test_extra_role(self):
        with pytest.raises(FrontError, match="no matching component"):
            to_diagram(parse_front("surgery S coeff +1\nsurgery T coeff +1\nevents:\nL1 R1"))

    def test_transverse_companion_rejected(self):
        text = ("surgery S coeff +1\n"
                "companion T transverse positive\n"
                "events:\nL1 R1 L1 R1\n")
        with pytest.raises(FrontError, match="transverse"):
            to_diagram(parse_front(text))

    def test_component_names_fall_back(self):
        doc = parse_front("L1 R1 L1 R1")
        assert component_names(doc, 2) == ("K1", "K2")

    def test_roundtrip_through_invariants(self):
        # the assembled diagram carries exactly the computed front data
        doc = parse_front(self.DEMO)
        inv = classical_invariants(doc)
        diagram = to_diagram(doc)
        assert diagram.components[0].tb == inv.tb[0]
        assert diagram.components[0].rot == inv.rot[0]
        assert diagram.knots[0].lk[0] == inv.linking[1][0]
