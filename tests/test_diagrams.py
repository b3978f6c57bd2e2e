import re

import pytest

import surgeon
from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    Diagnostic,
    LegendrianComponent,
    SurgeryDiagram,
    topological_coefficient,
    validate,
)
from surgeon.cli import load_diagram

from helpers import CORPUS, front_diagram


def unknot(coeff="+1", tb=-1, rot=0, name="U"):
    return LegendrianComponent(name, tb, rot, ContactCoefficient.parse(coeff))


class TestContactCoefficient:
    @pytest.mark.parametrize("text,sign,magnitude", [
        ("+1", 1, 1), ("-1", -1, 1), ("+1/2", 1, 2), ("-1/17", -1, 17),
    ])
    def test_parse(self, text, sign, magnitude):
        c = ContactCoefficient.parse(text)
        assert (c.sign, c.magnitude) == (sign, magnitude)
        assert str(c) == text

    @pytest.mark.parametrize("text", ["3/4", "-3/4", "1", "+2", "+1/0", "+1/-2", "0", ""])
    def test_rejects_general_rationals(self, text):
        with pytest.raises(ValueError):
            ContactCoefficient.parse(text)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            ContactCoefficient(2, 1)
        with pytest.raises(ValueError):
            ContactCoefficient(1, 0)


class TestTopologicalCoefficient:
    def test_examples(self):
        assert topological_coefficient(unknot("+1")) == (0, 1)
        assert topological_coefficient(unknot("-1")) == (-2, 1)
        assert topological_coefficient(unknot("+1/2")) == (-1, 2)

    def test_always_reduced(self):
        from math import gcd
        for tb in range(-4, 5):
            for m in range(1, 6):
                for s in (1, -1):
                    p, q = topological_coefficient(
                        LegendrianComponent("K", tb, (tb + 1) % 2, ContactCoefficient(s, m)))
                    assert q == m
                    assert p == 0 or gcd(abs(p), q) == 1


class TestValidate:
    def test_minimal_valid(self):
        diagram = SurgeryDiagram((unknot(),), ((0,),))
        assert validate(diagram) == []

    def test_parity_warning(self):
        diagram = SurgeryDiagram((unknot(tb=-1, rot=1),), ((0,),))
        diags = validate(diagram)
        assert [d.severity for d in diags] == ["warning"]
        assert "tb+rot even" in diags[0].message

    def test_asymmetric_linking(self):
        diagram = SurgeryDiagram((unknot(name="A"), unknot(name="B")),
                                 ((0, 1), (2, 0)))
        diags = validate(diagram)
        assert any(d.severity == "error" and "not symmetric" in d.message for d in diags)

    def test_nonzero_diagonal(self):
        diagram = SurgeryDiagram((unknot(),), ((3,),))
        assert any("diagonal" in d.message for d in validate(diagram))

    def test_lk_length_mismatch(self):
        diagram = SurgeryDiagram(
            (unknot(),), ((0,),),
            (CompanionKnot("K", "legendrian", (1, 2), tb=-1, rot=0),))
        diags = validate(diagram)
        assert any(d.severity == "error" and "length" in d.message for d in diags)

    def test_transverse_field_rules(self):
        # A companion knot checks its fields when it is built, not in validate.
        with pytest.raises(ValueError, match="'T': a transverse knot needs transverse_sign"):
            CompanionKnot("T", "transverse", (0,), sl=-1)
        good = CompanionKnot("T", "transverse", (0,), sl=-1, transverse_sign=1)
        assert validate(SurgeryDiagram((unknot(),), ((0,),), (good,))) == []

    def test_legendrian_cannot_carry_sl(self):
        with pytest.raises(ValueError, match="'K': a legendrian knot cannot carry sl"):
            CompanionKnot("K", "legendrian", (0,), tb=-1, rot=0, sl=3)

    def test_duplicate_names(self):
        diagram = SurgeryDiagram((unknot(name="A"), unknot(name="A")),
                                 ((0, 0), (0, 0)))
        assert any("duplicate" in d.message for d in validate(diagram))

    def test_validate_is_pure(self):
        diagram = SurgeryDiagram((unknot(),), ((0,),))
        assert validate(diagram) == validate(diagram)

    def test_empty_diagram_is_valid(self):
        assert validate(SurgeryDiagram((), ())) == []


LEGENDRIAN_FIELDS = {"tb": -1, "rot": 0}
TRANSVERSE_FIELDS = {"sl": -1, "transverse_sign": 1}


class TestCompanionKnot:
    """Each kind's field rules, checked at construction and in _replace."""

    @pytest.mark.parametrize("kind, fields, message", [
        ("smooth", LEGENDRIAN_FIELDS, "unknown knot kind 'smooth'"),
        ("Legendrian", LEGENDRIAN_FIELDS, "unknown knot kind 'Legendrian'"),
        ("legendrian", {"rot": 0}, "a legendrian knot needs tb"),
        ("legendrian", {"tb": -1}, "a legendrian knot needs rot"),
        ("legendrian", {**LEGENDRIAN_FIELDS, "sl": -1}, "a legendrian knot cannot carry sl"),
        ("legendrian", {**LEGENDRIAN_FIELDS, "transverse_sign": 1},
         "a legendrian knot cannot carry transverse_sign"),
        ("transverse", {"transverse_sign": 1}, "a transverse knot needs sl"),
        ("transverse", {"sl": -1}, "a transverse knot needs transverse_sign"),
        ("transverse", {**TRANSVERSE_FIELDS, "tb": -1}, "a transverse knot cannot carry tb"),
        ("transverse", {**TRANSVERSE_FIELDS, "rot": 0}, "a transverse knot cannot carry rot"),
        ("transverse", {"sl": -1, "transverse_sign": 0}, "transverse sign must be +1 or -1, got 0"),
        ("transverse", {"sl": -1, "transverse_sign": 2}, "transverse sign must be +1 or -1, got 2"),
    ])
    def test_invalid_fields_raise(self, kind, fields, message):
        with pytest.raises(ValueError, match=f"^knot 'W': .*{re.escape(message)}"):
            CompanionKnot("W", kind, (1,), **fields)
        valid = CompanionKnot("W", "legendrian", (1,), **LEGENDRIAN_FIELDS)
        cleared = dict.fromkeys(("tb", "rot", "sl", "transverse_sign"))
        with pytest.raises(ValueError, match=re.escape(message)):
            valid._replace(kind=kind, **{**cleared, **fields})

    @pytest.mark.parametrize("sign", [0, 2])
    def test_bad_sign_no_longer_reaches_the_report(self, sign):
        # Accepted before the constructor checked: invariant_report then gave
        # sl = -7/5 (sign 2) or -3/5 (sign 0) with no error.
        good = CompanionKnot("T", "transverse", (1,), sl=-1, transverse_sign=1)
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", -2, 1, ContactCoefficient(-1, 2)),), ((0,),), (good,))
        assert surgeon.invariant_report(diagram, "T").sl == -1
        with pytest.raises(ValueError, match="transverse sign must be"):
            CompanionKnot("T", "transverse", (1,), sl=-1, transverse_sign=sign)

    def test_valid_knots_construct(self):
        legendrian = CompanionKnot("K", "legendrian", [1, 0], tb=0, rot=1)
        transverse = CompanionKnot("T", "transverse", (), sl=-3, transverse_sign=-1)
        assert legendrian.lk == (1, 0) and legendrian._replace(rot=-1).rot == -1
        assert transverse._replace(transverse_sign=1).transverse_sign == 1
        # every knot the readers build from the corpus
        knots = [w for path in sorted(CORPUS.glob("diagrams/*.json"))
                 for w in load_diagram(str(path)).knots]
        for path in sorted(CORPUS.glob("fronts/*.front")):
            text = path.read_text()
            if surgeon.parse_front(text).roles:
                knots += front_diagram(text).knots
        assert {w.kind for w in knots} == {"legendrian", "transverse"}
        assert all(CompanionKnot._make(w) == w for w in knots)


def demo_diagram():
    knot = CompanionKnot("K", "legendrian", [1], tb=-1, rot=0)
    return SurgeryDiagram([unknot("+1/2")], [[0]], [knot])


# One value of each public record type, built afresh on every call.
RECORDS = {
    "CompanionKnot": lambda: CompanionKnot("K", "legendrian", [1], tb=-1, rot=0),
    "ContactCoefficient": lambda: ContactCoefficient(-1, 3),
    "D3Report": lambda: surgeon.d3_report(demo_diagram()),
    "Diagnostic": lambda: Diagnostic("warning", "U: tb+rot even (tb=-1, rot=1)"),
    "FrontDocument": lambda: surgeon.parse_front("surgery S coeff -1\nevents:\nL1 R1"),
    "FrontInvariants": lambda: surgeon.classical_invariants(surgeon.parse_front("L1 L3 X2 X2 X2 R1 R1")),
    "GeneralizedLinkingMatrix": lambda: surgeon.linking_matrix(demo_diagram()),
    "HomologyPresentation": lambda: surgeon.homology(surgeon.linking_matrix(demo_diagram())),
    "InvariantReport": lambda: surgeon.invariant_report(demo_diagram(), "K"),
    "LegendrianComponent": lambda: unknot("-1/2"),
    "SNFDecomposition": lambda: surgeon.smith_normal_form([[2, 4], [6, 8]]),
    "SolveResult": lambda: surgeon.minimal_order_solve(surgeon.exactlin.echelon_form([[2, 4]]), [3]),
    "SurgeryDiagram": demo_diagram,
}


class TestRecords:
    def test_every_public_record_is_covered(self):
        classes = {name for name in surgeon.__all__ if isinstance(getattr(surgeon, name), type)}
        assert classes - {"FrontError"} == set(RECORDS)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_immutable_hashable_value(self, name):
        record, again = RECORDS[name](), RECORDS[name]()
        assert type(record) is getattr(surgeon, name)
        assert record == again and hash(record) == hash(again)
        assert record == tuple(record)
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.note = "extra"
        copy = record._replace(**{field: getattr(record, field)})
        assert type(copy) is type(record) and copy == record

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            ContactCoefficient(1, 1)._replace(sign=2)
        with pytest.raises(ValueError):
            ContactCoefficient._make((1, 0))

    def test_replace_normalizes_to_tuples(self):
        diagram = demo_diagram()._replace(linking=[[0]])
        assert diagram.linking == ((0,),)
        assert diagram._replace(knots=[]).knots == ()
        assert diagram.knots[0]._replace(lk=[2]).lk == (2,)
