import json
import random
import sys
from pathlib import Path

import pytest

from surgeon.cli import diagram_from_dict, diagram_to_dict, frac_str, main

from helpers import random_diagram

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DIAGRAMS = CORPUS / "diagrams"
FRONTS = CORPUS / "fronts"
GOLDEN = CORPUS / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_corpus_file(self, capsys):
        code, out, err = run(capsys, "check", str(DIAGRAMS / "trefoil_chain_rot2.json"))
        assert code == 0
        assert "ok" in out

    def test_general_coefficient_rejected(self, capsys, tmp_path):
        payload = {"components": [{"name": "L", "tb": 1, "rot": 0, "coeff": "3/4"}],
                   "linking": [[0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "expanded" in err  # points at the expand-it-yourself requirement

    def test_asymmetric_linking(self, capsys, tmp_path):
        payload = {"components": [
            {"name": "A", "tb": -1, "rot": 0, "coeff": "+1"},
            {"name": "B", "tb": -1, "rot": 0, "coeff": "+1"}],
            "linking": [[0, 1], [2, 0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "not symmetric" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        payload = {"components": [], "linking": [], "framing": 3}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "framing" in err

    def test_json_syntax_error_is_line_anchored(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "components": [,]\n}')
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert ":2:" in err

    def test_integer_over_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"components": [{"name": "L", "tb": ' + "1" * 5000
                        + ', "rot": 0, "coeff": "+1"}], "linking": [[0]]}')
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_nesting_over_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert f"about {sys.getrecursionlimit()} levels" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "check", "no_such_file.json")
        assert code == 1

    @pytest.mark.parametrize("command", ["check", "invariants", "d3"])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"components": [], "linking": [], "knots": [{"name": "\xe9"}]}')
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert "internal error" not in err
        assert f"{path}: not UTF-8 text: byte 0xe9 at offset 54" in err

    def test_lone_surrogate_name_rejected(self, capsys, tmp_path):
        # json decodes the escape to a str that no UTF-8 stream can print
        path = tmp_path / "surrogate.json"
        path.write_text('{"components": [{"name": "L", "tb": -1, "rot": 0, "coeff": "+1"}], '
                        '"linking": [[0]], "knots": [{"name": "\\ud800", "kind": "legendrian", '
                        '"tb": -1, "rot": 0, "lk": [1]}]}')
        for argv in (["check"], ["invariants", "--format", "text"]):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
            assert code == 1
            assert "knots[0].name" in err and "lone surrogate" in err

    def test_warning_keeps_exit_zero(self, capsys, tmp_path):
        payload = {"components": [{"name": "L", "tb": -1, "rot": 1, "coeff": "+1"}],
                   "linking": [[0]]}
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert code == 0
        assert "tb+rot even" in err


class TestInvariantsCommand:
    def test_report_values(self, capsys):
        code, out, _ = run(capsys, "invariants", str(DIAGRAMS / "trefoil_chain_rot2.json"),
                           "--knot", "L0")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 1
        assert data["solution"] == [3, 1]
        assert data["rot"] == "-2"
        assert data["seifert_dependence"] == "unique"

    def test_transverse_report(self, capsys):
        code, out, _ = run(capsys, "invariants",
                           str(DIAGRAMS / "overtwisted_sphere_positive.json"), "--knot", "T0")
        data = json.loads(out)
        assert data["sl"] == "1"
        assert data["tb"] is None

    def test_rational_report(self, capsys):
        code, out, _ = run(capsys, "invariants", str(DIAGRAMS / "rational_order3.json"))
        data = json.loads(out)
        assert data["order"] == 3
        assert data["tb"] == "-1/3"

    def test_default_knot_requires_uniqueness(self, capsys):
        code, out, err = run(capsys, "invariants",
                             str(DIAGRAMS / "overtwisted_sphere_positive.json"))
        assert code == 1
        assert "--knot" in err

    def test_unknown_knot(self, capsys):
        code, out, err = run(capsys, "invariants", str(DIAGRAMS / "rational_order3.json"),
                             "--knot", "nope")
        assert code == 1
        assert "unknown knot" in err

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "invariants", str(DIAGRAMS / "rational_order3.json"),
                           "--format", "text")
        assert code == 0
        assert "order: 3" in out


class TestD3Command:
    @pytest.mark.parametrize("name,closed", [
        ("unknot_plus1.json", "0"),
        ("unknot_plus1_over_2.json", "1/2"),
        ("unknot_plus1_over_4.json", "0"),
        ("unknot_minus1.json", "-1/4"),
        ("unknot_minus1_over_2.json", "0"),
    ])
    def test_unknot_family(self, capsys, name, closed):
        code, out, _ = run(capsys, "d3", str(DIAGRAMS / name))
        assert code == 0
        data = json.loads(out)
        assert data["d3_closed_form"] == closed
        assert data["d3_via_expansion"] == closed
        assert data["torsion"] is True

    def test_non_torsion(self, capsys):
        code, out, _ = run(capsys, "d3", str(DIAGRAMS / "nontorsion.json"))
        data = json.loads(out)
        assert data["torsion"] is False
        assert data["d3_closed_form"] == "undefined"
        assert data["d3_via_expansion"] == "undefined"
        assert data["homology"]["free_rank"] == 1

    def test_empty_diagram(self, capsys):
        code, out, _ = run(capsys, "d3", str(DIAGRAMS / "empty.json"))
        data = json.loads(out)
        assert data["d3_closed_form"] == "-1/2"


class TestExpandCommand:
    def test_expansion_roundtrips_through_check(self, capsys, tmp_path):
        out_path = tmp_path / "expanded.json"
        code, _, _ = run(capsys, "expand", str(DIAGRAMS / "unknot_plus1_over_2.json"),
                         str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert len(data["components"]) == 2
        assert data["linking"] == [[0, -1], [-1, 0]]
        code, out, err = run(capsys, "check", str(out_path))
        assert code == 0

    def test_copy_count(self, capsys, tmp_path):
        payload = {"components": [{"name": "L", "tb": -1, "rot": 0, "coeff": "+1/3"}],
                   "linking": [[0]]}
        src = tmp_path / "third.json"
        src.write_text(json.dumps(payload))
        out_path = tmp_path / "expanded.json"
        run(capsys, "expand", str(src), str(out_path))
        data = json.loads(out_path.read_text())
        assert [c["name"] for c in data["components"]] == ["L.1", "L.2", "L.3"]

    def test_pm1_file_unchanged(self, capsys, tmp_path):
        out_path = tmp_path / "expanded.json"
        code, _, _ = run(capsys, "expand", str(DIAGRAMS / "unknot_plus1.json"), str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        original = json.loads((DIAGRAMS / "unknot_plus1.json").read_text())
        assert data == original


class TestFrontCommand:
    def test_unknot_table(self, capsys):
        code, out, _ = run(capsys, "front", str(FRONTS / "unknot.front"))
        assert code == 0
        assert "-1" in out and "tb" in out

    def test_trefoil_json(self, capsys):
        code, out, _ = run(capsys, "front", str(FRONTS / "trefoil_max_tb.front"),
                           "--format", "json")
        data = json.loads(out)
        assert data["components"][0]["tb"] == 1

    def test_malformed_document_positioned(self, capsys, tmp_path):
        path = tmp_path / "bad.front"
        path.write_text("L1 R2\n")
        code, out, err = run(capsys, "front", str(path))
        assert code == 1
        assert "line 1" in err and "R2" in err

    def test_position_over_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.front"
        path.write_text("L" + "1" * 5000 + " R1\n")
        code, out, err = run(capsys, "front", str(path))
        assert code == 1
        assert "line 1, column 1" in err
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "bom16.front"
        path.write_bytes(b"\xff\xfeL\x001\x00")
        code, out, err = run(capsys, "front", str(path))
        assert code == 1
        assert "internal error" not in err
        assert f"{path}: not UTF-8 text: byte 0xff at offset 0" in err

    def test_emit_diagram_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "front_diagram.json"
        code, out, _ = run(capsys, "front", str(FRONTS / "surgery_demo.front"),
                           "--emit-diagram", str(out_path))
        assert code == 0
        code, _, _ = run(capsys, "check", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["components"] == [{"name": "S", "tb": -1, "rot": 0, "coeff": "-1"}]
        assert data["knots"][0]["lk"] == [1]


class TestSerialization:
    def test_roundtrip_random_diagrams(self):
        rng = random.Random(606)
        for _ in range(60):
            diagram = random_diagram(rng, with_knot=True)
            assert diagram_from_dict(diagram_to_dict(diagram)) == diagram

    def test_roundtrip_transverse(self):
        from surgeon import CompanionKnot, ContactCoefficient, LegendrianComponent, SurgeryDiagram
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", -2, 1, ContactCoefficient.parse("+1")),), ((0,),),
            (CompanionKnot("T", "transverse", (-1,), sl=-1, transverse_sign=1),))
        assert diagram_from_dict(diagram_to_dict(diagram)) == diagram

    def test_frac_str(self):
        from fractions import Fraction
        assert frac_str(Fraction(3)) == "3"
        assert frac_str(Fraction(-5, 3)) == "-5/3"
        assert frac_str(7) == "7"


class TestExitCodes:
    def test_internal_error_is_exit_two(self, capsys, monkeypatch):
        import surgeon.cli as cli

        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_diagram", boom)
        code = cli.main(["check", "whatever.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" in err

    def test_knots_must_be_a_list(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [], "linking": [], "knots": 3}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "list" in err


class TestColor:
    def test_forced_on(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SURGEON_COLOR", "1")
        code, out, err = run(capsys, "check", "missing.json")
        assert "\x1b[31m" in err

    def test_forced_off(self, capsys, monkeypatch):
        monkeypatch.setenv("SURGEON_COLOR", "0")
        code, out, err = run(capsys, "check", "missing.json")
        assert "\x1b[" not in err


class TestGolden:
    """Recompute every stored report and diff it byte for byte."""

    def test_golden_reports(self, capsys):
        entries = json.loads((GOLDEN / "manifest.json").read_text())
        assert entries, "empty golden manifest"
        for entry in entries:
            argv = [arg.replace("{corpus}", str(CORPUS)) for arg in entry["argv"]]
            code, out, _ = run(capsys, *argv)
            assert code == 0, entry
            expected = (GOLDEN / entry["output"]).read_text()
            assert out == expected, f"golden mismatch for {entry['output']}"
