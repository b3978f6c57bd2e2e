import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import surgeon.d3
import surgeon.exactlin
import surgeon.fronts
import surgeon.invariants
import surgeon.surgery
from surgeon import expand_to_pm1
from surgeon.cli import UserError, diagram_from_dict, diagram_to_dict, load_diagram, main

from helpers import count_calls, cpu_limit, front_diagram, random_diagram

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

    @pytest.mark.parametrize("knot,lk,report,text", [
        # Q = [[0]]: lk [0] is solvable, but the kernel vector [1] shifts rot by 2.
        ("K", [0], {"order": 1, "solution": [0], "tb": "-1", "rot": "0", "sl": None,
                    "seifert_dependence": [{"kernel_vector": [1], "rot_shift": "2"}]},
         ["order: 1", "solution: [0]", "tb: -1", "rot: 0", "sl: None",
          "seifert_dependence: [{'kernel_vector': [1], 'rot_shift': '2'}]"]),
        # lk [1] is not in the image of Q.
        ("N", [1], {"order": "not rationally nullhomologous", "solution": None, "tb": None,
                    "rot": None, "sl": None, "seifert_dependence": None},
         ["order: not rationally nullhomologous", "solution: None", "tb: None", "rot: None",
          "sl: None", "seifert_dependence: None"]),
    ], ids=["seifert-dependence", "not-nullhomologous"])
    def test_report_shapes_of_a_singular_matrix(self, capsys, tmp_path, knot, lk, report, text):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "components": [{"name": "U", "tb": -1, "rot": 2, "coeff": "+1"}], "linking": [[0]],
            "knots": [{"name": knot, "kind": "legendrian", "tb": -1, "rot": 0, "lk": lk}]}))
        code, out, _ = run(capsys, "invariants", str(path))
        assert code == 0
        assert json.loads(out) == {"knot": knot, "kind": "legendrian", **report}
        code, out, _ = run(capsys, "invariants", str(path), "--format", "text")
        assert code == 0
        assert out.splitlines() == [f"knot: {knot}", "kind: legendrian", *text]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "invariants", str(DIAGRAMS / "rational_order3.json"),
                           "--format", "text")
        assert code == 0
        assert "order: 3" in out

    def test_knot_name_starting_with_a_dash(self, capsys, tmp_path):
        data = json.loads((DIAGRAMS / "rational_order3.json").read_text())
        data["knots"][0]["name"] = "-1/3"
        path = tmp_path / "dash.json"
        path.write_text(json.dumps(data))
        # argparse reads a separate "-1/3" as an option, so the value needs "="
        code, out, err = run(capsys, "invariants", str(path), "--knot", "-1/3")
        assert (code, out) == (1, "")
        assert "argument --knot: expected one argument" in err
        code, out, _ = run(capsys, "invariants", str(path), "--knot=-1/3")
        assert code == 0
        assert json.loads(out)["knot"] == "-1/3"
        with pytest.raises(SystemExit):
            main(["invariants", "--help"])
        assert "--knot=NAME" in capsys.readouterr().out


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

    def test_cross_check_skipped_over_expansion_limit(self, capsys, tmp_path):
        # Expanding +1/100000 would build a 100000 x 100000 linking matrix.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"components": [
            {"name": "U", "tb": -1, "rot": 0, "coeff": "+1/100000"}], "linking": [[0]]}))
        with cpu_limit(5):
            code, out, _ = run(capsys, "d3", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["d3_closed_form"] == "-24999"
        assert data["d3_via_expansion"].startswith("skipped: ")
        assert "limit of 128" in data["d3_via_expansion"]

    @pytest.mark.parametrize("name,solves,signatures", [
        # A +-1 diagram expands to itself: the cross-check is the closed form.
        ("trefoil_chain_rot2.json", 1, 1),
        # Some m > 1: the closed form runs again on the expansion.
        ("unknot_plus1_over_2.json", 2, 2),
    ])
    def test_cross_check_work(self, capsys, monkeypatch, name, solves, signatures):
        solved = count_calls(monkeypatch, surgeon.exactlin, "minimal_order_solve")
        signed = count_calls(monkeypatch, surgeon.exactlin, "symmetric_signature")
        code, out, _ = run(capsys, "d3", str(DIAGRAMS / name))
        assert code == 0
        data = json.loads(out)
        assert data["torsion"] is True
        assert data["d3_via_expansion"] == data["d3_closed_form"]
        assert (len(solved), len(signed)) == (solves, signatures)

    @pytest.mark.parametrize("name,forms", [
        # One echelon form of Q serves the solve of Q*b = rot and H_1.
        ("trefoil_chain_rot2.json", 1),
        # The expansion has its own Q, and the cross-check solves with it.
        ("unknot_plus1_over_2.json", 2),
    ])
    def test_one_echelon_form_per_linking_matrix(self, capsys, monkeypatch, name, forms):
        formed = count_calls(monkeypatch, surgeon.exactlin, "echelon_form")
        code, _, _ = run(capsys, "d3", str(DIAGRAMS / name))
        assert code == 0
        assert len(formed) == forms


@pytest.mark.parametrize("command,name,builds", [
    # One linking matrix and its echelon form serve b, d3 and H_1.
    ("d3", "trefoil_chain_rot2.json", 1),
    # The expansion has its own Q.
    ("d3", "unknot_plus1_over_2.json", 2),
    ("invariants", "trefoil_chain_rot2.json", 1),
])
def test_one_linking_matrix_per_command(capsys, monkeypatch, command, name, builds):
    built = count_calls(monkeypatch, surgeon.surgery, "linking_matrix")
    code, _, _ = run(capsys, command, str(DIAGRAMS / name))
    assert code == 0
    assert len(built) == builds


@pytest.mark.parametrize("argv", [
    ["check", "{diagrams}/trefoil_chain_rot2.json"],
    ["invariants", "{diagrams}/trefoil_chain_rot2.json"],
    ["d3", "{diagrams}/trefoil_chain_rot2.json"],
    ["d3", "{diagrams}/unknot_plus1_over_2.json"],
    ["expand", "{diagrams}/unknot_plus1_over_4.json", "{out}"],
    ["front", "{fronts}/surgery_demo.front", "--emit-diagram", "{out}"],
], ids=lambda argv: "-".join(Path(a).stem for a in argv[:2]))
def test_no_command_runs_the_smith_form_with_transforms(capsys, monkeypatch, tmp_path, argv):
    snf = count_calls(monkeypatch, surgeon.exactlin, "smith_normal_form")
    argv = [a.format(diagrams=DIAGRAMS, fronts=FRONTS, out=tmp_path / "out.json") for a in argv]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert snf == []


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

    def test_expansion_writes_one_record_per_line(self, capsys, tmp_path):
        out_path = tmp_path / "expanded.json"
        code, _, _ = run(capsys, "expand", str(DIAGRAMS / "unknot_plus1_over_4.json"),
                         str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[:3] == ["{", '  "components": [',
                             '    {"name": "unknot.1", "tb": -1, "rot": 0, "coeff": "+1"},']
        assert lines[7:9] == ['  "linking": [', "    [0, -1, -1, -1],"]
        assert len(lines) == 2 + (4 + 2) + (4 + 2)
        expanded = expand_to_pm1(load_diagram(str(DIAGRAMS / "unknot_plus1_over_4.json")))
        assert json.loads(out_path.read_text()) == diagram_to_dict(expanded)

    def test_copy_count(self, capsys, tmp_path):
        payload = {"components": [{"name": "L", "tb": -1, "rot": 0, "coeff": "+1/3"}],
                   "linking": [[0]]}
        src = tmp_path / "third.json"
        src.write_text(json.dumps(payload))
        out_path = tmp_path / "expanded.json"
        run(capsys, "expand", str(src), str(out_path))
        data = json.loads(out_path.read_text())
        assert [c["name"] for c in data["components"]] == ["L.1", "L.2", "L.3"]

    def test_over_expansion_limit_exits_one(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"components": [
            {"name": "U", "tb": -1, "rot": 0, "coeff": "-1/129"}], "linking": [[0]]}))
        out_path = tmp_path / "expanded.json"
        code, _, err = run(capsys, "expand", str(path), str(out_path))
        assert code == 1
        assert "more than the limit of 128" in err
        assert not out_path.exists()

    def test_copy_name_taken_by_a_knot_exits_one(self, capsys, tmp_path):
        # Copy 1 of A is named "A.1", the companion's name; the written file
        # would fail `check`.
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({
            "components": [{"name": "A", "tb": -1, "rot": 0, "coeff": "+1/2"}],
            "linking": [[0]],
            "knots": [{"name": "A.1", "kind": "legendrian", "tb": -1, "rot": 0, "lk": [1]}]}))
        assert run(capsys, "check", str(path))[0] == 0
        out_path = tmp_path / "expanded.json"
        code, _, err = run(capsys, "expand", str(path), str(out_path))
        assert code == 1
        assert "duplicate name 'A.1'" in err
        assert not out_path.exists()
        code, out, _ = run(capsys, "d3", str(path))
        assert code == 0
        assert json.loads(out)["d3_via_expansion"] == json.loads(out)["d3_closed_form"] == "1/2"

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

    @pytest.mark.parametrize("text,position,message", [
        ("surgery S coeff\nevents:\nL1 R1\n", "line 1, column 1",
         "expected: surgery <name> coeff <s/m> [reversed]"),
        ("companion K sideways\nevents:\nL1 R1\n", "line 1, column 1",
         "expected: companion <name> legendrian|transverse [positive|negative] [reversed]"),
        ("companion K legendrian extra\nevents:\nL1 R1\n", "line 1, column 24",
         "unexpected token 'extra'"),
        ("events:\nevents:\nL1 R1\n", "line 2, column 1", "duplicate 'events:' marker"),
        ("L1 R1 events:\n", "line 1, column 7", "'events:' marker must precede all events"),
    ], ids=["surgery-header", "companion-kind", "companion-extra", "second-marker",
            "late-marker"])
    def test_header_and_marker_errors_positioned(self, capsys, tmp_path, text, position,
                                                 message):
        path = tmp_path / "bad.front"
        path.write_text(text)
        code, out, err = run(capsys, "front", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {position}: {message}\n"

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

    @pytest.mark.parametrize("emit", [False, True])
    def test_extra_role_header_rejected(self, capsys, tmp_path, emit):
        path = tmp_path / "extra.front"
        path.write_text("surgery A coeff +1\nsurgery B coeff -1\nevents:\nL1 R1\n")
        out_path = tmp_path / "diagram.json"
        argv = ["front", str(path)] + (["--emit-diagram", str(out_path)] if emit else [])
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert (f"{path}: line 2, column 1: role header 'B' has no matching component "
                "(document has 1)") in err
        assert not out_path.exists()

    def test_emit_diagram_refuses_invalid_diagram(self, capsys, tmp_path):
        # A companion named like a surgery component: the table alone is
        # fine, but `check` would reject the diagram, so nothing is emitted.
        path = tmp_path / "clash.front"
        path.write_text("surgery A coeff +1\ncompanion A legendrian\nevents:\nL1 R1 L1 R1\n")
        out_path = tmp_path / "diagram.json"
        code, out, _ = run(capsys, "front", str(path))
        assert code == 0 and out
        code, out, err = run(capsys, "front", str(path), "--emit-diagram", str(out_path))
        assert code == 1
        assert out == ""
        assert f"{path}: the emitted diagram would be invalid: duplicate name 'A'" in err
        assert not out_path.exists()

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

    def test_emit_diagram_writes_one_record_per_line(self, capsys, tmp_path):
        # A chain of k clasped unknots and a companion clasping the last one:
        # one line per component, linking row and knot, and one per bracket.
        k = 20
        headers = [f"surgery C{j} coeff -1" for j in range(1, k + 1)] + ["companion K legendrian"]
        events = ["L1"] + [f"L{j + 1} X{j} X{j}" for j in range(1, k + 1)]
        events += [f"R{j}" for j in range(k + 1, 0, -1)]
        path, out_path = tmp_path / "chain.front", tmp_path / "chain.json"
        path.write_text("\n".join(headers) + "\nevents:\n" + " ".join(events) + "\n")
        code, _, _ = run(capsys, "front", str(path), "--emit-diagram", str(out_path))
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert len(lines) == 2 + (k + 2) + (k + 2) + 3
        assert json.loads(lines[2].rstrip(",")) == {"name": "C1", "tb": -1, "rot": 0, "coeff": "-1"}
        assert json.loads(text) == diagram_to_dict(front_diagram(path.read_text()))

    def test_emit_diagram_traces_once(self, capsys, monkeypatch, tmp_path):
        traced = count_calls(monkeypatch, surgeon.fronts, "classical_invariants")
        assembled = count_calls(monkeypatch, surgeon.fronts, "to_diagram")
        code, _, _ = run(capsys, "front", str(FRONTS / "surgery_demo.front"),
                         "--emit-diagram", str(tmp_path / "front_diagram.json"))
        assert code == 0
        assert (len(traced), len(assembled)) == (1, 1)


def test_closed_stdout_exits_1_quietly(tmp_path):
    # A table of 150 clasped unknots (about 90 KB, more than a pipe holds)
    # read up to its first line: the writes after that fail with EPIPE.
    k = 150
    headers = [f"surgery C{j} coeff -1" for j in range(1, k + 1)]
    events = ["L1"] + [f"L{j + 1} X{j} X{j}" for j in range(1, k)] + [f"R{j}" for j in range(k, 0, -1)]
    path = tmp_path / "chain.front"
    path.write_text("\n".join(headers) + "\nevents:\n" + " ".join(events) + "\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(Path(surgeon.__file__).parent.parent), os.environ.get("PYTHONPATH", "")] if p))
    with subprocess.Popen([sys.executable, "-m", "surgeon.cli", "front", str(path)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split() == [b"component", b"tb", b"rot"]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1, err
    assert "internal error" not in err and "Exception ignored" not in err, err


def test_closed_in_process_stdout_exits_1(monkeypatch, capsys):
    # An in-process stdout has no file descriptor to point at devnull.
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["check", str(DIAGRAMS / "trefoil_chain_rot2.json")]) == 1
    assert "internal error" not in capsys.readouterr().err


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

    def test_bad_linking_entry_is_located(self):
        # Entry locations are formatted only once a row fails its type check.
        k = 50
        linking = [[int(i != j) for j in range(k)] for i in range(k)]
        data = {"components": [{"name": f"C{i}", "tb": -1, "rot": 0, "coeff": "+1"}
                               for i in range(k)], "linking": linking}
        for bad in ("1", True):
            linking[37][12] = bad
            with pytest.raises(UserError) as info:
                diagram_from_dict(data)
            assert str(info.value) == f"linking[37][12]: expected an integer, got {bad!r}"


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

    @pytest.mark.parametrize("knot,message", [
        ({"name": "K", "kind": "legendrian", "tb": -1, "rot": 0, "lk": 5},
         "knots[0].lk: expected a list of integers"),
        ({"name": "T", "kind": "transverse", "sl": -1, "sign": "up", "lk": [1]},
         "knots[0].sign: expected 'positive' or 'negative', got 'up'"),
    ], ids=["lk-not-a-list", "unknown-sign"])
    def test_bad_knot_field(self, capsys, tmp_path, knot, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [{"name": "U", "tb": -1, "rot": 0,
                                                    "coeff": "+1"}],
                                    "linking": [[0]], "knots": [knot]}))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["expand", str(DIAGRAMS / "unknot_plus1_over_2.json")],
        ["front", str(FRONTS / "surgery_demo.front"), "--emit-diagram"],
    ], ids=["expand", "front"])
    def test_write_into_missing_directory(self, capsys, tmp_path, argv):
        out_path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, *argv, str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: {out_path}: No such file or directory\n"
        assert not out_path.parent.exists()

    def test_knots_must_be_a_list(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"components": [], "linking": [], "knots": 3}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 1
        assert "list" in err

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["--bogus"], "the following arguments are required: command"),
        (["d3", str(DIAGRAMS / "nontorsion.json"), "--format", "xml"],
         "argument --format: invalid choice: 'xml'"),
    ])
    def test_usage_error_is_exit_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: surgeon")
        assert f"error: {message}" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: surgeon")


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
