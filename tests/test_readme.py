"""The README's examples run as written."""

import re
from fractions import Fraction
from pathlib import Path

from surgeon.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def example(heading):
    """The first fenced code block after a README heading."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(r"^```[a-z]*\n(.*?)^```$", section, re.MULTILINE | re.DOTALL).group(1)


def test_library_snippet():
    namespace = {}
    exec(example("## Library"), namespace)
    report, d3 = namespace["report"], namespace["d3"]
    # the values its comments give
    assert (report.order, report.tb, report.rot) == (3, Fraction(-1, 3), 0)
    assert d3.d3 == 0
    assert (d3.homology.invariant_factors, d3.homology.free_rank) == ((3,), 0)


def test_diagram_file_example_checks(capsys, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(example("### Diagram files"), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_front_file_example_emits_a_diagram_that_checks(capsys, tmp_path):
    front, diagram = tmp_path / "example.front", tmp_path / "example.json"
    front.write_text(example("### Front files"), encoding="utf-8")
    assert main(["front", str(front), "--emit-diagram", str(diagram)]) == 0
    assert main(["check", str(diagram)]) == 0
    assert capsys.readouterr().out.endswith(f"{diagram}: ok\n")
