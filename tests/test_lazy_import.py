"""The import contract of the package.

`import surgeon.cli` runs only `cli` and `diagrams`.  The other five
layers are registered in `sys.modules` as lazy modules and run on first
use, so code that looks a layer up there, such as the benchmark's span
tracer, finds all seven.  No command imports `dataclasses`, which would
bring in `inspect` and cost every command more than a small diagram does.
The import checks run in a fresh interpreter, because this test session
has long since loaded every layer.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import surgeon

ROOT = Path(__file__).resolve().parent.parent
CHECKED_FILE = ROOT / "corpus" / "diagrams" / "trefoil_chain_rot2.json"
LAZY = ("d3", "exactlin", "fronts", "invariants", "surgery")

PUBLIC = """
    CompanionKnot ContactCoefficient D3Report Diagnostic FrontDocument FrontError
    FrontInvariants GeneralizedLinkingMatrix HomologyPresentation InvariantReport
    LegendrianComponent SNFDecomposition SolveResult SurgeryDiagram classical_invariants
    d3_report diagram_signature expand_to_pm1 homology invariant_report
    linking_matrix minimal_order_solve parse_front smith_normal_form symmetric_signature
    to_diagram topological_coefficient validate
""".split()

# Prints, as JSON, the layers missing from sys.modules, the lazy layers
# whose code has run (a module's own names appear in its namespace only
# then; object.__getattribute__ reads it without loading the module),
# whether `fractions` is imported, and whether `dataclasses` was imported
# after the interpreter started (`site` may import modules of its own).
STATE = f"""
    import sys
    BARE = set(sys.modules)

    def state():
        layers = ("cli", "diagrams") + {LAZY!r}
        missing = [l for l in layers if "surgeon." + l not in sys.modules]
        ran = [l for l in {LAZY!r} if l not in missing and any(
            not k.startswith("__")
            for k in object.__getattribute__(sys.modules["surgeon." + l], "__dict__"))]
        return {{"missing": missing, "ran": ran, "fractions": "fractions" in sys.modules,
                 "dataclasses": "dataclasses" in set(sys.modules) - BARE}}
"""

# One run of each command; "{out}" stands for a file the command writes.
COMMANDS = {
    "check": ["check", str(CHECKED_FILE)],
    "invariants": ["invariants", str(CHECKED_FILE)],
    "d3": ["d3", str(CHECKED_FILE)],
    "expand": ["expand", str(ROOT / "corpus" / "diagrams" / "unknot_plus1_over_4.json"), "{out}"],
    "front": ["front", str(ROOT / "corpus" / "fronts" / "surgery_demo.front"), "--emit-diagram",
              "{out}"],
}


def run_fresh(body: str) -> dict:
    """Run `body` in a fresh interpreter; return the JSON of its last line."""
    paths = [str(ROOT / "src"), str(ROOT / "bench")] + [os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = textwrap.dedent(STATE) + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_runs_no_other_layer():
    result = run_fresh("""
        import json
        import surgeon.cli
        print(json.dumps(state()))
    """)
    assert result == {"missing": [], "ran": [], "fractions": False, "dataclasses": False}


def test_check_command_runs_no_other_layer():
    result = run_fresh(f"""
        import json
        from surgeon.cli import main
        assert main(["check", {str(CHECKED_FILE)!r}]) == 0
        print(json.dumps(state()))
    """)
    assert result == {"missing": [], "ran": [], "fractions": False, "dataclasses": False}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_command_imports_dataclasses(command, tmp_path):
    argv = [arg.replace("{out}", str(tmp_path / "out.json")) for arg in COMMANDS[command]]
    result = run_fresh(f"""
        import json
        from surgeon.cli import main
        assert main({argv!r}) == 0
        print(json.dumps(state()))
    """)
    assert result["missing"] == []
    assert result["dataclasses"] is False


def test_tracer_installs_on_lazy_layers():
    # The tracer reads every layer's vars(), which loads it, and the cli
    # then calls the wrapped functions through the layer modules.
    result = run_fresh(f"""
        import json
        import surgeon.cli
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op(0)
        assert surgeon.cli.main(["d3", {str(CHECKED_FILE)!r}]) == 0
        tracer.end_op()
        tracer.uninstall()
        print(json.dumps(dict(state(), spans=sorted({{span[3] for span in tracer.spans}}))))
    """)
    assert result["missing"] == []
    assert result["ran"] == list(LAZY)
    assert {"cli.main", "d3.d3_report", "exactlin.minimal_order_solve", "surgery.homology",
            "exactlin.echelon_form"} <= set(result["spans"])


def test_count_calls_loads_the_lazy_layers_first():
    # Wrapping exactlin's echelon_form before any other layer loads counts
    # each call once: `surgery`, loaded later, calls it through exactlin.
    result = run_fresh(f"""
        import json
        import sys
        sys.path.insert(0, {str(ROOT / "tests")!r})
        import pytest
        import surgeon.cli
        from helpers import count_calls

        assert state()["ran"] == []
        with pytest.MonkeyPatch.context() as monkeypatch:
            formed = count_calls(monkeypatch, surgeon.exactlin, "echelon_form")
            assert surgeon.cli.main(["d3", {str(CHECKED_FILE)!r}]) == 0
        print(json.dumps(len(formed)))
    """)
    assert result == 1


def test_public_names_resolve_to_their_definitions():
    assert surgeon.__all__ == PUBLIC
    listed = dir(surgeon)
    for name in surgeon.__all__:
        obj = getattr(surgeon, name)
        assert obj.__module__.startswith("surgeon.")
        assert vars(sys.modules[obj.__module__])[name] is obj, name
        assert name in listed
    assert not hasattr(surgeon, "no_such_name")
