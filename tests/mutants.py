"""The mutant catalogue: each entry breaks the program in one place, and
the tier-1 tests it names must fail on that copy.  `python tests/mutants.py`
copies src, tests, corpus, bench and pyproject.toml to a temporary
directory per entry, replaces `old` (which must occur exactly once) by `new`
in `path`, runs `PYTHONPATH=src python -m pytest -q -rf` on the named ids
there, and exits 1 unless every run exits 1 with every named id failed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE, CLI, EXACTLIN, SURGERY = (f"tests/test_{n}.py::" for n in ("acceptance", "cli", "exactlin", "surgery"))
SMITH_HOMOLOGY = SURGERY + "TestHomologyAgainstSmithForm::"
SOLVE_RESULT = "    return SolveResult(den // g, tuple(a), kernel)"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    ids: tuple[str, ...]


CATALOGUE = [
    Mutant("src/surgeon/surgery.py", "exactlin.smith_diagonal(list(zip(*(r[:q.k] for r in q.form))))",
           "exactlin.smith_normal_form(list(zip(*(r[:q.k] for r in q.form)))).diagonal",
           (CLI + "test_no_command_runs_the_smith_form_with_transforms[d3-trefoil_chain_rot2]",
            CLI + "test_no_command_runs_the_smith_form_with_transforms[d3-unknot_plus1_over_2]")),
    # _smith returns right after the passes, with no divisibility chain
    Mutant("src/surgeon/exactlin.py", "rank = sum(1 for i in range(min(nrows, ncols)) if D[i][i])", "rank = 0",
           (EXACTLIN + "TestSmithNormalForm::test_random_matrices", SMITH_HOMOLOGY + "test_non_dividing_family")),
    # the chain walks adjacent pairs only
    Mutant("src/surgeon/exactlin.py", "for i, j in combinations(range(rank), 2):",
           "for i, j in zip(range(rank), range(1, rank)):",
           (SMITH_HOMOLOGY + "test_dense", SMITH_HOMOLOGY + "test_non_dividing_family",
            SURGERY + "test_homology_repairs_divisibility_on_the_diagonal")),
    # the 2 x 2 repair updates D but not the rows of U and V^T
    Mutant("src/surgeon/exactlin.py", "E, (U[i], U[j]), (Vt[i], Vt[j]) = _smith(", "E, _, _ = _smith(",
           (EXACTLIN + "TestSmithNormalForm::test_random_matrices", SMITH_HOMOLOGY + "test_non_dividing_family",
            ACCEPTANCE + "test_solver_oracle_equivalence")),
    # the 2 x 2 repair without the column add recurses forever
    Mutant("src/surgeon/exactlin.py", "[[D[i][i], 0], [D[j][j], D[j][j]]]", "[[D[i][i], 0], [0, D[j][j]]]",
           (SMITH_HOMOLOGY + "test_non_dividing_family", ACCEPTANCE + "test_d3_equality_randomized")),
    # d3_report computes the signature of diag(m) * Q a second time
    Mutant("src/surgeon/d3.py", "        d3 = total / 4",
           "        exactlin.symmetric_signature([[m * x for x in row] for m, row in zip(q.magnitudes, q.entries)])\n"
           "        d3 = total / 4", (CLI + "TestD3Command::test_cross_check_work[trefoil_chain_rot2.json-1-1]",
                                     CLI + "TestD3Command::test_cross_check_work[unknot_plus1_over_2.json-2-2]")),
    Mutant("src/surgeon/surgery.py", "EXPANSION_LIMIT = 128", "EXPANSION_LIMIT = 127",
           (CLI + "TestD3Command::test_cross_check_at_expansion_limit",)),
    Mutant("src/surgeon/fronts.py", "sl=tb - role.sign * rot", "sl=tb + role.sign * rot",
           (CLI + "TestFrontCommand::test_transverse_header_through_invariants[positive--5/2]",
            CLI + "TestFrontCommand::test_transverse_header_through_invariants[negative--1/2]")),
    Mutant("src/surgeon/cli.py", '"coeff": str(c.coeff)', '"coeff": f"{c.coeff.sign:+d}"',
           (CLI + "TestFrontCommand::test_emitted_diagram_through_every_command[minus1_over_2]",)),
    Mutant("src/surgeon/cli.py", "        self.print_usage(sys.stderr)\n", "",
           tuple(f"{CLI}TestExitCodes::test_usage_error_is_exit_one[{case}]" for case in (
               "argv0-the following arguments are required: command",
               "argv1-the following arguments are required: command",
               "argv2-argument --format: invalid choice: 'xml'", "argv3-argument --knot: expected one argument"))),
    Mutant("src/surgeon/invariants.py", "knot.tb - d_tb, knot.rot - d_rot", "knot.tb + d_tb, knot.rot - d_rot",
           (ACCEPTANCE + "test_solution_independence",)),
    Mutant("src/surgeon/d3.py", "(m * x * c.rot + (3 - m) * c.coeff.sign", "(x * c.rot + (3 - m) * c.coeff.sign",
           (ACCEPTANCE + "test_solution_independence", ACCEPTANCE + "test_d3_equality_randomized")),
    Mutant("src/surgeon/d3.py", "(3 - m) * c.coeff.sign", "(3 - m) * c.coeff.sign * m",
           (ACCEPTANCE + "test_d3_equality_randomized",)),
    Mutant("src/surgeon/exactlin.py", "kernel = tuple(r[nrows:] for r in form[rank:])", "kernel = ()",
           (ACCEPTANCE + "test_d3_equality_randomized",)),
    Mutant("src/surgeon/exactlin.py", "kernel = tuple(r[nrows:] for r in form[rank:])",
           "kernel = tuple(r[nrows:] for r in form[rank + 1:])",
           (EXACTLIN + "TestOneFactorizationPerSolve::test_minimal_order_solve",)),
    # the expansion drops the linking tb of copies of one component
    Mutant("src/surgeon/surgery.py", "0 if a == b else diagram.components[i].tb if i == j", "0 if a == b or i == j",
           (ACCEPTANCE + "test_d3_equality_randomized",)),
    # the solve checks all but the last row for a rational preimage
    Mutant("src/surgeon/exactlin.py", "image)) for j in range(nrows)):", "image)) for j in range(nrows - 1)):",
           (ACCEPTANCE + "test_solver_oracle_equivalence",)),
    # the order is the pivot product, not the minimal order
    Mutant("src/surgeon/exactlin.py", "g = gcd(den, *num)", "g = 1", (ACCEPTANCE + "test_solver_oracle_equivalence",)),
    Mutant("src/surgeon/exactlin.py", SOLVE_RESULT, SOLVE_RESULT.replace("tuple(a)", "tuple(a[::-1])"),
           (EXACTLIN + "TestSolvers::test_invertible_system",)),
    Mutant("src/surgeon/exactlin.py", SOLVE_RESULT, SOLVE_RESULT.replace("den // g", "1"),
           (EXACTLIN + "TestSolvers::test_minimal_order_single",)),
    Mutant("src/surgeon/exactlin.py", "n_minus += (pivot > 0) != (prev > 0)", "n_minus += pivot < 0",
           (EXACTLIN + "TestSignature::test_against_fraction_elimination_and_char_poly[uniform]",)),
    Mutant("src/surgeon/surgery.py", "tuple(d for d in diagonal if d > 1)", "tuple(d for d in diagonal if d > 2)",
           (SMITH_HOMOLOGY + "test_dense",)),
]


def verdict(mutant: Mutant) -> str:
    """'killed', or why the mutant is not."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("src", "tests", "corpus", "bench", "pyproject.toml"):
            (shutil.copytree if (ROOT / name).is_dir() else shutil.copy)(ROOT / name, Path(tmp, name))
        target = Path(tmp, mutant.path)
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"stale: {mutant.path} holds the old text {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", *mutant.ids], cwd=tmp,
                             env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    failed = {line[len("FAILED "):].split(" - ")[0] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    alive = [i for i in mutant.ids if i not in failed]
    if run.returncode != 1 or alive:
        return f"survived: pytest exit {run.returncode}, not failed: {alive}"
    return "killed"


def main() -> int:
    failures = 0
    for mutant in CATALOGUE:
        outcome = verdict(mutant)
        print(f"{outcome}: {mutant.path}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}", flush=True)
        failures += outcome != "killed"
    print(f"{len(CATALOGUE) - failures} of {len(CATALOGUE)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
