"""Seeded inputs and ops of the four benchmark workloads.

A workload writes its inputs into a work directory and hands out ops in
cycles; one cycle holds every rung of the workload's ladder once, so a
run that stops at a cycle boundary always has the same mix.  An op is a
short list of `surgeon` CLI commands run in order plus a check of their
outputs by `checker`, which never calls the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checker

# One result per command: (exit code, stdout, stderr).
Results = list[tuple[int, str, str]]


@dataclass
class Op:
    key: str
    commands: list[list[str]]
    check: Callable[[Results, dict], Optional[str]]
    limit_s: float  # CPU seconds in process, wall seconds for a child process
    artifacts: list[str] = field(default_factory=list)  # files read by the check after the op


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _legendrian(rng: random.Random, tb_range=(-3, 3), rot_bound=3) -> tuple[int, int]:
    tb = rng.randint(*tb_range)
    return tb, rng.choice([r for r in range(-rot_bound, rot_bound + 1) if (tb + r) % 2])


def _expect_reports(diagram: dict, knots: list[str], d3_index: int):
    """Check for ops whose commands are `invariants` per knot and one `d3`."""
    def check(results: Results, _artifacts: dict) -> Optional[str]:
        if len(results) != len(knots) + 1 or any(rc != 0 for rc, _, _ in results):
            return "unexpected exit code"
        reports = [json.loads(out) for _, out, _ in results]
        d3_report = reports.pop(d3_index)
        for name, report in zip(knots, reports):
            err = checker.check_invariants(diagram, name, report)
            if err:
                return f"invariants {name}: {err}"
        err = checker.check_d3(diagram, d3_report)
        return f"d3: {err}" if err else None
    return check


class Workload:
    """Writes its seeded inputs under `work`; `cycle(i)` makes cycle i on
    first use from its own generator, seeded by (workload, seed, i), so a
    cycle's inputs depend only on the seed and i."""

    name = ""
    in_process = True
    limit_s = 10.0  # far above any op of the workload: a guard, not a filter
    passes = 3  # times each op runs in a measured run; its latency is the fastest
    setup_cycles = 4  # cycles generated and written during set-up

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work
        work.mkdir(parents=True, exist_ok=True)
        self.cycles: dict[int, list[Op]] = {}
        for index in range(self.setup_cycles):
            self.cycle(index)

    def generate(self, index: int, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def cycle(self, index: int) -> list[Op]:
        if index not in self.cycles:
            self.cycles[index] = self.generate(index, random.Random(f"{self.name}:{self.seed}:{index}"))
        return self.cycles[index]

    def warm_up(self) -> Op:
        """An op of a cycle that is never measured."""
        return self.cycle(-1)[0]

    def snf_probe(self, rng: random.Random) -> list[list[list[int]]]:
        """Relation matrices from sizes the workload leaves out because the
        seed SNF explodes on some of them; the traced run feeds them to the
        SNF directly, under a time limit (see DESIGN.md)."""
        return []


class DenseLink(Workload):
    """Dense random ±1 diagrams, k = 4..6, with three companions.  k stops
    at 6: from 7 on, the seed SNF explodes on some of these matrices (see
    DESIGN.md); `snf_probe` still draws k = 6..11."""

    name = "dense-link"
    ks = (4, 5, 6)
    passes = 4

    def generate(self, index, rng):
        ops = []
        for k in self.ks:
            diagram = self.diagram(rng, k)
            path = _write_json(self.work / f"dense-{index}-{k}.json", diagram)
            knots = [w["name"] for w in diagram["knots"]]
            commands = [["invariants", path, "--knot", n] for n in knots] + [["d3", path]]
            ops.append(Op(f"dense-{index}-{k}", commands, _expect_reports(diagram, knots, len(knots)),
                          self.limit_s))
        return ops

    def snf_probe(self, rng):
        return [checker.relation_matrix(self.diagram(rng, k))[0] for k in range(6, 12) for _ in range(6)]

    @staticmethod
    def diagram(rng: random.Random, k: int) -> dict:
        comps = []
        for i in range(k):
            tb, rot = _legendrian(rng)
            comps.append({"name": f"C{i + 1}", "tb": tb, "rot": rot, "coeff": rng.choice(("+1", "-1"))})
        linking = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                linking[i][j] = linking[j][i] = rng.randint(-2, 2)
        knots = []
        for name in ("K1", "K2"):
            tb, rot = _legendrian(rng, (-3, 1), 2)
            knots.append({"name": name, "kind": "legendrian", "tb": tb, "rot": rot,
                          "lk": [rng.randint(-2, 2) for _ in range(k)]})
        knots.append({"name": "T1", "kind": "transverse", "sl": rng.choice((-5, -3, -1, 1)),
                      "sign": rng.choice(("positive", "negative")),
                      "lk": [rng.randint(-2, 2) for _ in range(k)]})
        return {"components": comps, "linking": linking, "knots": knots}


class ChainFront(Workload):
    """Fronts of a chain of k clasped unknots plus a companion clasping the last."""

    name = "chain-front"
    ks = (16, 20, 24, 29, 35, 42, 50)

    def generate(self, index, rng):
        ops = []
        for k in self.ks:
            text, diagram = self.front(rng, k)
            front = self.work / f"chain-{index}-{k}.front"
            front.write_text(text, encoding="utf-8")
            out = str(self.work / f"chain-{index}-{k}.json")
            commands = [["front", str(front), "--emit-diagram", out],
                        ["invariants", out, "--knot", "K"], ["d3", out]]
            ops.append(Op(f"chain-{index}-{k}", commands, self.make_check(diagram, out), self.limit_s,
                          [out]))
        return ops

    @staticmethod
    def front(rng: random.Random, k: int) -> tuple[str, dict]:
        """Unknot j+1 opens inside unknot j and clasps it (X j twice); each
        unknot has tb = -1 and rot = 0, and lk(j, j+1) = +1 exactly when
        both are traversed the same way."""
        coeffs = [rng.choice(("+1", "-1")) for _ in range(k)]
        flipped = [rng.random() < 0.5 for _ in range(k + 1)]
        headers = [f"surgery C{j + 1} coeff {coeffs[j]}" + (" reversed" if flipped[j] else "")
                   for j in range(k)]
        headers.append("companion K legendrian" + (" reversed" if flipped[k] else ""))
        events = ["L1"]
        for j in range(1, k + 1):
            events += [f"L{j + 1}", f"X{j}", f"X{j}"]
        events += [f"R{j}" for j in range(k + 1, 0, -1)]
        text = "\n".join(headers) + "\nevents:\n" + " ".join(events) + "\n"

        sign = [1 if flipped[j] == flipped[j + 1] else -1 for j in range(k)]
        linking = [[0] * k for _ in range(k)]
        for j in range(k - 1):
            linking[j][j + 1] = linking[j + 1][j] = sign[j]
        diagram = {
            "components": [{"name": f"C{j + 1}", "tb": -1, "rot": 0, "coeff": coeffs[j]} for j in range(k)],
            "linking": linking,
            "knots": [{"name": "K", "kind": "legendrian", "tb": -1, "rot": 0,
                       "lk": [0] * (k - 1) + [sign[k - 1]]}],
        }
        return text, diagram

    @staticmethod
    def make_check(diagram: dict, out: str):
        k = len(diagram["components"])
        full_lk = [row + [0] for row in diagram["linking"]] + [diagram["knots"][0]["lk"] + [0]]
        for j in range(k):
            full_lk[j][k] = full_lk[k][j]
        inner = _expect_reports(diagram, ["K"], 1)

        def check(results: Results, artifacts: dict) -> Optional[str]:
            if not results or results[0][0] != 0:
                return "front: unexpected exit code"
            comps, linking = checker.parse_front_table(results[0][1])
            if list(comps) != [f"C{j + 1}" for j in range(k)] + ["K"] \
                    or any(v != (-1, 0) for v in comps.values()):
                return "front: tb/rot differ from the construction's tb = -1, rot = 0"
            if linking != full_lk:
                return "front: linking differs from the clasp pattern"
            if json.loads(artifacts[out]) != diagram:
                return "front --emit-diagram: diagram differs from the construction"
            return inner(results[1:], artifacts)
        return check


class MLadder(Workload):
    """1-3 Legendrian unknots with coefficients ±1/m, sum of m on a doubling ladder.

    Per rung, the number of unknots, their tb and their signs run through
    every combination once in 18 cycles, so every run holds nearly the same
    mix of shapes; rot and the linking numbers are random.  The ladder
    stops at 8: from a sum of 12 on, the seed SNF explodes on some of the
    expanded matrices (see DESIGN.md)."""

    name = "m-ladder"
    ks = (2, 4, 8)  # sum of the magnitudes m
    tbs = (-1, -2, -3)
    passes = 4

    def generate(self, index, rng):
        ops = []
        for rung, total in enumerate(self.ks):
            parts = self.split(total, 1 + (index + rung) % 3)
            shape = [(self.tbs[(index // 3 + i) % 3], "+-"[(index // 9 + i) % 2]) for i in range(len(parts))]
            diagram = self.diagram(rng, parts, shape)
            path = _write_json(self.work / f"mladder-{index}-{total}.json", diagram)
            commands = [["d3", path], ["invariants", path, "--knot", "K"]]
            ops.append(Op(f"mladder-{index}-{total}", commands, _expect_reports(diagram, ["K"], 0),
                          self.limit_s))
        return ops

    def snf_probe(self, rng):
        """The ±1 expansions that `d3` solves, at sums of m 16 and 32, one
        cycle of 18 shapes each."""
        matrices = []
        for index in range(18):
            for total in (16, 32):
                parts = self.split(total, 1 + index % 3)
                shape = [(self.tbs[(index // 3 + i) % 3], "+-"[(index // 9 + i) % 2]) for i in range(len(parts))]
                expanded = checker.expected_expansion(self.diagram(rng, parts, shape))
                matrices.append(checker.relation_matrix(expanded)[0])
        return matrices

    @staticmethod
    def split(total: int, n: int) -> list[int]:
        if n >= 3 and total >= 4:
            return [total // 2, total // 4, total // 4]
        if n >= 2 and total >= 2:
            return [total // 2, total // 2]
        return [total]

    @staticmethod
    def diagram(rng: random.Random, parts: list[int], shape: list[tuple[int, str]]) -> dict:
        comps = []
        for i, (m, (tb, sign)) in enumerate(zip(parts, shape)):
            rot = rng.choice([r for r in range(tb + 1, -tb) if (tb + r) % 2])
            comps.append({"name": f"U{i + 1}", "tb": tb, "rot": rot,
                          "coeff": f"{sign}1" if m == 1 else f"{sign}1/{m}"})
        n = len(parts)
        linking = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                linking[i][j] = linking[j][i] = rng.randint(-2, 2)
        knot = {"name": "K", "kind": "legendrian", "tb": -1, "rot": 0,
                "lk": [rng.randint(-2, 2) for _ in range(n)]}
        return {"components": comps, "linking": linking, "knots": [knot]}


# Corpus fronts whose classical invariants are the documented anchors.
FRONT_ANCHORS = {
    "unknot.front": ({"K1": (-1, 0)}, [[0]]),
    "trefoil_max_tb.front": ({"K1": (1, 0)}, [[0]]),
    "split_unknots.front": ({"K1": (-1, 0), "K2": (-1, 0)}, [[0, 0], [0, 0]]),
}


class CliCorpus(Workload):
    """The golden manifest, `check` on every corpus diagram, `expand` on the
    1/m diagrams and `front` on every front file, each as a fresh process."""

    name = "cli-corpus"
    in_process = False
    passes = 2

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.work = root, work
        self.ops = self.corpus_ops()
        super().__init__(root, seed, work)

    def generate(self, index, rng):
        cycle = list(self.ops)
        rng.shuffle(cycle)
        return cycle

    def corpus_ops(self) -> list[Op]:
        corpus = self.root / "corpus"
        ops = []
        for entry in json.loads((corpus / "golden" / "manifest.json").read_text(encoding="utf-8")):
            argv = [a.replace("{corpus}", "corpus") for a in entry["argv"]]
            golden = (corpus / "golden" / entry["output"]).read_text(encoding="utf-8")
            ops.append(Op(f"golden-{entry['output']}", [argv], self.golden_check(golden), self.limit_s))
        for path in sorted((corpus / "diagrams").glob("*.json")):
            rel = f"corpus/diagrams/{path.name}"
            diagram = json.loads(path.read_text(encoding="utf-8"))
            ops.append(Op(f"check-{path.name}", [["check", rel]], self.check_check(rel, diagram),
                          self.limit_s))
            if any(checker.parse_coeff(c["coeff"])[1] > 1 for c in diagram["components"]):
                out = str(self.work / f"expand-{path.name}")
                ops.append(Op(f"expand-{path.name}", [["expand", rel, out]],
                              self.expand_check(diagram, out), self.limit_s, [out]))
        for path in sorted((corpus / "fronts").glob("*.front")):
            rel = f"corpus/fronts/{path.name}"
            ops.append(Op(f"front-{path.name}", [["front", rel]], self.front_check(path.name),
                          self.limit_s))
        return ops

    @staticmethod
    def golden_check(golden: str):
        def check(results, _artifacts):
            rc, out, _ = results[0]
            return None if rc == 0 and out == golden else "output differs from the golden bytes"
        return check

    @staticmethod
    def check_check(rel: str, diagram: dict):
        errors, warnings = checker.check_diagnostics(diagram)
        if errors:
            expected = (1, "")
        else:
            expected = (0, f"{rel}: ok ({warnings} warning(s))\n" if warnings else f"{rel}: ok\n")

        def check(results, _artifacts):
            rc, out, _ = results[0]
            return None if (rc, out) == expected else "check: exit code or verdict differs"
        return check

    @staticmethod
    def expand_check(diagram: dict, out: str):
        expected = checker.expected_expansion(diagram)

        def check(results, artifacts):
            if results[0][0] != 0:
                return "expand: unexpected exit code"
            return None if json.loads(artifacts[out]) == expected else "expand: wrong expansion"
        return check

    @staticmethod
    def front_check(name: str):
        anchor = FRONT_ANCHORS.get(name)

        def check(results, _artifacts):
            rc, out, _ = results[0]
            if rc != 0:
                return "front: unexpected exit code"
            comps, linking = checker.parse_front_table(out)
            n = len(comps)
            if any((tb + rot) % 2 == 0 for tb, rot in comps.values()):
                return "front: tb + rot even"
            if len(linking) != n or any(linking[i][j] != linking[j][i] or (i == j and linking[i][j])
                                        for i in range(n) for j in range(n)):
                return "front: linking matrix not symmetric with zero diagonal"
            if anchor and (comps, linking) != anchor:
                return "front: invariants differ from the documented anchor"
            return None
        return check


WORKLOADS = {w.name: w for w in (CliCorpus, DenseLink, ChainFront, MLadder)}
