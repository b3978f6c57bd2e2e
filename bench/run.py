"""Benchmark of the surgeon CLI: one workload, one seed, one run.

    python3 bench/run.py --workload dense-link --seed 1 --seconds 20 --trace 0

`--workload all` runs the four workloads in turn.  Run from the root of a
source checkout; the program under test is `src/surgeon`.  Each workload
is one closed-loop client in one process:
the next op starts when the previous one ends, with at most one child
process at a time.  The in-process workloads call `surgeon.cli.main` with
stdout captured; `cli-corpus` starts `python -m surgeon.cli` per command.

With `--trace 0` the run makes a few passes over the same ops, each after
a fresh import of surgeon, and reports the end-to-end metrics from each
op's fastest run; with `--trace 1` every op runs once untraced and once
traced, and the run reports the per-layer metrics from the traced spans.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See
DESIGN.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Op

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
MIN_SETUPS = 11  # set-ups per measured run; setup_s is their median
PASS_CAP_S = 40.0  # the first pass stops after this long even below MIN_OPS
TRACE_CAP_S = 120.0  # a traced run stops after this long
PROBE_LIMIT_S = 0.2  # CPU limit per SNF of the growth probe
FLOOR_SAMPLES = 9

LAYER_METRICS = [
    "cli.interpreter_ms", "cli.import_ms", "cli.load_diagram.self_ms", "cli.main.self_ms",
    "diagrams.validate.self_ms",
    "fronts.parse_front.self_ms", "fronts.parse_front.events", "fronts.classical_invariants.self_ms",
    "fronts.to_diagram.self_ms",
    "surgery.linking_matrix.calls", "surgery.linking_matrix.repeat_share", "surgery.homology.self_ms",
    "surgery.expand_to_pm1.self_ms", "surgery.expand_to_pm1.out_k", "surgery.diagram_signature.self_ms",
    "exactlin.smith_normal_form.calls", "exactlin.smith_normal_form.repeat_share",
    "exactlin.smith_normal_form.self_ms", "exactlin.smith_normal_form.max_bits",
    "exactlin.smith_normal_form.diag_bits", "exactlin.smith_normal_form.timeouts",
    "exactlin.kernel_basis.self_ms", "exactlin.minimal_order_solve.self_ms",
    "exactlin.solve_rational.self_ms", "exactlin.solve_rational.max_bits",
    "exactlin.symmetric_signature.calls", "exactlin.symmetric_signature.self_ms",
    "exactlin.symmetric_signature.dim",
    "invariants.invariant_report.calls", "invariants.invariant_report.self_ms",
    "d3.euler_class.self_ms", "d3.d3_closed_form.self_ms", "d3.d3_via_expansion.self_ms",
    "trace.overhead_share", "trace.traced_op_ms", "trace.untraced_op_ms", "trace.self_share_max",
    "trace.timeouts", "trace.ops",
    "exactlin.smith_normal_form.probe_over_limit_share", "exactlin.smith_normal_form.probe_max_bits",
    "exactlin.smith_normal_form.probe_diag_bits", "exactlin.smith_normal_form.probe_matrices",
]
END_TO_END = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "ok_share": "share", "peak_rss_mb": "MB", "setup_s": "s"}
# Unit of a per-layer metric, by the last part of its name.
UNITS = {"self_ms": "ms", "calls": "count", "repeat_share": "share", "timeouts": "count",
         "max_bits": "bits", "diag_bits": "bits", "dim": "count", "out_k": "count", "events": "count",
         "interpreter_ms": "ms", "import_ms": "ms", "overhead_share": "share", "traced_op_ms": "ms",
         "untraced_op_ms": "ms", "self_share_max": "share", "ops": "count",
         "probe_over_limit_share": "share", "probe_max_bits": "bits", "probe_diag_bits": "bits",
         "probe_matrices": "count"}


class FastestCpu:
    """Keeps this process, and the children it starts, on the CPU that runs
    a fixed probe fastest at the moment.

    The CPUs of a shared host slow down by up to two thirds for seconds at
    a time, and not all at once, so the benchmark moves to the quickest
    one every CHECK_S of its time.  It only sets the affinity of its own
    process, within the CPUs it was given."""

    CHECK_S = 0.25

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.due = 0.0
        self.chosen: list[float] = []  # probe time of the CPU chosen, per check

    @staticmethod
    def probe() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i % 7
        return time.perf_counter() - t0

    def check(self) -> None:
        if len(self.allowed) < 2 or time.perf_counter() < self.due:
            return
        speed = {}
        for cpu in self.allowed:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self.probe() for _ in range(3))
        fastest = min(speed, key=speed.get)
        os.sched_setaffinity(0, {fastest})
        self.chosen.append(speed[fastest])
        self.due = time.perf_counter() + self.CHECK_S

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.allowed))


class OpTimeout(BaseException):
    """Raised inside an op when it exceeds its limit.  A BaseException, so
    that the CLI's last-resort `except Exception` does not swallow it."""


class Runner:
    """Sets up one workload, executes its ops and times them."""

    def __init__(self, root: Path, name: str, seed: int, work: Path):
        self.root, self.name, self.seed, self.work = root, name, seed, work
        self.setup_times: list[float] = []
        self.cpus = FastestCpu()
        self.workload = self.set_up()
        self.tracer: Tracer | None = None
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self._verdicts: dict = {}
        signal.signal(signal.SIGPROF, self._on_limit)

    def set_up(self):
        """Generate and write the set-up cycles in a fresh directory and
        import surgeon afresh; record the time and return the workload."""
        directory = self.work / f"setup{len(self.setup_times)}"
        # Objects the run has made so far stay out of the collector's way,
        # so that neither a set-up nor a later op pays to scan them.
        gc.collect()
        gc.freeze()
        self.cpus.check()
        t0 = time.perf_counter()
        workload = WORKLOADS[self.name](self.root, self.seed, directory)
        self.cli = import_surgeon(self.root / "src")
        self.setup_times.append(time.perf_counter() - t0)
        return workload

    def set_up_again(self) -> None:
        """Time one more set-up.  Its fresh import of surgeon replaces the
        one the ops use, so no state of the library outlives a pass."""
        shutil.rmtree(self.set_up().work)

    def _on_limit(self, signum, frame):
        if self.tracer is not None:
            self.tracer.charge_timeout()
        raise OpTimeout

    def execute(self, op: Op, traced_op: int | None = None):
        """Run one op, traced as op `traced_op` when given; return
        (wall seconds, results, timed out, check error)."""
        results: list = []
        timed_out = False
        self.cpus.check()
        tracer = self.tracer if traced_op is not None and self.workload.in_process else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if self.workload.in_process:
                if tracer:
                    tracer.begin_op(traced_op)
                try:
                    try:
                        signal.setitimer(signal.ITIMER_PROF, op.limit_s)
                        self._in_process(op, results)
                    finally:
                        signal.setitimer(signal.ITIMER_PROF, 0)
                finally:
                    if tracer:
                        tracer.end_op()
            else:
                self._subprocess(op, results, traced_op)
        except (OpTimeout, subprocess.TimeoutExpired):
            timed_out = True
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        return wall, results, timed_out, None if timed_out else self.verdict(op, results)

    def _in_process(self, op: Op, results: list) -> None:
        for argv in op.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
            results.append((rc, out.getvalue(), err.getvalue()))
            if rc != 0:
                return

    def _subprocess(self, op: Op, results: list, traced_op: int | None) -> None:
        for argv in op.commands:
            if traced_op is None:
                cmd = [sys.executable, "-m", "surgeon.cli", *argv]
            else:
                spans = self.workload.work / "child-spans.json"
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), *argv]
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=op.limit_s)
            results.append((proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
            if traced_op is not None:
                self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")), traced_op)
            if proc.returncode != 0:
                return

    def verdict(self, op: Op, results: list):
        """The checker's verdict, memoized on the exact outputs."""
        artifacts = {}
        for path in op.artifacts:
            try:
                artifacts[path] = Path(path).read_text(encoding="utf-8")
            except OSError:
                return f"missing output file {path}"
        key = (op.key, repr(results), repr(sorted(artifacts.items())))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = op.check(results, artifacts)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._verdicts[key] = f"unreadable output: {exc!r}"
        return self._verdicts[key]


def import_surgeon(src: Path):
    """Import surgeon.cli afresh (dropping earlier imports), from `src`."""
    for name in [m for m in sys.modules if m == "surgeon" or m.startswith("surgeon.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return importlib.import_module("surgeon.cli")


def nearest_rank(ordered: list, p: float):
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def measure(runner: Runner, seconds: float, log) -> dict:
    """Closed loop in passes.  The first pass runs whole cycles of fresh
    inputs until it has used `seconds / passes` of op time and made at
    least MIN_OPS ops; every later pass runs the same ops again in the same
    order, after a fresh set-up.  An op's latency is its fastest run: the
    runs of one op lie a pass apart, so a few seconds in which the shared
    host runs slow do not decide it."""
    workload = runner.workload
    passes = workload.passes
    ops: list[Op] = []
    best: list[float] = []
    failed: list[bool] = []
    wrong: set = set()
    attempted = timeouts = 0
    busy, start = 0.0, time.perf_counter()

    def run(i: int, op: Op) -> float:
        nonlocal attempted, timeouts
        wall, _, timed_out, error = runner.execute(op)
        attempted += 1
        timeouts += timed_out
        if i == len(ops):
            ops.append(op)
            best.append(wall)
            failed.append(False)
        best[i] = min(best[i], wall)
        if timed_out or error:
            failed[i] = True
        if error and op.key not in wrong:
            wrong.add(op.key)
            log(f"wrong output: {op.key}: {error}")
        return wall

    for p in range(passes):
        if p:
            runner.set_up_again()
        runner.execute(workload.warm_up())  # not counted
        if p == 0:
            cycle = 0
            while (busy < seconds / passes or len(ops) < MIN_OPS) \
                    and time.perf_counter() - start < PASS_CAP_S:
                for op in workload.cycle(cycle):
                    busy += run(len(ops), op)
                cycle += 1
        else:
            for i, op in enumerate(ops):
                run(i, op)
    while len(runner.setup_times) < MIN_SETUPS:
        runner.set_up_again()

    n = len(ops)
    ok = [wall for wall, bad in zip(best, failed) if not bad]
    # A failed op misses every latency limit: it ranks after every completed op.
    ordered = sorted(zip(failed, best))
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    beyond = n - math.ceil(0.9 * n)
    log(f"{n} ops in {cycle} cycles, each run {passes} times ({attempted} runs, "
        f"{time.perf_counter() - start:.1f} s); {len(ok)} completed, {timeouts} runs timed out, "
        f"{len(wrong)} ops wrong; latency percentiles over {n} samples, {beyond} beyond p90; "
        f"set-ups (s): {' '.join(f'{t:.4f}' for t in runner.setup_times)}")
    if runner.cpus.chosen:
        probe = sorted(runner.cpus.chosen)
        log(f"CPU probe on the chosen CPU over {len(probe)} checks (us): fastest {probe[0] * 1e6:.1f}, "
            f"median {statistics.median(probe) * 1e6:.1f}, slowest {probe[-1] * 1e6:.1f}")
    return {
        "attempted": n,
        "failed": n - len(ok),
        "correct": not wrong,
        "metrics": {
            "throughput_ops_s": len(ok) / sum(ok) if ok else 0.0,
            "latency_p50_ms": nearest_rank(ordered, 0.5)[1] * 1e3,
            "latency_p90_ms": nearest_rank(ordered, 0.9)[1] * 1e3,
            "ok_share": len(ok) / n,
            "peak_rss_mb": rss_kb / 1024,
            "setup_s": statistics.median(runner.setup_times),
        },
    }


def startup_floor(runner: Runner) -> tuple[float, float]:
    """Median wall ms of `python -c pass` and of importing surgeon.cli on top."""
    bare, imported = [], []
    for _ in range(FLOOR_SAMPLES):
        for code, into in (("pass", bare), ("import surgeon.cli", imported)):
            t0 = time.perf_counter()
            # Pipes, as for the ops: with a timeout and no pipes, the wait
            # polls in steps of up to 50 ms and the times come out in steps.
            subprocess.run([sys.executable, "-c", code], cwd=runner.root, env=runner.env,
                           capture_output=True, check=True, timeout=60)
            into.append((time.perf_counter() - t0) * 1e3)
    floor = statistics.median(bare)
    return floor, statistics.median(imported) - floor


def measure_traced(runner: Runner, seconds: float, spans_path: Path, log) -> dict:
    """Each op runs untraced and traced, in alternating order, until the
    traced half has used `seconds / 2`; per-layer metrics come from the spans."""
    workload = runner.workload
    interpreter_ms, import_ms = startup_floor(runner)
    tracer = runner.tracer = Tracer()
    runner.execute(workload.warm_up())  # not counted
    untraced, traced, walls, errors, failed = [], [], [], 0, 0
    busy, cycle, op_id, start = 0.0, 0, 0, time.perf_counter()
    while busy < seconds / 2 and time.perf_counter() - start < TRACE_CAP_S:
        for op in workload.cycle(cycle):
            runs = {}
            for traced_mode in ((False, True) if op_id % 2 else (True, False)):
                runs[traced_mode] = runner.execute(op, op_id if traced_mode else None)
            (t_wall, _, t_to, t_err), (u_wall, _, u_to, u_err) = runs[True], runs[False]
            busy += t_wall
            errors += bool(t_err) + bool(u_err)
            failed += bool(t_to or t_err) + bool(u_to or u_err)
            if not any((t_to, t_err, u_to, u_err)):
                traced.append(t_wall)
                untraced.append(u_wall)
            walls.append((op_id, t_wall))
            op_id += 1
        cycle += 1
    tracer.dump(spans_path)
    probe = snf_probe(runner)

    self_ns, calls, per_op = tracer.layer_totals()
    ops = op_id
    values = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_share": sum(traced) / sum(untraced) - 1 if untraced else 0.0,
        "trace.traced_op_ms": statistics.median(traced) * 1e3 if traced else 0.0,
        "trace.untraced_op_ms": statistics.median(untraced) * 1e3 if untraced else 0.0,
        "trace.self_share_max": max(per_op[i] / 1e9 / wall for i, wall in walls),
        "trace.timeouts": sum(tracer.timeouts.values()) / ops,
        "trace.ops": ops,
        **probe,
    }
    for name in LAYER_METRICS:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "self_ms":
            values[name] = self_ns[layer] / ops / 1e6
        elif field == "calls":
            values[name] = calls[layer] / ops
        elif field == "repeat_share":
            values[name] = tracer.repeats[layer] / calls[layer] if calls[layer] else 0.0
        elif field == "timeouts":
            values[name] = tracer.timeouts[layer] / ops
        else:
            values[name] = tracer.gauges[name]
    log(f"{ops} ops traced and untraced, {len(traced)} pairs completed in both modes; "
        f"spans written to {spans_path}")
    return {
        "attempted": 2 * ops,
        "failed": failed,
        "correct": errors == 0 and values["trace.self_share_max"] <= 1.0,
        "metrics": values,
    }


def snf_probe(runner: Runner) -> dict:
    """Feed the workload's probe matrices to surgeon's SNF, each under a
    PROBE_LIMIT_S CPU limit; report the share over the limit and the bit
    lengths of the decompositions that completed."""
    snf = sys.modules["surgeon.exactlin"].smith_normal_form
    matrices = runner.workload.snf_probe(random.Random(f"probe:{runner.seed}"))
    over = max_bits = diag_bits = 0
    for matrix in matrices:
        try:
            try:
                signal.setitimer(signal.ITIMER_PROF, PROBE_LIMIT_S)
                result = snf(matrix)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except OpTimeout:
            over += 1
            continue
        entries = [x for m in (result.U, result.D, result.V) for row in m for x in row]
        max_bits = max(max_bits, max(abs(x).bit_length() for x in entries))
        diag_bits = max(diag_bits, max((abs(x).bit_length() for x in result.diagonal), default=0))
    name = "exactlin.smith_normal_form.probe"
    return {f"{name}_over_limit_share": over / len(matrices) if matrices else 0.0,
            f"{name}_max_bits": max_bits, f"{name}_diag_bits": diag_bits, f"{name}_matrices": len(matrices)}


def run_all(args) -> int:
    """Run every workload in turn, each in a child process of its own so
    that peak RSS stays per workload; end with one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/surgeon/cli.py", "corpus/golden/manifest.json"):
        if not (root / needed).is_file():
            print(f"error: {root / needed} not found; run from a surgeon source checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)

    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    tag = f"{args.workload} seed={args.seed} trace={args.trace}"

    def log(message: str) -> None:
        print(f"{tag}: {message}", flush=True)

    runner = None
    try:
        runner = Runner(root, args.workload, args.seed, work)
        if args.trace:
            result = measure_traced(runner, args.seconds, out_dir / f"spans-{args.workload}.json", log)
            names = LAYER_METRICS
        else:
            result = measure(runner, args.seconds, log)
            names = list(END_TO_END)
    finally:
        if runner is not None:
            runner.cpus.release()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name in names:
        unit = END_TO_END.get(name) or UNITS[name.rpartition(".")[2]]
        metrics[name] = {"value": result["metrics"][name], "unit": unit}
        log(f"{name} = {result['metrics'][name]:.6g} {unit}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
