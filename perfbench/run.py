#!/usr/bin/env python3
"""Benchmark of the zmcsurf command line, one op at a time in one process.

    python3 perfbench/run.py --workload grid-exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each op calls `zmcsurf.cli.main(argv)`,
the function the `zmcsurf` console script runs, and its outputs are
checked (see checks.py).  A run is made of whole passes over the
workload's op list: the first always completes, and another starts while
it fits in `--seconds` at the pace of the last one.  So every op runs
equally often, and `failed` over `attempted` is the same on every run.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead (see layertrace.py).  Every line
before the last is a report for people; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# set-up samples per run, spread evenly over its measuring window
SETUP_REPEATS = 7
COMMANDS = ("generate", "classify", "index", "flow")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    **{f"{cmd}_s": "s" for cmd in COMMANDS},
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# a fresh interpreter: import the CLI and let it build its parser
SETUP_CODE = (
    "import contextlib, io, time\n"
    "t = time.perf_counter()\n"
    "import zmcsurf.cli\n"
    "{imports}"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    zmcsurf.cli.main(['--list-presets'])\n"
    "print(time.perf_counter() - t)\n"
)
# the first quadrature imports scipy.integrate lazily; count it as set-up
SETUP_IMPORTS = {"float-path": ("scipy.integrate",)}

# Op times are reported as calibrated seconds: measured seconds times
# REFERENCE_NOMINAL_S over the median time of reference_kernel() around
# the op, that is, seconds on a machine where the kernel takes 12 ms.
# The machine this benchmark was built on (2 shared cores) runs the kernel
# in about 12 ms when quiet, but its speed for pure-Python work drifts by
# up to 3x within seconds.  The kernel runs before every op and measures
# that drift, so runs made at different times compare.
REFERENCE_NOMINAL_S = 0.012
# an execution is calibrated by the median of this many kernel timings
# just before it and as many just after it
CALIBRATION_REACH = 2
KERNEL_COEFFS = tuple(Fraction(k + 1, 7) for k in range(12))

# cli.self_s over the traced pass time measured 0.004-0.012 on the three
# workloads; a larger share means work the tracer does not wrap
UNATTRIBUTED_LIMIT = 0.02


def reference_kernel() -> float:
    """Seconds for a fixed piece of the program's hottest kinds of work:
    Horner evaluation of a rational polynomial at rational points (exact
    charts) and at float points (streamlines).

    The garbage collector is off while the kernel runs, so no collection
    over the heap the program keeps alive between ops can land in it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for k in range(200):
            t, x = Fraction(k % 64, 64), (k % 64) / 64.0
            exact = inexact = 0
            for c in reversed(KERNEL_COEFFS):
                exact = exact * t + c
                inexact = inexact * x + c
        return time.perf_counter() - start
    finally:
        gc.enable()


def calibrate(seconds: float, at: int, reference: list) -> float:
    """Seconds of the execution that followed kernel `at`, calibrated by
    the kernels timed just before and after it."""
    near = reference[max(0, at - CALIBRATION_REACH + 1):at + CALIBRATION_REACH + 1]
    return seconds * REFERENCE_NOMINAL_S / statistics.median(near)


# -- set-up ------------------------------------------------------------------------


def measure_setup(workload: str) -> float:
    """Seconds for a fresh interpreter to import the CLI and build its parser."""
    env = {k: v for k, v in os.environ.items() if k != "ZMCSURF_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    imports = "".join(f"import {m}\n" for m in SETUP_IMPORTS.get(workload, ()))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(imports=imports)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# -- one op ------------------------------------------------------------------------


def run_op(cli, op, out: Path, tracer=None):
    """(seconds, exit code, uncaught exception, stderr) of one CLI call."""
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    rc = exc = None
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc = tracer.run_root(cli.main, op.argv(str(out)))
            else:
                rc = cli.main(op.argv(str(out)))
        except SystemExit as stop:
            rc = stop.code
        except Exception as caught:  # the op failed; record it and go on
            exc = caught
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return seconds, rc, exc, err.getvalue()


def verdict(checks, op, rc, exc, stderr, out: Path):
    """(failed, wrong, note): wrong means an output failed its check."""
    if exc is not None:
        return True, False, f"uncaught {type(exc).__name__}: {exc}"
    if op.known_defect and rc == 3:
        lines = stderr.strip().splitlines()
        try:
            json.loads(lines[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return True, False, "exit 3 without a JSON diagnostic"
        return False, False, "exit 3 with a JSON diagnostic"
    if rc != 0:
        return True, False, f"exit {rc}: {stderr.strip()[:200]}"
    try:
        problem = checks.check(op, out)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as bad:
        problem = f"outputs unreadable: {type(bad).__name__}: {bad}"
    if problem:
        return True, True, problem
    return False, False, "ok"


class Run:
    """Op executions of one benchmark run and their verdicts."""

    def __init__(self, cli, checks, ops, out_root: Path):
        self.cli, self.checks, self.ops, self.out_root = cli, checks, ops, out_root
        # an op repeated in the list pools its times and verdicts by name;
        # only executions that passed are timed, failed ones are counted.
        # A time is (seconds, index of the kernel timed before it).
        self.times = {op.name: [] for op in ops}
        self.excluded = Counter()
        self.notes = {op.name: Counter() for op in ops}
        self.attempted = self.failed = self.wrong = 0
        self.unexpected = 0  # failures of ops not marked known_defect
        self.reference = []  # reference kernel seconds, one before each op
        self.setup = []  # set-up seconds, spread over the run

    def execute(self, k, tracer=None) -> float:
        """Run and check op k; keep its time when untraced and passed."""
        op = self.ops[k]
        out = self.out_root / str(k)
        self.reference.append(reference_kernel())
        seconds, rc, exc, stderr = run_op(self.cli, op, out, tracer)
        failed, wrong, note = verdict(self.checks, op, rc, exc, stderr, out)
        self.attempted += 1
        self.failed += failed
        self.wrong += wrong
        self.unexpected += failed and not op.known_defect
        self.notes[op.name][note] += 1
        if failed:
            self.excluded[op.name] += 1
        elif tracer is None:
            self.times[op.name].append((seconds, len(self.reference) - 1))
        return seconds

    def cycle(self, deadline: float, workload: str):
        """Whole passes: one, then another while it fits at the last pace.

        A run never stops inside a pass, so each op runs equally often and
        the share of failed ops does not depend on where the time ran out.
        Set-up samples are taken between ops, evenly over the window, so
        that a slow moment of the machine moves only some of them."""
        start = time.perf_counter()
        window = deadline - start

        def sample_setup():
            due = 1 + SETUP_REPEATS * (time.perf_counter() - start) / window
            if len(self.setup) < min(SETUP_REPEATS, due):
                self.setup.append(measure_setup(workload))

        while True:
            begun = time.perf_counter()
            for k in range(len(self.ops)):
                sample_setup()
                self.execute(k)
            now = time.perf_counter()
            if now + (now - begun) > deadline:
                break
        while len(self.setup) < SETUP_REPEATS:
            self.setup.append(measure_setup(workload))

    def passes(self, deadline: float, tracer):
        """Untraced and traced full passes in turn, at least one of each.

        Returns ([untraced pass seconds], [traced pass seconds],
        [per-layer metrics of each traced pass])."""
        plain, traced, layers = [], [], []
        while True:
            start = time.perf_counter()
            plain.append(sum(self.execute(k) for k in range(len(self.ops))))
            tracer.reset()
            traced.append(sum(self.execute(k, tracer) for k in range(len(self.ops))))
            layers.append(tracer.layer_metrics())
            if time.perf_counter() + (time.perf_counter() - start) > deadline:
                return plain, traced, layers


# -- metrics -------------------------------------------------------------------------


def end_to_end(run: Run) -> dict:
    """Each op's calibrated median time, and set-up's measured median.

    Only executions that passed are timed.  Ops marked known_defect never
    enter these metrics, so fixing the defect does not move them; their
    failures count in `failed`.  An op of another kind that failed every
    time is missing here too, and makes the run incorrect.  Set-up is
    mostly imports, which the machine's drift moves far less than it
    moves pure-Python work, so it is not calibrated."""
    timed = [op for op in run.ops if not op.known_defect and run.times[op.name]]
    distinct = {op.name: op for op in timed}
    med = {name: statistics.median(calibrate(t, at, run.reference) for t, at in run.times[name])
           for name in distinct}
    metrics = {
        "setup_s": (statistics.median(run.setup), len(run.setup)),
        "wall_s": (sum(med[op.name] for op in timed),
                   min(len(run.times[name]) for name in distinct)),
    }
    for cmd in COMMANDS:
        names = [name for name, op in distinct.items() if op.command == cmd]
        if names:
            samples = sum(len(run.times[name]) for name in names)
            metrics[f"{cmd}_s"] = (statistics.geometric_mean(med[name] for name in names), samples)
    grid_ops = [op for op in distinct.values() if op.command in ("generate", "classify")]
    nodes = sum(op.grid ** 2 for op in grid_ops)
    seconds = sum(med[op.name] for op in grid_ops)
    metrics["nodes_per_s"] = (nodes / seconds, sum(len(run.times[op.name]) for op in grid_ops))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, 1)
    return metrics


def per_layer(plain: list, traced: list, layers: list) -> dict:
    """Medians over traced passes; every op is in a pass, failed ones too."""
    from layertrace import SPAN_NAMES

    n = len(layers)
    metrics = {name: (statistics.median(p[name] for p in layers), n) for name in layers[0]}
    wall = statistics.median(traced)
    metrics["trace.wall_s"] = (wall, n)
    metrics["trace.overhead_s"] = (wall - statistics.median(plain), n)
    unattributed = [p["cli.self_s"] / t for p, t in zip(layers, traced)]
    metrics["trace.unattributed_share"] = (statistics.median(unattributed), n)
    accounted = statistics.median(
        sum(p[f"{s}_s"] for s in SPAN_NAMES) / t for p, t in zip(layers, traced))
    print(f"self times of all spans sum to {accounted:.4f} of the traced pass time; "
          f"they partition the root spans, so this holds by construction")
    print(f"unattributed share (cli.self_s over traced pass time) "
          f"{metrics['trace.unattributed_share'][0]:.4f}; expected below {UNATTRIBUTED_LIMIT}")
    return metrics


# -- report ------------------------------------------------------------------------


def report(args, run: Run, metrics: dict, units: dict, bases: dict, moves: dict) -> dict:
    defects = {op.name for op in run.ops if op.known_defect}
    for name, timed in run.times.items():
        ts = [seconds for seconds, at in timed]
        verdicts = "; ".join(f"{note} x{n}" for note, n in run.notes[name].items())
        spread = f"min {min(ts):.4f} s  median {statistics.median(ts):.4f} s" if ts else "-"
        mark = "  [known defect, not in metrics]" if name in defects else ""
        print(f"  op {name:<32} n={len(ts):<3} failed, not timed={run.excluded[name]:<3} "
              f"{spread:<34} {verdicts}{mark}")
    print(f"reference kernel median {statistics.median(run.reference):.5f} s over "
          f"{len(run.reference)} runs; op times above are measured, metrics calibrated "
          f"to {REFERENCE_NOMINAL_S} s")
    ratio = run.failed / run.attempted
    print(f"ops_failed_ratio {ratio:.4f} ({run.failed} failed of {run.attempted} attempted; "
          f"{run.unexpected} of ops not marked known_defect; {run.wrong} with wrong outputs)")
    out = {}
    for name, (value, samples) in metrics.items():
        unit = units[name]
        base = f"  base {bases[name]}" if name in bases else ""
        target = "  -> {} on {}".format(*moves[name]) if name in moves else ""
        print(f"metric {name:<34} {value:.6g} {unit}  (n={samples}){base}{target}")
        out[name] = {"value": value, "unit": unit}
    return {
        "correct": run.wrong == 0 and run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }


def run_all(args) -> int:
    """Each workload in its own benchmark process, one after the other."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-exact", "umbilic-flow", "float-path", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zmcsurf" / "cli.py").is_file():
        print(f"perfbench: no zmcsurf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)

    import random

    import checks
    from layertrace import LAYERS, Tracer
    from workloads import WORKLOADS

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    os.environ.pop("ZMCSURF_THREADS", None)
    import zmcsurf.cli as cli  # also compiles bytecode before set-up is timed

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for module in SETUP_IMPORTS.get(args.workload, ()):
            importlib.import_module(module)
        ops = WORKLOADS[args.workload](random.Random(args.seed), work)
        checks.prepare(ops)
        run = Run(cli, checks, ops, work / "out")
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            tracer = Tracer()
            plain, traced, layers = run.passes(deadline, tracer)
            metrics = per_layer(plain, traced, layers)
            units = {layer.name: layer.unit for layer in LAYERS}
            moves = {layer.name: (layer.moves, layer.on) for layer in LAYERS if layer.kind != "run"}
            result = report(args, run, metrics, units, tracer.bases(), moves)
        else:
            run.cycle(deadline, args.workload)
            result = report(args, run, end_to_end(run), END_TO_END_UNITS, {}, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
