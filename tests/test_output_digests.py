"""Every CLI output, byte for byte, against recorded digests.

A sweep of runs: the 12 presets x the four commands at --grid 17 and on
the 17 x 23 grid of `test_chart_engine.NON_SQUARE` (u in [-1, 1], v in
[-1/2, 3/4], du/dv = 11/5), plus the four commands on a raw chart and on
a Fraction and a float null spec from `perfbench/workloads` (seed 1, at
17), and on each spec of `spec_cases` at 17.  For each run,
`output_digests.json` holds the exit code, the stderr text and the sha256
of every file written.  A refactor that claims byte-identical outputs
must pass this test unchanged.

The digests were recorded with Python 3.11.7 (numpy 2.x, OpenBLAS,
x86-64 Linux).  Where a change moves outputs on purpose, re-record them
with

    PYTHONPATH=src python tests/test_output_digests.py

which prints each case whose exit code, stderr or files moved against the
old record, and say in the change which runs moved and why.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from zmcsurf.cli import main
from zmcsurf.presets import PRESET_ORDER, preset_spec

from spec_cases import SPEC_CASES

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")
COMMANDS = ("generate", "classify", "index", "flow")
NON_SQUARE = {"u_min": -1, "u_max": 1, "v_min": "-1/2", "v_max": "3/4", "nu": 17, "nv": 23}


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _specs() -> dict:
    """name -> (spec document or None for a preset, source arguments)."""
    specs = {f"{name}@17": (None, ["--preset", name, "--grid", "17"]) for name in PRESET_ORDER}
    for name in PRESET_ORDER:
        spec = preset_spec(name)
        spec["grid"] = copy.deepcopy(NON_SQUARE)
        specs[f"{name}@17x23"] = (spec, [])
    wl = _workloads()
    specs["chart_seed1@17"] = (wl.chart_spec(random.Random(1), 17)[0], [])
    for label, as_float in (("null_seed1", False), ("float_null_seed1", True)):
        spec = wl.null_spec(random.Random(1), (2, 4), as_float=as_float)
        specs[f"{label}@17"] = (spec, ["--grid", "17"])
    specs.update({f"{name}@17": case for name, case in SPEC_CASES.items()})
    return specs


SPECS = _specs()
CASES = [f"{cmd}:{name}" for name in SPECS for cmd in COMMANDS]


def run_case(case: str, work: Path) -> dict:
    """Exit code, stderr and the sha256 of each output file of one run."""
    cmd, name = case.split(":")
    spec, source = SPECS[name]
    if spec is not None:
        path = work / f"{name}.json"
        path.write_text(json.dumps(spec))
        source = ["--spec", str(path), *source]
    out = work / case.replace(":", "_")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([cmd, *source, "--out", str(out)])
    files = sorted(out.iterdir()) if out.exists() else []
    return {
        "exit": code,
        "stderr": err.getvalue(),
        "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_cases_match_the_recorded_set(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recorded_digests(case, recorded, tmp_path):
    assert run_case(case, tmp_path) == recorded[case]


def moved(old: dict, new: dict) -> dict:
    """case -> what differs from the old record: "exit", "stderr" and the
    names of the files whose digest changed, appeared or went; a case new
    to the sweep or gone from it maps to "new" or "gone"."""
    out = {case: ["gone"] for case in old if case not in new}
    for case, run in new.items():
        was = old.get(case)
        if was is None:
            out[case] = ["new"]
            continue
        files, now = was["files"], run["files"]
        diff = [key for key in ("exit", "stderr") if was[key] != run[key]]
        diff += sorted(name for name in files.keys() | now.keys()
                       if files.get(name) != now.get(name))
        if diff:
            out[case] = diff
    return dict(sorted(out.items()))


def record():
    """Re-record every run, and print each case that moved and how."""
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        digests = {case: run_case(case, Path(work)) for case in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    changes = moved(old, digests)
    for case, what in changes.items():
        print(f"{case}: {', '.join(what)}")
    print(f"recorded {len(digests)} runs in {DIGESTS}; {len(changes)} moved", file=sys.stderr)


if __name__ == "__main__":
    record()
