"""The five demos and the README quick start, against their recorded stdout.

Each demo runs in process (`runpy`, as `__main__`) in a temporary working
directory, so demo 05's `demo_out/` lands there; the quick start is the
Python block under "Library quick start" in README.md, run with `exec`.
`demo_stdout.json` holds the text each one printed.  A refactor that claims
to keep the demos and the README working must pass this test unchanged.
Where a change moves a demo's output on purpose, re-record with

    PYTHONPATH=src python tests/test_demos.py

and say in the change which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_name("demo_stdout.json")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("[0-9]*.py"))
QUICK_START = "README quick start"


def _quick_start() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)


def run(name: str, work: Path) -> str:
    """What `name` (a demo file or QUICK_START) prints, run in `work`."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out):
            if name == QUICK_START:
                exec(_quick_start(), {"__name__": "__main__"})
            else:
                runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    finally:
        os.chdir(cwd)
    return out.getvalue()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


def test_runs_match_the_recorded_set(recorded):
    assert sorted(recorded) == sorted([*DEMOS, QUICK_START])


@pytest.mark.parametrize("name", [*DEMOS, QUICK_START])
def test_stdout_matches_the_recorded_text(name, recorded, tmp_path):
    assert run(name, tmp_path) == recorded[name]


def record():
    with tempfile.TemporaryDirectory() as work:
        texts = {name: run(name, Path(work)) for name in [*DEMOS, QUICK_START]}
    RECORDED.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(texts)} runs in {RECORDED}", file=sys.stderr)


if __name__ == "__main__":
    record()
