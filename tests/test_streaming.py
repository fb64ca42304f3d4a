"""CSV files are written one grid row at a time, from numbers computed first.

`cli._write` hands the file one text block per grid row; each block is no
longer than one grid row plus the header, and the blocks join to the text
of `surface_csv`/`classification_csv`.  Every number is computed before
the output directory is created, so a value outside the double range still
exits 3 with no output, and the peak memory of `generate` grows with the
chart's arrays, not with its text.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zmcsurf import cli
from zmcsurf.geometry import classify_chart
from zmcsurf.outputs import classification_csv, surface_csv
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve

SRC = Path(__file__).resolve().parents[1] / "src"


def _with_grid(spec, **grid):
    return {**spec, "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, **grid}}


def _raw_chart(nu, nv):
    """A raw chart whose nodes take every kind a tolerance can give."""
    cell = lambda i, j, k: ((i * 7 + j * 3 + k) % 11 - 5) / 4
    sigma, L, M, N = ([[cell(i, j, k) for j in range(nv)] for i in range(nu)]
                      for k in range(4))
    return {"route": "chart", "data": {"sigma": sigma, "L": L, "M": M, "N": N},
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": nu, "nv": nv}}


SQUARED = {"kind": "poly", "coeffs": [0, 0, 1]}
ONE = {"kind": "poly", "coeffs": [1]}
CASES = {
    "z5": _with_grid(preset_spec("z5"), nu=17, nv=17),
    "z5_17x23": {**preset_spec("z5"), "grid": {"u_min": -1, "u_max": 1, "v_min": "-1/2",
                                               "v_max": "3/4", "nu": 17, "nv": 23}},
    # g1 = g2 = t^2 on [-2, 2]^2: the nodes with x y = 1 are masked
    "masked": {"route": "null", "data": {"g1": SQUARED, "g2": SQUARED, "w1": ONE, "w2": ONE},
               "grid": {"u_min": -2, "u_max": 2, "v_min": -2, "v_max": 2, "nu": 17, "nv": 17}},
    "spacelike_m2": _with_grid(preset_spec("spacelike_m2"), nu=19, nv=17),
    "chart": _raw_chart(17, 21),
}


class _Sink:
    """A file stand-in that records every write call."""

    def __init__(self):
        self.calls = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, text):
        self.calls.append(text)

    def writelines(self, blocks):
        for block in blocks:
            self.write(block)


def _run_recorded(monkeypatch, tmp_path, command, spec) -> dict:
    sinks = {}

    def recording_open(path, mode="r", encoding=None):
        assert (mode, encoding) == ("w", "utf-8")
        return sinks.setdefault(Path(path).name, _Sink())

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main([command, "--spec", str(path), "--out", str(tmp_path / command)]) == 0
    return sinks


def _largest_block(text: str, nv: int) -> int:
    """The length of the header plus the longest grid row of a CSV text."""
    lines = text.splitlines(keepends=True)
    rows = [lines[k:k + nv] for k in range(1, len(lines), nv)]
    return len(lines[0]) + max(len("".join(row)) for row in rows)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_written_one_grid_row_per_call(monkeypatch, tmp_path, name):
    spec = CASES[name]
    resolved = resolve(json.loads(json.dumps(spec)))
    nu, nv = resolved.grid.nu, resolved.grid.nv
    chart = cli._surface_chart(resolved)
    expected = {"classify": ("classification.csv", classification_csv(classify_chart(chart)))}
    if name != "chart":
        patch = resolved.patch if resolved.is_timelike else resolved.spacelike_patch
        expected["generate"] = ("surface.csv", surface_csv(chart, patch))
    for command, (file_name, text) in expected.items():
        calls = _run_recorded(monkeypatch, tmp_path, command, spec)[file_name].calls
        assert "".join(calls) == text, (command, file_name)
        assert len(text.splitlines()) == 1 + nu * nv
        assert max(map(len, calls)) <= _largest_block(text, nv) < len(text), command


# Only the coordinates overflow: the x-primitive t - 10^400 t^3 / 3 of
# g1 = 10^200 t, while the metric factor (1 - 10^200 x y)^2 10^-300 and the
# second forms stay inside the double range.
COORDINATES_OVERFLOW = {
    "route": "null",
    "data": {
        "g1": {"kind": "poly", "coeffs": [0, 10**200]},
        "g2": {"kind": "poly", "coeffs": [0, 1]},
        "w1": {"kind": "poly", "coeffs": [1]},
        "w2": {"kind": "poly", "coeffs": ["1/1" + "0" * 300]},
    },
    "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
}


def test_coordinate_overflow_exits_3_before_any_output(tmp_path, capsys):
    resolved = resolve(json.loads(json.dumps(COORDINATES_OVERFLOW)))
    chart = resolved.patch.chart(resolved.grid)
    assert chart.mask.all()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(COORDINATES_OVERFLOW))
    out = tmp_path / "out"
    assert cli.main(["generate", "--spec", str(path), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "integer division result too large for a float"}
    assert not out.exists()


MEASURE = (
    "import resource, sys\n"
    "from zmcsurf.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def _peak_kib(tmp_path, n: int) -> int:
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["generate", "--preset", "z5", "--grid", str(n), "--out", str(tmp_path / str(n))]
    done = subprocess.run([sys.executable, "-c", MEASURE, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return int(done.stdout.split()[-1])


def test_generate_memory_grows_with_arrays_not_text(tmp_path):
    """generate z5 at 257^2 over 17^2: 83 MB more peak RSS when the whole
    file was built as text, 13 MB when streamed (Python 3.11.7, Linux)."""
    pytest.importorskip("resource")
    if not sys.platform.startswith(("linux", "freebsd")):
        pytest.skip("ru_maxrss is in KiB on Linux and FreeBSD only")
    growth_mb = (_peak_kib(tmp_path, 257) - _peak_kib(tmp_path, 17)) / 1024
    assert growth_mb < 40
