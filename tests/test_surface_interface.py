"""The commands ask the surface, not its signature.

`cli.cmd_index` and `cli.cmd_flow` call the resolved patch's
`index_report` and `flow_fields` and merge its class-level `tag` into the
output metadata; they write what they are given.  A stub surface with only
those members (and `chart`) goes through both commands unchanged.  The
space-like `flow_fields` reads the Hopf order that `index_report` reads:
it marks o exactly where `index` measures an isolated umbilic.
"""

import argparse
import json

import numpy as np
import pytest

from zmcsurf import cli
from zmcsurf.flow import FlowField, WindingResult
from zmcsurf.geometry import GridSpec, chart_from_arrays, classify_chart
from zmcsurf.outputs import winding_csv
from zmcsurf.surfacespec import AnalysisParams, ResolvedSpec
from zmcsurf.svgplot import svg_lines

GRID = GridSpec(-1, 1, -1, 1, 17, 17)


class StubSurface:
    """A surface type with only the members the commands may use."""

    tag = {"tagged": "stub", "stub_version": 3}

    def __init__(self):
        self.asked = []
        u = np.linspace(-1.0, 1.0, GRID.nu)[:, None] * np.ones(GRID.nv)
        zeros = np.zeros((GRID.nu, GRID.nv))
        self.the_chart = chart_from_arrays(GRID, zeros, u, zeros + 0.25, -u)
        self.report = {"answer": 42, "note": "from the stub"}
        self.rows = [("stub_field", "vector_field", WindingResult(2, 0.1, 720, 0.125))]
        self.fields = [FlowField(lambda u, v: (1.0, 0.0), name="east")]
        self.marks = [(0.25, -0.5), (-0.75, 0.5)]
        self.banner = "stub banner"

    def chart(self, grid):
        self.asked.append(("chart", grid))
        return self.the_chart

    def index_report(self, analysis):
        self.asked.append(("index_report", analysis))
        return dict(self.report), list(self.rows)

    def flow_fields(self, analysis):
        self.asked.append(("flow_fields", analysis))
        return list(self.fields), list(self.marks), self.banner


def _resolved(stub):
    return ResolvedSpec("stub", GRID, AnalysisParams(samples=999), patch=stub)


ARGS = argparse.Namespace(preset="stubby")


def test_index_writes_what_the_surface_reports(tmp_path):
    stub = StubSurface()
    resolved = _resolved(stub)
    assert cli.cmd_index(resolved, tmp_path, ARGS) == 0
    report = json.loads((tmp_path / "index_report.json").read_text())
    assert report == {**stub.report, **stub.tag, "preset": "stubby"}
    assert (tmp_path / "winding.csv").read_text() == winding_csv(stub.rows)
    assert stub.asked == [("index_report", resolved.analysis)]


def test_flow_draws_what_the_surface_answers(tmp_path, monkeypatch):
    stub = StubSurface()
    resolved = _resolved(stub)
    line = np.array([[0.0, 0.0], [0.5, 0.25], [0.75, 0.75]])
    marched = []

    def fake_streamlines(field, seeds, **kwargs):
        marched.append((field, seeds))
        return [line]

    monkeypatch.setattr(cli, "streamlines", fake_streamlines)
    assert cli.cmd_flow(resolved, tmp_path, ARGS) == 0
    assert marched == [(stub.fields[0], resolved.analysis.seeds)]
    want = "".join(svg_lines(
        GRID, classify_chart(stub.the_chart).kinds, polyline_families=[[line]],
        marks=stub.marks, banner=stub.banner,
        extra_metadata={"preset": "stubby", **stub.tag}))
    assert (tmp_path / "flow.svg").read_text() == want
    assert stub.asked == [("chart", GRID), ("flow_fields", resolved.analysis)]


@pytest.mark.parametrize(
    "g, omega, marked, drawn, banner",
    [
        ([0, 0, 0, -1 / 3], [1], True, True, ""),  # Hopf coefficient z^2
        ([0, 1], [1], False, True, ""),  # Hopf coefficient -1: no zero at o
        ([3], [1], False, False,
         "classification only: no isolated umbilic (Hopf coefficient is identically zero)"),
    ],
    ids=["order_2", "order_0", "identically_zero"],
)
def test_spacelike_flow_marks_o_where_index_finds_an_umbilic(
    tmp_path, g, omega, marked, drawn, banner
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "route": "kobayashi", "data": {"g": g, "omega_hat": omega},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17}}))
    for cmd in ("index", "flow"):
        assert cli.main([cmd, "--spec", str(spec), "--out", str(tmp_path / cmd)]) == 0
    report = json.loads((tmp_path / "index" / "index_report.json").read_text())
    assert (report["measured_index"] is not None) == marked
    svg = (tmp_path / "flow" / "flow.svg").read_text()
    assert svg.count("<circle") == int(marked)
    assert ("<polyline" in svg) == drawn
    assert ("classification only" in svg) == bool(banner)
    assert banner in svg
