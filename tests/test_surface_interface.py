"""The commands ask the surface, not its signature.

`cli.cmd_index` and `cli.cmd_flow` call the resolved patch's
`index_report` and `flow_fields` and merge its class-level `tag` into the
output metadata; they write what they are given.  A stub surface with only
those members (and `chart`) goes through both commands unchanged.  The
space-like `flow_fields` reads the Hopf order that `index_report` reads:
it marks o exactly where `index` measures an isolated umbilic.  Every
route, the raw `chart` route too, resolves to a surface with these members,
and the raw chart's refusals and banner live with it.
"""

import argparse
import json

import numpy as np
import pytest

from zmcsurf import cli
from zmcsurf.flow import FlowField, WindingResult
from zmcsurf.geometry import GridSpec, SurfaceChart, chart_from_arrays, classify_chart
from zmcsurf.outputs import winding_csv
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import ROUTES, AnalysisParams, ResolvedSpec, SpecError, resolve
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


def _raw_chart_spec():
    n = GRID.nu
    u = [[-1.0 + 2.0 * i / (n - 1)] * n for i in range(n)]
    zeros = [[0.0] * n for _ in range(n)]
    return {"route": "chart", "data": {"sigma": zeros, "L": u, "M": zeros, "N": u},
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}}


ROUTE_SPECS = {
    "ko": preset_spec("z3"),
    "null": preset_spec("plane"),
    "kobayashi": preset_spec("spacelike_m1"),
    "chart": _raw_chart_spec(),
}


def test_one_spec_per_route():
    assert sorted(ROUTE_SPECS) == sorted(ROUTES)
    assert all(spec["route"] == route for route, spec in ROUTE_SPECS.items())


@pytest.mark.parametrize("route", sorted(ROUTE_SPECS))
def test_every_route_resolves_to_a_surface(route):
    resolved = resolve(ROUTE_SPECS[route])
    patch = resolved.patch
    for member in ("chart", "grid_coordinates", "index_report", "flow_fields"):
        assert callable(getattr(patch, member)), (route, member)
    assert isinstance(patch.tag, dict)
    chart = patch.chart(resolved.grid)
    assert isinstance(chart, SurfaceChart)
    assert chart.mask.shape == (resolved.grid.nu, resolved.grid.nv)


RAW_REFUSALS = {
    "generate": "generate needs a generated route (ko/null/kobayashi)",
    "index": "index needs a generated route (ko/null/kobayashi)",
}


@pytest.mark.parametrize("cmd", sorted(RAW_REFUSALS))
def test_raw_chart_refuses_generate_and_index_at_route(tmp_path, capsys, cmd):
    resolved = resolve(_raw_chart_spec())
    out = tmp_path / "o"
    with pytest.raises(SpecError) as refused:
        cli.COMMANDS[cmd](resolved, out, ARGS)
    assert (refused.value.pointer, refused.value.message) == ("/route", RAW_REFUSALS[cmd])
    spec = tmp_path / "chart.json"
    spec.write_text(json.dumps(_raw_chart_spec()))
    assert cli.main([cmd, "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == json.dumps({"error": RAW_REFUSALS[cmd], "pointer": "/route"}) + "\n"
    assert not out.exists()


def test_raw_chart_flow_draws_the_classification_and_its_banner(tmp_path):
    resolved = resolve(_raw_chart_spec())
    assert cli.cmd_flow(resolved, tmp_path / "direct", ARGS) == 0
    want = "".join(svg_lines(
        GRID, classify_chart(resolved.patch.chart(GRID)).kinds, polyline_families=[],
        marks=[], banner="classification only: no analytic flow data for this chart",
        extra_metadata={"preset": "stubby"}))
    assert (tmp_path / "direct" / "flow.svg").read_text() == want
    spec = tmp_path / "chart.json"
    spec.write_text(json.dumps(_raw_chart_spec()))
    assert cli.main(["flow", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    svg = (tmp_path / "o" / "flow.svg").read_text()
    assert "classification only: no analytic flow data for this chart" in svg
    assert "<polyline" not in svg and "<circle" not in svg
