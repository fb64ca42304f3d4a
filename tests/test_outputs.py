"""Serialization helpers: float formatting, CSV layout, SVG mapping."""

import math

from zmcsurf import GridSpec, classify_chart, generate_null, Branch
from zmcsurf.outputs import classification_csv, fmt, surface_csv
from zmcsurf.svgplot import ChartMap, render_svg


def test_fmt_17_digits_and_nan():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0) == "1"
    assert fmt(float("nan")) == "nan"
    assert fmt(-1.5e-300) == "-1.5000000000000001e-300"


def _patch():
    return generate_null(
        Branch.from_poly([0, 0, 1]),
        Branch.from_poly([0, 0, 1]),
        Branch.constant(1),
        Branch.constant(1),
    )


def test_surface_csv_shape_and_masked_rows():
    patch = _patch()
    grid = GridSpec.square(2, 17)  # wide enough to hit degenerate nodes
    chart = patch.chart(grid)
    text = surface_csv(chart, patch)
    lines = text.splitlines()
    assert lines[0] == "u,v,f0,f1,f2,sigma,L,M,N"
    assert len(lines) == 1 + 17 * 17
    masked_rows = [l for l in lines[1:] if l.split(",")[5] == "nan"]
    assert len(masked_rows) == int((~chart.mask).sum())


def test_classification_csv_columns():
    patch = _patch()
    chart = patch.chart(GridSpec.square(1, 17))
    cls = classify_chart(chart)
    lines = classification_csv(cls).splitlines()
    assert lines[0] == "u,v,kind,D,dir1_u,dir1_v,dir2_u,dir2_v"
    kinds = {l.split(",")[2] for l in lines[1:]}
    assert "positive" in kinds


def test_chart_map_corners():
    m = ChartMap(-1, 1, -2, 2)
    assert m.px(-1, -2) == (0.0, 800.0)  # bottom-left
    assert m.px(1, 2) == (800.0, 0.0)  # top-right
    assert m.px(0, 0) == (400.0, 400.0)


def test_render_svg_structure():
    patch = _patch()
    grid = GridSpec.square(1, 17)
    chart = patch.chart(grid)
    cls = classify_chart(chart)
    svg = render_svg(
        grid,
        cls.kinds,
        polyline_families=[[[(0.0, 0.0), (0.5, 0.5)]]],
        marks=[(0.0, 0.0)],
        banner="note",
        extra_metadata={"preset": "test"},
    )
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "chart_to_viewport" in svg
    assert "<polyline" in svg and "<circle" in svg and "note" in svg
    assert math.isclose(svg.count("<rect"), (17 - 1) ** 2 + 2, abs_tol=0)
