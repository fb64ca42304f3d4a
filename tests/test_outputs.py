"""Serialization helpers: float formatting, CSV layout, SVG mapping, and
the values classification.csv refuses to print."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zmcsurf import GridSpec, classify_chart, generate_null, Branch, chart_from_arrays
from zmcsurf.geometry import EXP_MAX, KIND_POSITIVE, NumericGuardError
from zmcsurf.outputs import classification_csv, classification_lines, fmt, surface_csv
from zmcsurf.spacelike import SpacelikeChart
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


# ---------------------------------------------------------------------------
# classification.csv refuses what it cannot print
# ---------------------------------------------------------------------------


def _raw_chart(n=6, **entries):
    """sigma = M = 0, L = N = 1 on [-1, 1]^2, but for name=[(i, j, value)]."""
    arrays = {name: np.full((n, n), fill) for name, fill in
              (("sigma", 0.0), ("L", 1.0), ("M", 0.0), ("N", 1.0))}
    for name, cells in entries.items():
        for i, j, value in cells:
            arrays[name][i, j] = value
    return chart_from_arrays(GridSpec.square(1, n), **arrays)


def _refusal(chart):
    with pytest.raises(NumericGuardError) as caught:
        classification_lines(classify_chart(chart))
    return str(caught.value), caught.value.node


def test_exp_max_is_where_math_exp_overflows():
    """The sigma rule compares 4|sigma| with EXP_MAX: the largest double whose
    math.exp is finite."""
    assert math.isfinite(math.exp(EXP_MAX))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(EXP_MAX, math.inf))


def _exp_overflows(t):
    try:
        return not math.isfinite(math.exp(t))
    except OverflowError:
        return True


def test_sigma_rule_refuses_where_math_exp_overflows():
    """An immersed node is refused for its sigma exactly where
    math.exp(4|sigma|) is not a finite double, on both sides of the
    threshold and for both signs (just inside it, D = 4 e^(-4 sigma)
    itself may overflow and be refused as a value)."""
    edge = EXP_MAX / 4.0
    values = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf), 177.0, 178.0,
              200.28878444833276, 400.0, 1e308]
    for s in values + [-v for v in values]:
        try:
            classification_csv(classify_chart(_raw_chart(sigma=[(2, 3, s)])))
            message, node = "", (2, 3)
        except NumericGuardError as exc:
            message, node = str(exc), exc.node
        assert node == (2, 3) and ("sigma" in message) == _exp_overflows(4.0 * abs(s)), s


def test_sigma_rule_comes_before_a_non_finite_value():
    """Node (1, 1) prints D = inf, but the sigma of (4, 0) is refused first."""
    chart = _raw_chart(sigma=[(4, 0, -400.0)], L=[(1, 1, 1e200)])
    assert _refusal(chart) == (
        "e^(4|sigma|) is not a finite double at immersed node (4, 0), (u, v) = (3/5, -1)",
        (4, 0))
    chart = _raw_chart(L=[(3, 2, 1e200), (1, 1, 1e200)])
    assert _refusal(chart) == (
        "D or a direction is not a finite double at node (1, 1), (u, v) = (-3/5, -3/5)",
        (1, 1))


def test_classifiers_never_raise_for_values_they_cannot_print():
    """sigma beyond the exp range, squares that overflow and directions
    that underflow leave inf or NaN in the classification, not an error."""
    cls = classify_chart(_raw_chart(sigma=[(0, 0, -400.0), (0, 1, 400.0)], L=[(1, 1, 1e200)]))
    assert cls.kinds[0, 0] == cls.kinds[0, 1] == KIND_POSITIVE
    assert not np.isfinite(cls.D[1, 1])
    tiny = Branch.from_poly([0, 0, Fraction(1, 10**170)])
    patch = generate_null(tiny, tiny, Branch.constant(1), Branch.constant(1))
    cls = classify_chart(patch.chart(GridSpec.square(1, 17)))
    positive = cls.kinds == KIND_POSITIVE
    assert positive.any() and not np.isfinite(cls.dirs[positive]).any()
    n = 6
    sigma = np.zeros((n, n))
    sigma[0, 0] = -400.0
    ones = np.ones((n, n))
    spacelike = SpacelikeChart(GridSpec.square(1, n), sigma, ones, 0 * ones, -ones,
                               ones > 0, np.ones((n, n), np.int8))
    assert classify_chart(spacelike).kinds[0, 0] == KIND_POSITIVE
