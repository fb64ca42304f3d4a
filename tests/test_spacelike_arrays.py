"""Node-array charts against their per-node references, bit for bit.

`SpacelikePatch.chart` and `grid_coordinates` evaluate the whole grid as
float arrays; each value must equal what one complex evaluation per node
gives (`oracles.reference_spacelike_chart` and
`reference_spacelike_coordinates`), with NaN equal to NaN, and on hostile
data the same OverflowError must be raised.  exA2's metric factor, formed
from the integer ratios of its rational g tables, must equal the
per-point expression of `weierstrass._float_node` at every node.
"""

import contextlib
import io
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_spacelike_chart, reference_spacelike_coordinates
from test_chart_engine import NON_SQUARE
from zmcsurf import GridSpec, weierstrass
from zmcsurf.cli import main
from zmcsurf.geometry import chart_from_nodes
from zmcsurf.presets import preset_spec
from zmcsurf.spacelike import SpacelikeChart
from zmcsurf.surfacespec import resolve

SQUARE = {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1}


def _kobayashi(g, omega, n=17):
    grid = {**SQUARE, "nu": n, "nv": n}
    return {"route": "kobayashi", "data": {"g": g, "omega_hat": omega}, "grid": grid}


def _seeded(seed):
    """g with g(0) = 0 and omega_hat, real and [re, im] coefficients."""
    rng = random.Random(seed)

    def coeff():
        c = [round(rng.uniform(-2, 2), 3) for _ in range(2)]
        return c[0] if rng.random() < 0.3 else c

    g = [0] + [coeff() for _ in range(rng.randint(1, 4))]
    return _kobayashi(g, [coeff() for _ in range(rng.randint(1, 3))])


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_nan = np.isnan(a) & np.isnan(b)
    return a.shape == b.shape and bool((both_nan | (a.view(np.int64) == b.view(np.int64))).all())


def _assert_chart_matches_reference(patch, grid):
    chart, want = patch.chart(grid), reference_spacelike_chart(patch, grid)
    assert type(chart) is SpacelikeChart
    for name in ("sigma", "L", "M", "N"):
        assert _same_bits(getattr(chart, name), getattr(want, name)), name
    for name in ("mask", "metric_sign"):
        got, ref = getattr(chart, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    coords = list(patch.grid_coordinates(grid))
    ref = [tuple(c) for c in reference_spacelike_coordinates(patch, grid)]
    assert len(coords) == len(ref) == grid.nu * grid.nv
    assert _same_bits(coords, ref)
    return chart


@pytest.mark.parametrize("n", [17, 33, 65])
@pytest.mark.parametrize("preset", ["spacelike_m1", "spacelike_m2", "spacelike_m3"])
def test_preset_charts_match_per_node_reference(preset, n):
    patch = resolve(preset_spec(preset)).spacelike_patch
    _assert_chart_matches_reference(patch, GridSpec.square(1, n))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [17, 33, 65])
def test_seeded_complex_specs_match_per_node_reference(seed, n):
    patch = resolve(_seeded(seed)).spacelike_patch
    _assert_chart_matches_reference(patch, GridSpec.square(1, n))


@pytest.mark.parametrize("source", ["spacelike_m2", "seeded"])
def test_non_square_grid_matches_per_node_reference(source):
    spec = preset_spec(source) if source != "seeded" else _seeded(7)
    _assert_chart_matches_reference(resolve(spec).spacelike_patch, NON_SQUARE)


def test_unit_circle_nodes_are_masked_as_in_reference():
    # g = z: |g| = 1, hence a zero conformal factor, at (+-1, 0) and (0, +-1)
    patch = resolve(_kobayashi([0, 1], [1])).spacelike_patch
    chart = _assert_chart_matches_reference(patch, GridSpec.square(1, 17))
    assert sorted(zip(*np.nonzero(~chart.mask))) == [(0, 8), (8, 0), (8, 16), (16, 8)]


# Data whose chart overflows: abs() raises "absolute value too large" and
# `** 2` raises (34, 'Numerical result out of range'); the first failing
# node in row-major order decides which.  In "abs_first_*" an abs
# overflow comes before the first `**` overflow, in "pow_first_*" after.
HOSTILE = {
    "1e150_z2": ([0, 0, 1e150], [1]),
    "1e200_z2": ([0, 0, 1e200], [1]),
    "i1e300_z": ([0, [0, 1e300]], [1]),
    "const_1e308": ([[1e308, 1e308]], [1]),
    "abs_first_g": ([[1e154, 0], [1.2e308, 1.2e308]], [1]),
    "abs_first_z": ([0, [1.3e308, 1.3e308]], [1]),
    "pow_first_g": ([[1.0e308, 1.0e308], [0.3e308, 0.0]], [1]),
    "pow_first_w": ([0, 0.5], [[1.0e308, 1.0e308], [0.3e308, 0]]),
}


def _raised(fn):
    with pytest.raises(OverflowError) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_data_raise_the_reference_error(name, n):
    patch = resolve(_kobayashi(*HOSTILE[name], n=n)).spacelike_patch
    grid = GridSpec.square(1, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _raised(lambda: patch.chart(grid))
    assert got == _raised(lambda: reference_spacelike_chart(patch, grid))
    expected = "absolute value too large" if name.startswith("abs") else None
    assert got == expected or (expected is None and got.startswith("(34, "))


# exit code and stderr of each command at 17x17, recorded before the
# space-like chart was evaluated on node arrays
RANGE_ERROR = '{"error": "(34, \'Numerical result out of range\')"}\n'
RECORDED = {
    "1e150_z2": RANGE_ERROR,
    "1e200_z2": RANGE_ERROR,
    "i1e300_z": RANGE_ERROR,
    "const_1e308": RANGE_ERROR,
    "abs_first_z": '{"error": "absolute value too large"}\n',
}


@pytest.mark.parametrize("name", RECORDED)
def test_hostile_specs_keep_exit_codes_and_stderr(name, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_kobayashi(*HOSTILE[name])))
    for command in ("generate", "classify", "flow", "index"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--spec", str(path), "--out", str(tmp_path / command)])
        assert not caught, command
        if command == "index":
            assert (code, err.getvalue()) == (0, ""), command
        else:
            assert (code, err.getvalue()) == (3, RECORDED[name]), command


# -- exA2: rational g tables, float w tables ------------------------------


def _float_node_chart(patch, grid):
    """`ImmersionPatch.chart`'s nodes through `_float_node` alone."""
    lattice = grid.null_lattice()
    xs, ys = lattice.xs, lattice.ys
    d = patch.data
    g1d, g2d = patch.g_primes
    g1, w1, g2, w2 = d.g1.table(xs), d.w1.table(xs), d.g2.table(ys), d.w2.table(ys)
    lx = [-2 * w * dg for w, dg in zip(w1, g1d.table(xs))]
    ny = [-2 * w * dg for w, dg in zip(w2, g2d.table(ys))]
    rows_x, rows_y = list(zip(g1, w1, lx)), list(zip(g2, w2, ny))
    nodes = (
        weierstrass._float_node(rows_x[a], rows_y[b]) for a, b in zip(lattice.ix, lattice.iy)
    )
    return chart_from_nodes(grid, nodes)


def _assert_same_chart(got, want):
    for name in ("sigma", "L", "M", "N"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.mask, want.mask)
    assert np.array_equal(got.metric_sign, want.metric_sign)


def _node_calls(monkeypatch, name):
    calls = []
    node = getattr(weierstrass, name)
    monkeypatch.setattr(weierstrass, name, lambda x, y: calls.append(1) or node(x, y))
    return calls


# exA2's g values are dyadic; these are not, so a g product rounded in
# floats would differ from the exact one
RATIONAL_G_FLAT_W = {
    "route": "null",
    "data": {
        "g1": {"kind": "poly", "coeffs": [0, "1/3", "2/7"]},
        "g2": {"kind": "poly", "coeffs": [0, "-5/3", 0, "1/11"]},
        "w1": {"kind": "exp_flat"},
        "w2": {"kind": "exp_flat"},
    },
    "grid": {**SQUARE, "nu": 17, "nv": 17},
    "allow_degenerate_base": True,
}


@pytest.mark.parametrize("name, n", [("exA2", 33), ("exA2", 65), ("rational_g", 33)])
def test_rational_g_node_matches_float_node(name, n, monkeypatch):
    spec = preset_spec(name) if name == "exA2" else RATIONAL_G_FLAT_W
    patch, grid = resolve(spec).patch, GridSpec.square(1, n)
    want = _float_node_chart(patch, grid)
    calls = _node_calls(monkeypatch, "_rational_g_node")
    _assert_same_chart(patch.chart(grid), want)
    assert len(calls) == n * n


@pytest.mark.parametrize("n", [33, 65])
def test_float_forms_quarter_as_fraction_quarter(n):
    """exA2's float (L, M) at every node: `_forms` multiplies by 0.25 and
    gives the bits of the Fraction(1, 4) product it replaced."""
    patch, grid = resolve(preset_spec("exA2")).patch, GridSpec.square(1, n)
    lattice = grid.null_lattice()
    g1d, g2d = patch.g_primes
    lx = [-2 * w * dg for w, dg in zip(patch.data.w1.table(lattice.xs), g1d.table(lattice.xs))]
    ny = [-2 * w * dg for w, dg in zip(patch.data.w2.table(lattice.ys), g2d.table(lattice.ys))]
    assert all(isinstance(t, float) for t in lx + ny)
    got, want = [], []
    for a, b in zip(lattice.ix.tolist(), lattice.iy.tolist()):
        L, M, N = weierstrass._forms(lx[a], ny[b])
        got.append((L, M, N))
        old = float((lx[a] + ny[b]) * Fraction(1, 4)), float((lx[a] - ny[b]) * Fraction(1, 4))
        want.append((old[0], old[1], old[0]))
    assert _same_bits(got, want)


def test_float_g_rational_w_keeps_float_node(monkeypatch):
    spec = {
        "route": "null",
        "data": {
            "g1": {"kind": "poly", "coeffs": [0.0, 0.5, 0.25]},
            "g2": {"kind": "poly", "coeffs": [0.0, -0.75, 0.0, 0.125]},
            "w1": {"kind": "poly", "coeffs": [1, "1/3"]},
            "w2": {"kind": "poly", "coeffs": [2, 0, "-1/5"]},
        },
        "grid": {**SQUARE, "nu": 33, "nv": 33},
    }
    resolved = resolve(spec)
    want = _float_node_chart(resolved.patch, resolved.grid)
    calls = _node_calls(monkeypatch, "_rational_g_node")
    _assert_same_chart(resolved.patch.chart(resolved.grid), want)
    assert not calls
