"""Node-array charts against their per-node references, bit for bit.

`SpacelikePatch.chart` and `grid_coordinates` evaluate the whole grid as
float arrays; each value must equal what one complex evaluation per node
gives (`oracles.reference_spacelike_chart` and
`reference_spacelike_coordinates`), with NaN equal to NaN.  On hostile
data the chart must refuse the first node, row-major, where that per-node
arithmetic raises OverflowError or is not finite
(`oracles.reference_spacelike_failure`), and every command that builds the
chart must exit 3 naming it.  exA2's float (L, M) must keep the bits of the
Fraction(1, 4) product; its metric factor is checked per point in
`test_chart_engine`.
"""

import contextlib
import io
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    reference_spacelike_chart,
    reference_spacelike_coordinates,
    reference_spacelike_failure,
)
from test_chart_engine import NON_SQUARE
from zmcsurf import GridSpec, weierstrass
from zmcsurf.cli import main
from zmcsurf.geometry import NumericGuardError
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
    coords = patch.grid_coordinates(grid)
    ref = [tuple(c) for c in reference_spacelike_coordinates(patch, grid)]
    assert coords.dtype == float and coords.shape == (grid.nu, grid.nv, 3)
    assert _same_bits(coords.reshape(-1, 3), ref)
    return chart


@pytest.mark.parametrize("n", [17, 33, 65])
@pytest.mark.parametrize("preset", ["spacelike_m1", "spacelike_m2", "spacelike_m3"])
def test_preset_charts_match_per_node_reference(preset, n):
    patch = resolve(preset_spec(preset)).patch
    _assert_chart_matches_reference(patch, GridSpec.square(1, n))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [17, 33, 65])
def test_seeded_complex_specs_match_per_node_reference(seed, n):
    patch = resolve(_seeded(seed)).patch
    _assert_chart_matches_reference(patch, GridSpec.square(1, n))


@pytest.mark.parametrize("source", ["spacelike_m2", "seeded"])
def test_non_square_grid_matches_per_node_reference(source):
    spec = preset_spec(source) if source != "seeded" else _seeded(7)
    _assert_chart_matches_reference(resolve(spec).patch, NON_SQUARE)


def test_unit_circle_nodes_are_masked_as_in_reference():
    # g = z: |g| = 1, hence a zero conformal factor, at (+-1, 0) and (0, +-1)
    patch = resolve(_kobayashi([0, 1], [1])).patch
    chart = _assert_chart_matches_reference(patch, GridSpec.square(1, 17))
    assert sorted(zip(*np.nonzero(~chart.mask))) == [(0, 8), (8, 0), (8, 16), (16, 8)]


def test_negative_zero_nodes_match_per_node_reference():
    """Bounds of +-10^-400 make every node u < 0 the float -0.0, and
    complex(-0.0) + 1j * complex(v) has real part +0.0 where v > 0: the
    node arrays must keep that sign, or surface.csv prints "0" for L where
    one complex evaluation per node gives "-0"."""
    tiny = Fraction(1, 10**400)
    grid = GridSpec(-tiny, tiny, -1, 1, 17, 17)
    assert str(float(grid.u_nodes()[0])) == "-0.0"
    patch = resolve(_kobayashi([-1.0, [0.5, -0.0], 0.0], [[-0.0, -1.0], [0.0, 0.0]])).patch
    _assert_chart_matches_reference(patch, grid)


# Data whose chart overflows: per node, abs() raises "absolute value too
# large", `** 2` raises (34, 'Numerical result out of range'), or the factor
# is infinite.  In "abs_first_*" an abs overflow comes before the first `**`
# overflow, in "pow_first_*" after; "far_*" fail first away from node (0, 0).
HOSTILE = {
    "1e150_z2": ([0, 0, 1e150], [1]),
    "1e200_z2": ([0, 0, 1e200], [1]),
    "i1e300_z": ([0, [0, 1e300]], [1]),
    "const_1e308": ([[1e308, 1e308]], [1]),
    "abs_first_g": ([[1e154, 0], [1.2e308, 1.2e308]], [1]),
    "abs_first_z": ([0, [1.3e308, 1.3e308]], [1]),
    "pow_first_g": ([[1.0e308, 1.0e308], [0.3e308, 0.0]], [1]),
    "pow_first_w": ([0, 0.5], [[1.0e308, 1.0e308], [0.3e308, 0]]),
    "far_u": ([8e76, 8e76], [1]),
    "far_corner": ([[4.6e76, 4.6e76], 4.6e76], [1]),
}


def _refusal(patch, grid) -> tuple:
    """(message, node) of the refusal at the reference's first failing node."""
    i, j = reference_spacelike_failure(patch, grid)
    u, v = grid.u_nodes()[i], grid.v_nodes()[j]
    return (f"the metric factor, L or M is not a finite double at immersed node "
            f"({i}, {j}), (u, v) = ({u}, {v})", (i, j))


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_data_name_the_reference_node(name, n):
    patch = resolve(_kobayashi(*HOSTILE[name], n=n)).patch
    grid = GridSpec.square(1, n)
    with warnings.catch_warnings(), pytest.raises(NumericGuardError) as info:
        warnings.simplefilter("error")
        patch.chart(grid)
    assert (str(info.value), info.value.node) == _refusal(patch, grid)
    if name.startswith("far"):
        assert info.value.node != (0, 0)


@pytest.mark.parametrize("name", ["1e200_z2", "const_1e308", "abs_first_z", "far_corner"])
def test_hostile_specs_exit_3_naming_the_node(name, tmp_path):
    """Every command that builds the chart exits 3 naming the node and makes
    no output; `index` builds none and exits 0."""
    spec = _kobayashi(*HOSTILE[name])
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    message, node = _refusal(resolve(spec).patch, GridSpec.square(1, 17))
    for command in ("generate", "classify", "flow", "index"):
        out, err = tmp_path / command, io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--spec", str(path), "--out", str(out)])
        assert not caught, command
        if command == "index":
            assert (code, err.getvalue()) == (0, ""), command
        else:
            assert (code, json.loads(err.getvalue())) == (
                3, {"error": message, "node": list(node)}), command
            assert not out.exists(), command


# -- exA2: float forms ----------------------------------------------------


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
