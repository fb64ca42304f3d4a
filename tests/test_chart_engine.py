"""The separable chart engine against the per-point analytic API.

`ImmersionPatch.chart`, `grid_coordinates` (hence surface.csv) and the
classifier's Hopf-branch lookup are built from 1-D branch tables; every
value must equal, bit for bit, what the per-point methods give at the
node, and every exact table, evaluated over integers, must equal
`Poly.__call__`.  The space-like chart, built by the same constructor, is
checked against the per-point oracle `spacelike_forms` the same way.
"""

import math
from fractions import Fraction

import pytest

from oracles import spacelike_conformal_factor, spacelike_forms
from zmcsurf import Branch, GridSpec
from zmcsurf.geometry import _exact_branch_values
from zmcsurf.outputs import fmt, surface_csv
from zmcsurf.poly import Poly
from zmcsurf.presets import PRESET_ORDER, preset_spec
from zmcsurf.surfacespec import resolve

FLOAT_NULL = {
    "route": "null",
    "data": {
        "g1": {"kind": "poly", "coeffs": [0.0, 0.0, 0.75, 0.1]},
        "g2": {"kind": "poly", "coeffs": [0.0, 0.0, 0.0, 0.0, 1.25, -0.2]},
        "w1": {"kind": "poly", "coeffs": [1.0, 0.125, -0.25]},
        "w2": {"kind": "poly", "coeffs": [1.0, -0.375, 0.125]},
    },
    "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
}

# du/dv = (1/8) / (5/88) = 11/5
NON_SQUARE = GridSpec(-1, 1, Fraction(-1, 2), Fraction(3, 4), 17, 23)

CASES = ["z5", "deg26", "f2", "float_null", "exA2"]


def _patch_and_square_grid(name):
    spec = FLOAT_NULL if name == "float_null" else preset_spec(name)
    resolved = resolve(spec)
    return resolved.patch, resolved.grid


@pytest.fixture(params=CASES)
def case(request):
    return request.param


@pytest.fixture(params=["square", "non_square"])
def patch_grid(request, case):
    patch, grid = _patch_and_square_grid(case)
    return patch, grid if request.param == "square" else NON_SQUARE


def _bits(x: float) -> str:
    return float(x).hex()


def _nodes(grid):
    for i, u in enumerate(grid.u_nodes()):
        for j, v in enumerate(grid.v_nodes()):
            yield i, j, u, v


def test_non_square_grid_has_step_ratio_11_5():
    du = (NON_SQUARE.u_max - NON_SQUARE.u_min) / (NON_SQUARE.nu - 1)
    dv = (NON_SQUARE.v_max - NON_SQUARE.v_min) / (NON_SQUARE.nv - 1)
    assert du / dv == Fraction(11, 5)


@pytest.mark.parametrize("grid", [GridSpec.square(1, 17), NON_SQUARE])
def test_null_lattice_gives_exact_null_coordinates(grid):
    lat = grid.null_lattice()
    for i, j, u, v in _nodes(grid):
        k = i * grid.nv + j
        assert lat.xs[lat.ix[k]] == (u + v) / 2
        assert lat.ys[lat.iy[k]] == (u - v) / 2
    assert len(set(lat.xs)) == len(lat.xs) and len(set(lat.ys)) == len(lat.ys)


def test_square_lattice_has_nu_plus_nv_minus_one_values():
    lat = GridSpec.square(1, 33).null_lattice()
    assert len(lat.xs) == len(lat.ys) == 65


def test_chart_matches_per_point_forms_bitwise(patch_grid):
    patch, grid = patch_grid
    chart = patch.chart(grid)
    for i, j, u, v in _nodes(grid):
        factor = patch.metric_factor(u, v)
        f = float(factor)
        immersed = not (factor == 0 or abs(f) < 1e-300)
        assert bool(chart.mask[i, j]) == immersed, (i, j)
        if not immersed:
            assert math.isnan(chart.sigma[i, j]) and chart.metric_sign[i, j] == 1
            assert chart.L[i, j] == chart.M[i, j] == chart.N[i, j] == 0.0
            continue
        assert chart.metric_sign[i, j] == (1 if f > 0 else -1)
        assert _bits(chart.sigma[i, j]) == _bits(0.5 * math.log(abs(f))), (i, j)
        l, m, n = patch.second_forms(u, v)
        assert _bits(chart.L[i, j]) == _bits(float(l)), (i, j)
        assert _bits(chart.M[i, j]) == _bits(float(m)), (i, j)
        assert _bits(chart.N[i, j]) == _bits(float(n)), (i, j)


def test_surface_csv_coordinates_match_evaluate(patch_grid):
    patch, grid = patch_grid
    lines = surface_csv(patch.chart(grid), patch).splitlines()[1:]
    assert len(lines) == grid.nu * grid.nv
    for (i, j, u, v), line in zip(_nodes(grid), lines):
        fields = line.split(",")
        expected = [float(u), float(v)] + [float(c) for c in patch.evaluate(u, v)]
        assert fields[:5] == [fmt(x) for x in expected], (i, j)


def test_branch_lookup_matches_direct_hopf(patch_grid):
    patch, grid = patch_grid
    chart = patch.chart(grid)
    hopf = patch.hopf()
    polynomial = hopf.plus.is_polynomial and hopf.minus.is_polynomial
    for i, j, u, v in _nodes(grid):
        got = _exact_branch_values(chart, i, j)
        if not polynomial:
            assert got is None
            continue
        want = (hopf.plus((u + v) / 2), hopf.minus((u - v) / 2))
        assert got == want and type(got[0]) is type(want[0]), (i, j)


def _kobayashi(omega, half_width, n):
    grid = {"u_min": -half_width, "u_max": half_width, "nu": n}
    grid.update(v_min=-half_width, v_max=half_width, nv=n)
    return {"route": "kobayashi", "data": {"g": [0, 1], "omega_hat": [omega]}, "grid": grid}


# g = z: |g| = 1 at (+-1, 0) and (0, +-1), where the conformal factor
# (1 - |z|^2)^2 |omega|^2 is 0; with omega = 1e-151 it is positive but at
# most 1e-300 wherever |z|^2 <= 11, so only the corners of [-4, 4]^2 stay
SPACELIKE_MASKS = {
    "unit_circle_17": (_kobayashi(1, 1, 17), [(-1, 0), (0, -1), (0, 1), (1, 0)]),
    "unit_circle_33": (_kobayashi(1, 1, 33), [(-1, 0), (0, -1), (0, 1), (1, 0)]),
    "tiny_factor_17": (_kobayashi(1e-151, 4, 17), None),
}


@pytest.mark.parametrize("name", SPACELIKE_MASKS)
def test_spacelike_chart_matches_per_point_forms_bitwise(name):
    spec, expected_masked = SPACELIKE_MASKS[name]
    resolved = resolve(spec)
    patch, grid = resolved.spacelike_patch, resolved.grid
    chart = patch.chart(grid)
    masked = []
    for i, j, u, v in _nodes(grid):
        immersed = not spacelike_conformal_factor(patch, u, v) <= 1e-300
        assert bool(chart.mask[i, j]) == immersed, (i, j)
        assert chart.metric_sign[i, j] == 1
        if not immersed:
            masked.append((u, v))
            assert math.isnan(chart.sigma[i, j])
            assert chart.L[i, j] == chart.M[i, j] == chart.N[i, j] == 0.0
            continue
        got = (chart.sigma[i, j], chart.L[i, j], chart.M[i, j], chart.N[i, j])
        want = spacelike_forms(patch, u, v)
        assert [_bits(x) for x in got] == [_bits(x) for x in want], (i, j)
    if expected_masked is not None:
        assert sorted(masked) == expected_masked
    assert 0 < len(masked) < grid.nu * grid.nv
    rows = [line.split(",") for line in surface_csv(chart, patch).splitlines()[1:]]
    printed = [(r[0], r[1]) for r in rows if r[5:] == ["nan"] * 4]
    assert printed == [(fmt(u), fmt(v)) for u, v in masked]


TIMELIKE_PRESETS = [name for name in PRESET_ORDER if not name.startswith("spacelike")]


def _exact_poly(fn) -> bool:
    """A non-zero polynomial branch with int/Fraction coefficients."""
    coeffs = fn.poly.coeffs if isinstance(fn, Branch) and fn.is_polynomial else ()
    return bool(coeffs) and all(isinstance(c, (int, Fraction)) for c in coeffs)


def _branch_tables(patch):
    """(name, function, 'x' or 'y') for every 1-D table the chart engine and
    `grid_coordinates` build: g_i, w_i, g_i', the Hopf branches and the six
    primitives."""
    d, (g1d, g2d), hopf = patch.data, patch.g_primes, patch.hopf()
    x = [("g1", d.g1), ("w1", d.w1), ("g1'", g1d), ("hopf+", hopf.plus)]
    y = [("g2", d.g2), ("w2", d.w2), ("g2'", g2d), ("hopf-", hopf.minus)]
    x += [(f"P{a}", c) for a, c in enumerate(patch.comps_x)]
    y += [(f"Q{a}", c) for a, c in enumerate(patch.comps_y)]
    return [(n, f, "x") for n, f in x] + [(n, f, "y") for n, f in y]


@pytest.mark.parametrize("grid_name", ["17", "65", "17x23"])
@pytest.mark.parametrize("name", TIMELIKE_PRESETS)
def test_integer_tables_equal_poly_call(name, grid_name):
    """Every exact table, evaluated over integers, equals `Poly.__call__`
    at each null coordinate, value and type."""
    spec = preset_spec(name)
    if grid_name != "17x23":
        spec["grid"]["nu"] = spec["grid"]["nv"] = int(grid_name)
    resolved = resolve(spec)
    patch, grid = resolved.patch, resolved.grid
    lattice = (NON_SQUARE if grid_name == "17x23" else grid).null_lattice()
    assert min(lattice.xs) < 0 and min(lattice.ys) < 0
    checked = 0
    for label, fn, axis in _branch_tables(patch):
        if not _exact_poly(fn):
            continue
        points = lattice.xs if axis == "x" else lattice.ys
        got = fn.table(points)
        want = [fn.poly(t) for t in points]
        assert got == want, label
        assert all(type(a) is type(b) is Fraction for a, b in zip(got, want)), label
        checked += 1
    assert checked


MIXED_POINTS = [Fraction(-7, 3), Fraction(-1), Fraction(0), Fraction(5, 4), Fraction(2, 9)]


@pytest.mark.parametrize(
    "poly",
    [
        Poly([3]),
        Poly([-4, 0, 1]),
        Poly([1, -2, 5, 0, 7]),
        Poly([Fraction(-5, 6)]),
        Poly([0, Fraction(1, 10**40), -(10**30), Fraction(7, 3)]),
    ],
    ids=["int_constant", "int_quadratic", "int_quartic", "fraction_constant", "mixed"],
)
def test_integer_table_on_mixed_denominators(poly):
    got = poly.table(MIXED_POINTS)
    assert got == [poly(t) for t in MIXED_POINTS]
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize(
    "fn", [Poly(), Poly([0.5, 1.0, -0.25]), Branch.exp_flat()], ids=["zero", "float", "callable"]
)
def test_other_tables_keep_the_function_call(fn):
    got = fn.table(MIXED_POINTS)
    want = [fn(t) for t in MIXED_POINTS]
    assert [(type(v), v) for v in got] == [(type(v), v) for v in want]


def test_z5_chart_and_surface_csv_make_no_poly_calls(monkeypatch):
    """The chart and surface.csv of an exact spec read integer tables only."""
    patch, grid = _patch_and_square_grid("z5")
    calls = []
    call = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda p, t: calls.append(t) or call(p, t))
    surface_csv(patch.chart(grid), patch)
    assert calls == []
