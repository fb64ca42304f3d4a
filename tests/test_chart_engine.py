"""The separable chart engine against the per-point analytic API.

`ImmersionPatch.chart`, `grid_coordinates` (hence surface.csv) and the
chart's Hopf signs are built from 1-D branch tables; every value must
equal, bit for bit, what the per-point methods give at the node (each
sign, the sign of `patch.hopf()` there), and every exact table the chart
reads (`weierstrass._table`), as integers over a denominator, must equal
`Poly.__call__`, and so must every float table of a polynomial with a
float coefficient (`Poly.table`) on float and mixed specs.  Every type mix
takes one node path: each value is certified up to its first float
operand, then takes the per-point expression's float steps on arrays
(`pow` for **).  `FACTOR_PATHS` reach
each certified part: the whole factor and forms of exact data, the factor's
-(1 - g1 g2)^2 with or without w1, and float steps from a float g on; the
path test checks that no per-point expression runs and that no polynomial
is called twice at a point.  `SIGN_SPECS` add seeded float data to the
sign test and the bitwise test, which also gets an exact w that no double
holds (`HUGE_W`) and a callable g1.
The space-like chart, built by the same constructor, is checked against
the per-point oracle `spacelike_forms` the same way.

Exact parts are certified double-doubles, with the exact division where
the certificate fails (module docstring of `weierstrass`).  `EDGE_SPECS`
take every node past the certificate's edges: seeded Fraction data, exact
zeros, factors on both sides of 1e-300, values near overflow and subnormal
ones, and exact ties and near-ties.  Two tests watch the certificate
itself: near-ties within its bound take the division, and at most 1% of the
values of the presets and the dense spec at 65 x 65 do.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import spacelike_conformal_factor, spacelike_forms
from spec_cases import SPEC_CASES, dense_spec, null_spec, poly
from zmcsurf import Branch, GridSpec, weierstrass
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

# non-dyadic rational g, so that a g product rounded in floats would differ
# from the exact one
RATIONAL_G = (poly(0, "1/3", "2/7"), poly(0, "-5/3", 0, "1/11"))
FLOAT_W, RATIONAL_W = poly(1.0, 0.3, -0.1), poly(1, "1/7")


def _square(spec, n):
    return {**spec, "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}}


# underflow_mask masks nodes whose factor rounds below 1e-300 from a
# non-zero numerator, z2 nodes whose factor is exactly zero; exA2_65 has
# more nodes than one evaluation block
SPECS = {
    "float_null": FLOAT_NULL,
    "underflow_mask": SPEC_CASES["underflow_mask"][0],
    "exA2_33": _square(preset_spec("exA2"), 33),
    "exA2_65": _square(preset_spec("exA2"), 65),
    "rational_g_flat_w": _square(null_spec(*RATIONAL_G, {"kind": "exp_flat"},
                                           {"kind": "exp_flat"}, allow_degenerate_base=True), 33),
    "w1_float": null_spec(*RATIONAL_G, FLOAT_W, RATIONAL_W),
    "w2_float": null_spec(*RATIONAL_G, RATIONAL_W, FLOAT_W),
    "float_g_rational_w": _square(null_spec(poly(0.0, 0.5, 0.25), poly(0.0, -0.75, 0.0, 0.125),
                                            poly(1, "1/3"), poly(2, 0, "-1/5")), 33),
    # a float constant term makes g's values floats; g' stays exact
    "g_float_constant": null_spec(poly(0.0, "1/3", "2/7"), RATIONAL_G[1], RATIONAL_W, RATIONAL_W),
    "dense": dense_spec(17),
}


def _seeded_null(seed):
    """A null spec with random Fraction coefficients: g_i of degree 3-5
    vanishing at 0, w_i of degree 0-2 with w_i(0) = 1."""
    rng = random.Random(seed)
    coeff = lambda: str(Fraction(rng.randint(-40, 40), rng.randint(1, 60)))
    g = lambda: poly(0, *(coeff() for _ in range(rng.randint(3, 5))))
    w = lambda: poly(1, *(coeff() for _ in range(rng.randint(0, 2))))
    return _square(null_spec(g(), g(), w(), w()), 17)


def _seeded_float_null(seed):
    """A null spec with random float coefficients: g_i of degree 2-5 with
    g_i(0) = 0 and, for half of them, g_i'(0) = 0 too (a zero Hopf branch
    at 0), w_i of degree 0-2 with w_i(0) = 1."""
    rng = random.Random(seed)
    coeffs = lambda n: [round(rng.uniform(-3, 3), rng.randint(1, 17)) for _ in range(n)]
    g = lambda: poly(*[0.0] * rng.randint(1, 2), *coeffs(rng.randint(2, 4)))
    w = lambda: poly(1.0, *coeffs(rng.randint(0, 2)))
    return _square(null_spec(g(), g(), w(), w()), 17)


# g = 0 and w = 1 give the coordinates (v, 0, u) and the factor -1 exactly;
# u runs over 1 + 2^-53 + i 2^-102, so u_i lies i 2^-102 above the midpoint
# of two doubles: node values that are exact ties and near-ties
TIE_U = Fraction(1) + Fraction(1, 2**53)
NEAR_TIES = {**null_spec(poly(0), poly(0)), "grid": {
    "u_min": str(TIE_U), "u_max": str(TIE_U + Fraction(16, 2**102)), "nu": 17,
    "v_min": str(Fraction(-1, 2**40)), "v_max": str(Fraction(1, 2**40)), "nv": 17}}
TINY_150, TINY_310 = Fraction(1, 10**150), Fraction(1, 10**310)


def _weights(scale, a, b):
    """w1 = scale (1 + t/a), w2 = scale (1 + t/b), as spec polynomials."""
    return [poly(str(scale), str(scale / k)) for k in (a, b)]


# more edge cases of the certified values, each with the per-point API as
# the reference: exact zeros (g1 g2 = 1 and L = M = 0 at nodes), factors on
# both sides of 1e-300, values near the double range's ends
EDGE_SPECS = {
    "seeded_null_1": _seeded_null(1),
    "seeded_null_2": _seeded_null(2),
    "seeded_null_3": _seeded_null(3),
    "unit_product_zeros": null_spec(poly(0, 2), poly(0, 2)),
    "straddle_1e-300": null_spec(poly(0, 1), poly(0, "2/3"), *_weights(TINY_150, 3, -7)),
    "near_overflow": null_spec(poly(0, 10**75), poly(0, 13 * 10**75)),
    "subnormal_forms": null_spec(poly(0, 0, "1/1" + "0" * 310), poly(0, 0, "3/1" + "0" * 310)),
    "subnormal_coordinates": null_spec(poly(0), poly(0), *_weights(TINY_310, 1, -3)),
    "near_ties": NEAR_TIES,
}
SPECS.update(EDGE_SPECS)
CASES = ["z5", "deg26", "f2", "exA2", "z2", *SPECS]
# more cases of the Hopf-sign test only: float w_i g_i', signs taken per value
SIGN_SPECS = {f"seeded_float_null_{seed}": _seeded_float_null(seed) for seed in range(25)}


# g1 = t, g2 = t / (2 10^400), w1 = 10^-400, w2 = 10^400: exact data whose
# chart values are doubles, though w2 is not one; a float(w2) raises
HUGE_W = null_spec(poly(0, 1), poly(0, "1/2" + "0" * 400), poly("1/1" + "0" * 400), poly(10**400))
# more cases of the bitwise test: float data, exact data beyond the doubles,
# and a callable g1 (exp_flat), whose float M at o is -0.0 - 0.0
BITWISE_SPECS = {**SIGN_SPECS, "huge_w": HUGE_W, "exp_flat_g1": SPEC_CASES["exp_flat_null"][0]}

# the certified part of each case's metric factor and of its forms; float
# steps follow it (module docstring of `weierstrass`)
FACTOR_PATHS = {
    "z5": ("-(1 - g1 g2)^2 w1 w2", "(lx +- ny) / 4"),
    "dense": ("-(1 - g1 g2)^2 w1 w2", "(lx +- ny) / 4"),
    "exA2_65": ("-(1 - g1 g2)^2", "none"),
    "rational_g_flat_w": ("-(1 - g1 g2)^2", "none"),
    "w1_float": ("-(1 - g1 g2)^2", "none"),
    "w2_float": ("-(1 - g1 g2)^2 w1", "none"),
    "float_g_rational_w": ("none", "none"),
    "g_float_constant": ("none", "(lx +- ny) / 4"),
    "float_null": ("none", "none"),
}


def _patch_and_square_grid(name):
    spec = SPECS.get(name) or BITWISE_SPECS.get(name) or preset_spec(name)
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


def test_null_lattice_is_built_once_per_grid():
    grid = GridSpec.square(1, 17)
    assert grid.null_lattice() is grid.null_lattice()
    assert grid == GridSpec.square(1, 17)


def test_square_lattice_has_nu_plus_nv_minus_one_values():
    lat = GridSpec.square(1, 33).null_lattice()
    assert len(lat.xs) == len(lat.ys) == 65


@pytest.mark.parametrize("case", CASES + list(BITWISE_SPECS))
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


@pytest.mark.parametrize("name", FACTOR_PATHS)
def test_each_type_mix_takes_its_node_path(name, monkeypatch):
    """`chart` and `grid_coordinates` run neither per-point `_metric` nor
    `_forms` (their code raises here, through any reference to them, one
    bound by np.frompyfunc too), and call each polynomial at most once per
    table entry, never once per node; the chart certifies the parts
    `FACTOR_PATHS` names, one pass for the factor's, two for the forms."""
    patch, grid = _patch_and_square_grid(name)

    def per_point(*args):
        raise AssertionError("a per-point expression ran")

    for fn in (weierstrass._metric, weierstrass._forms):
        monkeypatch.setattr(fn, "__code__", per_point.__code__)
    calls, call = Counter(), Poly.__call__
    key = lambda t: t.tobytes() if isinstance(t, np.ndarray) else t  # an array by its values
    monkeypatch.setattr(Poly, "__call__", lambda p, t: calls.update([(id(p), key(t))]) or call(p, t))
    passes = _fallbacks(monkeypatch)
    patch.chart(grid)
    factor, forms = FACTOR_PATHS[name]
    assert len(passes) == (factor != "none") + 2 * (forms != "none")
    patch.grid_coordinates(grid)
    assert max(calls.values(), default=1) == 1


def test_surface_csv_coordinates_match_evaluate(patch_grid):
    patch, grid = patch_grid
    lines = surface_csv(patch.chart(grid), patch).splitlines()[1:]
    assert len(lines) == grid.nu * grid.nv
    for (i, j, u, v), line in zip(_nodes(grid), lines):
        fields = line.split(",")
        expected = [float(u), float(v)] + [float(c) for c in patch.evaluate(u, v)]
        assert fields[:5] == [fmt(x) for x in expected], (i, j)


def _sign(value) -> int:
    return (value > 0) - (value < 0)


@pytest.mark.parametrize("name", CASES + list(SIGN_SPECS))
@pytest.mark.parametrize("grid_name", ["square", "non_square"])
def test_branch_lookup_matches_direct_hopf(grid_name, name):
    """The chart's Hopf signs are the signs of `patch.hopf()` at each node,
    as ints, where both Hopf branches are polynomial, and absent otherwise."""
    patch, grid = _patch_and_square_grid(name)
    grid = grid if grid_name == "square" else NON_SQUARE
    chart = patch.chart(grid)
    hopf = patch.hopf()
    polynomial = hopf.plus.is_polynomial and hopf.minus.is_polynomial
    for i, j, u, v in _nodes(grid):
        got = _exact_branch_values(chart, i, j)
        if not polynomial:
            assert got is None
            continue
        want = (_sign(hopf.plus((u + v) / 2)), _sign(hopf.minus((u - v) / 2)))
        assert got == want and {type(t) for t in got} == {int}, (i, j)


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
    patch, grid = resolved.patch, resolved.grid
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
    """Every exact table the chart engine reads (`weierstrass._table`),
    integers over one positive denominator, equals `Poly.__call__` at each
    null coordinate."""
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
        ints, den = weierstrass._table(fn, points)
        assert type(den) is int and den > 0 and all(type(n) is int for n in ints), label
        assert [Fraction(n, den) for n in ints] == [fn.poly(t) for t in points], label
        checked += 1
    assert checked


def _seeded_mixed_null(seed):
    """A null spec whose coefficients are ints, Fractions and floats at
    random: g_i of degree 2-5 with g_i(0) = 0, w_i of degree 0-3 with
    w_i(0) = 1."""
    rng = random.Random(seed)
    kinds = (lambda: rng.randint(-3, 3), lambda: round(rng.uniform(-3, 3), rng.randint(1, 17)),
             lambda: str(Fraction(rng.randint(-40, 40), rng.randint(1, 60))))
    coeffs = lambda n: [rng.choice(kinds)() for _ in range(n)]
    return null_spec(poly(0, *coeffs(rng.randint(2, 5))), poly(0, *coeffs(rng.randint(2, 5))),
                     poly(1, *coeffs(rng.randint(0, 3))), poly(1, *coeffs(rng.randint(0, 3))))


def _has_float(spec) -> bool:
    return any(isinstance(c, float) for f in spec["data"].values() for c in f.get("coeffs", ()))


FLOAT_TABLE_SPECS = {
    **{name: spec for name, (spec, _) in SPEC_CASES.items()
       if spec["route"] == "null" and _has_float(spec)},
    **{f"seeded_float_null_{seed}": _seeded_float_null(seed) for seed in range(4)},
    **{f"seeded_mixed_null_{seed}": _seeded_mixed_null(seed) for seed in range(4)},
}


@pytest.mark.parametrize("n", [17, 65, 129])
@pytest.mark.parametrize("name", FLOAT_TABLE_SPECS)
def test_float_tables_equal_poly_call(name, n):
    """Every table of a polynomial with a float coefficient that the chart
    engine reads (`weierstrass._table`, through `Poly.table`) is bit for
    bit `Poly.__call__` at each null coordinate."""
    resolved = resolve(_square(FLOAT_TABLE_SPECS[name], n))
    lattice = resolved.grid.null_lattice()
    checked = 0
    for label, fn, axis in _branch_tables(resolved.patch):
        if fn.is_polynomial and any(isinstance(c, float) for c in fn.poly.coeffs):
            points = lattice.xs if axis == "x" else lattice.ys
            floats, den = weierstrass._table(fn, points)
            want = np.array([fn.poly(t) for t in points], dtype=float)
            assert den is None and floats.tobytes() == want.tobytes(), label
            checked += 1
    assert checked >= 4


MIXED_POINTS = [Fraction(-7, 3), Fraction(-1), Fraction(0), Fraction(5, 4), Fraction(2, 9)]


@pytest.mark.parametrize("fn", [Branch.exp_flat()], ids=["callable"])
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


def test_forms_are_not_formed_at_masked_nodes():
    """g1 = 10^400 t, g2 = 0, w1 = 1, w2 = 10^-400: the metric factor
    -10^-400 masks every node, and L = -10^400/2 would not fit a double
    there; the chart comes out all masked instead of raising."""
    poly = lambda *coeffs: {"kind": "poly", "coeffs": list(coeffs)}
    data = {"g1": poly(0, 10**400), "g2": poly(0), "w1": poly(1), "w2": poly("1/1" + "0" * 400)}
    spec = {"route": "null", "data": data, "grid": FLOAT_NULL["grid"]}
    resolved = resolve(spec)
    chart = resolved.patch.chart(resolved.grid)
    assert not chart.mask.any()
    assert (chart.L == 0.0).all() and (chart.M == 0.0).all()


def test_float_forms_are_not_formed_at_masked_nodes():
    """The float twin of the test above, w2 = 1e-301: L is a float sum,
    and float(L's x-term -2 10^400) raises where it is formed; the chart
    still comes out all masked."""
    data = {"g1": poly(0, 10**400), "g2": poly(0), "w1": poly(1), "w2": poly(1e-301)}
    resolved = resolve({"route": "null", "data": data, "grid": FLOAT_NULL["grid"]})
    chart = resolved.patch.chart(resolved.grid)
    assert not chart.mask.any()
    assert (chart.L == 0.0).all() and (chart.M == 0.0).all()


def test_an_overflowing_block_is_evaluated_once(monkeypatch):
    """g1 = 10^200 t: the exact metric factor's division overflows in the
    first block of 1024 nodes, whose own pass raises; no node is redone."""
    calls, by_blocks = [], weierstrass._by_blocks

    def counted(grid, lattice, node):
        return by_blocks(grid, lattice, lambda kx, ky: calls.append(len(kx)) or node(kx, ky))

    monkeypatch.setattr(weierstrass, "_by_blocks", counted)
    patch = resolve(null_spec(poly(0, 10**200), poly(0, 1))).patch
    with pytest.raises(OverflowError, match="^integer division result too large for a float$"):
        patch.chart(GridSpec.square(1, 33))
    assert calls == [1024]


def _fallbacks(monkeypatch):
    """Wrap `weierstrass._certified`: a list that gets, for each certified
    pass built after this call, the list of (kx, ky) lattice index pairs its
    exact fallback receives."""
    passes, certified = [], weierstrass._certified

    def counting(den, terms, exact):
        seen = []
        passes.append(seen)
        return certified(den, terms, lambda kx, ky: seen.extend(zip(kx, ky)) or exact(kx, ky))

    monkeypatch.setattr(weierstrass, "_certified", counting)
    return passes


def _half_gap_distance(value: Fraction) -> Fraction:
    """|value - m| for the nearest midpoint m between two adjacent doubles."""
    r = float(value)
    mids = [(Fraction(r) + Fraction(float(np.nextafter(r, s)))) / 2 for s in (-math.inf, math.inf)]
    return min(abs(value - m) for m in mids)


def test_near_ties_take_the_division(monkeypatch):
    """The third coordinate of `NEAR_TIES` is u = x + y, i 2^-102 above a
    midpoint on row i; the certificate's bound there is about 2^-100 (the
    module docstring: beta = 2^-100 (|x| + |y|) + 2^-1071).  A node within
    3/4 of beta of the midpoint takes the exact division; one farther than
    3/2 beta keeps its certified value.  A bound half as wide would certify
    row 3."""
    passes = _fallbacks(monkeypatch)
    resolved = resolve(NEAR_TIES)
    patch, grid = resolved.patch, resolved.grid
    lattice = grid.null_lattice()
    patch.grid_coordinates(grid)
    fallback = set(passes[2])
    rows = set()
    for i, j, u, v in _nodes(grid):
        k = i * grid.nv + j
        x, y = lattice.xs[lattice.ix[k]], lattice.ys[lattice.iy[k]]
        beta = (abs(float(x)) + abs(float(y))) * 2.0**-100
        distance = _half_gap_distance(u)
        taken = (lattice.ix[k], lattice.iy[k]) in fallback
        if distance < Fraction(3, 4) * Fraction(beta):
            assert taken, (i, j)
            rows.add(i)
        elif distance > Fraction(3, 2) * Fraction(beta):
            assert not taken, (i, j)
    assert rows == {0, 1, 2, 3}


@pytest.mark.parametrize("name", ["z3", "z5", "f1", "f2", "deg26", "dense"])
def test_the_certificate_clears_nearly_every_value(name, monkeypatch):
    """At 65 x 65, at most 1% of the exact values of the chart and of the
    coordinates fall back to the exact division."""
    spec = dense_spec(65) if name == "dense" else preset_spec(name)
    spec["grid"]["nu"] = spec["grid"]["nv"] = 65
    resolved = resolve(spec)
    passes = _fallbacks(monkeypatch)
    patch, grid = resolved.patch, resolved.grid
    chart = patch.chart(grid)
    patch.grid_coordinates(grid)
    assert len(passes) == 6  # the factor, L, M and three coordinates
    values = grid.nu * grid.nv * 4 + 2 * int(chart.mask.sum())
    assert sum(map(len, passes)) <= values // 100


# u in [0, 1] and v in [0, 1 + 10^-30]: du/dv = p/q with p, q near 10^30, so
# the lattice keys p i + q j do not fit an int64
HUGE_KEYS = {"u_min": 0, "u_max": 1, "v_min": 0, "v_max": "1" + "0" * 29 + "1/1" + "0" * 30,
             "nu": 17, "nv": 19}


def test_null_lattice_with_keys_beyond_int64():
    """The ranks are those of the sorted distinct Python ints (the CLI's
    files on this grid are pinned in test_cli)."""
    grid = resolve({**preset_spec("z3"), "grid": HUGE_KEYS}).grid
    lat = grid.null_lattice()
    du, dv = grid.u_nodes()[1] - grid.u_nodes()[0], grid.v_nodes()[1] - grid.v_nodes()[0]
    p, q = (du / dv).numerator, (du / dv).denominator
    assert p * (grid.nu - 1) + q * (grid.nv - 1) >= 2**63
    for keys, index, values in (
        ([p * i + q * j for i in range(grid.nu) for j in range(grid.nv)], lat.ix, lat.xs),
        ([p * i + q * (grid.nv - 1 - j) for i in range(grid.nu) for j in range(grid.nv)],
         lat.iy, lat.ys),
    ):
        distinct = sorted(set(keys))
        assert index.dtype == np.intp and index.tolist() == list(map(distinct.index, keys))
        assert len(values) == len(distinct)
    test_null_lattice_gives_exact_null_coordinates(grid)
