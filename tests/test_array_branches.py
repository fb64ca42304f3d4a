"""Callable branches as arrays.

A callable `Branch` built from `exp_flat`, polynomials, sums, products,
scalar multiples and `compose_scale` carries `arrays`, its value at every
entry of a float64 array; the Gauss-Legendre primitives of the coordinates
evaluate all their panels in one pass over it.  Both must give the bits of
the scalar path: `arrays` those of `float(fn(t))` at each float t, and
`_GaussPrimitive.table` those of the one-panel-per-value reference
`oracles.reference_gauss_primitive`.  Where the scalar path raises, the
array path raises the same error: the CLI pins at the end reach the
primitives' nodes where (2t)^2 underflows.
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import reference_gauss_primitive
from spec_cases import SPEC_CASES, null_spec, poly
from zmcsurf import Branch
from zmcsurf.cli import main
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve
from zmcsurf.weierstrass import _GaussPrimitive, _gauss_legendre, _primitive

FLAT = Branch.exp_flat()
RATIONAL_G = (poly(0, "1/3", "2/7"), poly(0, "-5/3", 0, "1/11"))


def _square(spec, n):
    return {**spec, "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}}


def _exa2(n):  # on the preset's [-4/5, 4/5]^2
    spec = preset_spec("exA2")
    spec["grid"].update(nu=n, nv=n)
    return spec


SPECS = {
    **{f"exA2_{n}": _exa2(n) for n in (17, 33, 65, 129)},
    # off the origin: x in (0, 1.08], past knot 6 = 1, and y of both signs
    "exA2_off_origin": {**preset_spec("exA2"), "grid": {
        "u_min": "1/3", "u_max": "8/5", "nu": 17, "v_min": "-2/7", "v_max": "5/9", "nv": 16}},
    "rational_g_flat_w": _square(null_spec(*RATIONAL_G, {"kind": "exp_flat"},
                                           {"kind": "exp_flat"}, allow_degenerate_base=True), 33),
    "exp_flat_null": SPEC_CASES["exp_flat_null"][0],
}


def _integrands(patch):
    """(axis, name, branch) of the six integrands whose primitives are
    `patch.comps_x` and `patch.comps_y`, built as `ImmersionPatch` builds them."""
    one, d = Branch.constant(1), patch.data
    out = []
    for axis, g, w, sign in (("x", d.g1, d.w1, 1), ("y", d.g2, d.w2, -1)):
        first = (one - g * g) * w
        out += [(axis, "(1 - g^2) w", first if sign > 0 else -first),
                (axis, "2 g w", (g * 2) * w), (axis, "(1 + g^2) w", (one + g * g) * w)]
    return out


# branches of every construction that carries `arrays`: a zero and a float
# polynomial entering a callable, a coefficient past the double range,
# scalars of each type, compose_scale by an int, a Fraction and a float, and
# polynomials, whose array form is their `Poly`
ZOO = {
    "exp_flat": FLAT,
    "exp_flat(2t)": FLAT.compose_scale(2),
    "exp_flat(t/3)": FLAT.compose_scale(Fraction(1, 3)),
    "exp_flat(0.001t)": FLAT.compose_scale(0.001),
    "-exp_flat": -FLAT,
    "exp_flat*(-2/7)": FLAT * Fraction(-2, 7),
    "exp_flat*3": FLAT * 3,
    "exp_flat*0.1": FLAT * 0.1,
    "exp_flat*10^400": FLAT * 10**400,
    "1+exp_flat": Branch.constant(1) + FLAT,
    "exp_flat-t": FLAT - Branch.from_poly([0, 1]),
    "float_poly+exp_flat": Branch.from_poly([0.5, 1.0, -0.25]) + FLAT,
    "zero*exp_flat": Branch.from_poly([0]) * FLAT,
    "t^3(1+exp_flat)": Branch.from_poly([0, 0, 0, 1]) * (Branch.constant(1) + FLAT),
    "(1/3+5t^2)exp_flat(2t)": Branch.from_poly([Fraction(1, 3), 0, 5]) * FLAT.compose_scale(2),
    "exp_flat*exp_flat(t/3)": FLAT * FLAT.compose_scale(Fraction(1, 3)),
    "10^400+exp_flat": Branch.from_poly([10**400]) + FLAT,
    # its primitive varies, and stays finite, out to the end of the double range
    "1e-308t*exp_flat": Branch.from_poly([0, 1e-308]) * FLAT,
    "poly 1/7-5t/3+t^3": Branch.from_poly([Fraction(1, 7), Fraction(-5, 3), 0, 1]),
    "poly float_mixed": Branch.from_poly([0.25, -1.5, 3, Fraction(1, 3)]),
    "poly 10^400t": Branch.from_poly([1, 10**400]),
}
for _name in ("exA2_17", "rational_g_flat_w", "exp_flat_null"):
    for _axis, _label, _branch in _integrands(resolve(SPECS[_name]).patch):
        if not _branch.is_polynomial:
            ZOO[f"{_name} {_label} in {_axis}"] = _branch


def _random_points(seed, n=10_000):
    """Seeded floats of both signs: half with |t| in [2^-9, 8], half with
    exponents over [-600, 600]."""
    rng = random.Random(seed)
    return [math.ldexp(rng.uniform(-1, 1), rng.randint(-8, 3) if k % 2 else rng.randint(-600, 600))
            for k in range(n)]


KNOTS = [math.ldexp(1.0, k - 5) for k in range(1029)]  # 2^k / 32 up to 2^1023
# t^2 underflows to 0 where 0 < |t| < 1.57e-162: at all but the first two;
# (2t)^2 where |t| < 7.9e-163: at all but the first four
TINY = [2e-162, -1.6e-162, 1e-162, -8e-163, 7e-163, 1e-170, -1e-200, 5e-324, -3 * 5e-324]
POINTS = [0.0, -0.0, *KNOTS, *(-t for t in KNOTS), 1e300, -1e300, *TINY, *_random_points(30)]


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(f, t):
    """float(f(t)) as bits, or the (type, message) of what it raises."""
    try:
        return _bits([float(f(t))])[0]
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _assert_raises(f, outcome):
    with pytest.raises(outcome[0]) as info:
        f()
    assert str(info.value) == outcome[1]


@np.errstate(all="ignore")
@pytest.mark.parametrize("name", ZOO)
def test_arrays_match_the_scalar_function_bitwise(name):
    branch = ZOO[name]
    want = [_outcome(branch, t) for t in POINTS]
    fine = np.array([t for t, w in zip(POINTS, want) if isinstance(w, int)])
    if fine.size:  # a coefficient or scalar past the double range raises everywhere
        got = branch.arrays(fine)
        assert got.dtype == float and got.shape == fine.shape
        assert _bits(got) == [w for w in want if isinstance(w, int)]
        # a 2-D array, as the primitives pass their panels' nodes
        rows = fine[: fine.size // 20 * 20].reshape(-1, 20)
        assert _bits(branch.arrays(rows).ravel()) == _bits(got[: rows.size])
    failures = [(t, w) for t, w in zip(POINTS, want) if not isinstance(w, int)]
    for t, w in failures:
        _assert_raises(lambda: branch.arrays(np.array([t])), w)
    if failures:  # which of the points' errors is not fixed
        with pytest.raises(ArithmeticError) as info:
            branch.arrays(np.array(POINTS))
        assert (type(info.value), str(info.value)) in [w for _, w in failures]


def test_exp_flat_raises_exactly_where_the_square_underflows():
    """The cases of the array form's raise, which the bitwise test compares."""
    raising = (ZeroDivisionError, "float division by zero")
    for branch, fine in ((FLAT, 2), (FLAT.compose_scale(2), 4)):
        assert [_outcome(branch, t) for t in TINY[fine:]] == [raising] * (len(TINY) - fine)
        assert all(isinstance(_outcome(branch, t), int) for t in TINY[:fine])
    assert _bits(FLAT.arrays(np.array([0.0, -0.0]))) == _bits([0.0, 0.0])


def test_derivatives_and_primitives_carry_no_arrays():
    assert FLAT.derivative().arrays is None
    assert _primitive(FLAT).arrays is None
    assert all(b.arrays for b in ZOO.values())


def _reference(branch):
    return reference_gauss_primitive(lambda t: float(branch(t)))


@pytest.mark.parametrize("order", ["table_first", "calls_first"])
@pytest.mark.parametrize("name", SPECS)
def test_primitive_tables_match_the_scalar_reference(name, order):
    """`table` at every null coordinate of the grid, for a primitive whose
    knots are all missing and for one whose scalar calls cached some, and
    the patch's own primitives, which `grid_coordinates` tables."""
    resolved = resolve(SPECS[name])
    patch, lattice = resolved.patch, resolved.grid.null_lattice()
    comps = {"x": list(patch.comps_x), "y": list(patch.comps_y)}
    for axis, label, integrand in _integrands(patch):
        if integrand.is_polynomial:  # integrated exactly
            comps[axis].pop(0)
            continue
        points = lattice.xs if axis == "x" else lattice.ys
        want = _bits([_reference(integrand)(t) for t in points])
        primitive = _primitive(integrand)
        if order == "calls_first":
            early = points[::7] + [points[0] * 9]  # past the table's knots too
            reference = _reference(integrand)
            assert _bits([primitive(t) for t in early]) == _bits([reference(t) for t in early])
        assert _bits(primitive.table(points)) == want, (axis, label)
        assert _bits([primitive(t) for t in points]) == want, (axis, label)
        assert _bits(comps[axis].pop(0).table(points)) == want, (axis, label)


EXTREMES = [0.0, -0.0, 1e-150, -3e-140, 1 / 32, -1 / 33, 0.75, 1e3, 1e300, -1e300,
            2.0**1023, -(2.0**1023), 1e308, -1.7e308, 1.7976931348623157e308]


@pytest.mark.parametrize("name", ["exp_flat", "exp_flat(t/3)", "1+exp_flat", "1e-308t*exp_flat"])
def test_primitive_table_matches_the_reference_out_to_the_double_range(name):
    """Near 2^1024 a panel's endpoints overflow when summed: its midpoint
    is 0.5 a + 0.5 b, not 0.5 (a + b), as the t-dependent integrand
    1e-308 t exp_flat(t) shows."""
    branch = ZOO[name]
    points = EXTREMES + [t for t in _random_points(31, 100) if abs(t) > 1e-140]
    want = _bits([_reference(branch)(t) for t in points])
    assert _bits(_primitive(branch).table(points)) == want
    assert all(map(math.isfinite, _primitive(ZOO["1e-308t*exp_flat"]).table(EXTREMES)))


def test_primitive_raises_where_the_reference_raises():
    for t in (1e-161, -3e-162, 1e-170):
        outcome = _outcome(_reference(FLAT), t)
        assert outcome == (ZeroDivisionError, "float division by zero")
        _assert_raises(lambda: _primitive(FLAT).table([0.5, t]), outcome)


def test_a_callable_without_arrays_integrates_through_its_scalar_function():
    square = Branch(fn=lambda t: t * t)
    points = [0.0, 0.3, -2.5, 1e3]
    got = _primitive(square).table(points)
    assert _bits(got) == _bits([_reference(square)(t) for t in points])
    assert got[2] == pytest.approx(-2.5**3 / 3, rel=1e-15)


def test_a_table_is_one_array_pass():
    """Each value and each knot not yet cached costs one panel of 20 samples,
    all in one call of the array form; a second table caches every knot."""
    passes = []
    primitive = _GaussPrimitive(lambda t: passes.append(t.shape) or FLAT.arrays(t))
    xs = resolve(_exa2(65)).grid.null_lattice().xs
    primitive.table(xs)
    knots = sum(len(k) - 1 for k in primitive._cumulative.values())
    assert knots == 2 * 5  # knot 5 is 1/2 <= |x| <= 4/5
    assert passes == [(knots + sum(t != 0 for t in xs), len(_gauss_legendre()))]
    primitive.table(xs)
    assert passes[1] == (sum(t != 0 for t in xs), 20)


# at 10^-170 the chart's table of w1(x) = exp_flat(2x) already divides by
# (2x)^2 = 0; at 10^-161 (2x)^2 is a subnormal there, and only the
# quadrature's smallest nodes, ~0.0034 x, square to 0
@pytest.mark.parametrize("exponent", [170, 161])
def test_generate_at_the_null_line_exits_3_and_writes_nothing(tmp_path, capsys, exponent):
    """exA2 with its u-range moved by 2 10^-exponent: the nodes with
    u = -v + 2 10^-exponent lie on x = 10^-exponent."""
    spec = preset_spec("exA2")
    for key in ("u_min", "u_max"):
        spec["grid"][key] = str(Fraction(spec["grid"][key]) + Fraction(2, 10**exponent))
    path, out = tmp_path / "spec.json", tmp_path / "out"
    path.write_text(json.dumps(spec))
    assert main(["generate", "--spec", str(path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": "float division by zero"}
    assert not out.exists()
