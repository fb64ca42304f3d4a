"""Spec rules stated once in `surfacespec`: float grid bounds, unknown keys
and the order of data-key diagnostics."""

import json
from fractions import Fraction

import numpy as np
import pytest

from zmcsurf.cli import main
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import SpecError, resolve


def _run(tmp_path, spec, cmd="generate"):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / cmd
    return main([cmd, "--spec", str(path), "--grid", "17", "--out", str(out)]), out


def _with_bounds(lo, hi):
    spec = preset_spec("z3")
    spec["grid"].update(u_min=lo, u_max=hi)
    return spec


@pytest.mark.parametrize("lo, hi", [(-1e-10, 1e-10), (-7e-10, 7e-10),
                                    (-1.23456789e-9, 1.23456789e-9)])
def test_float_grid_bound_reads_its_exact_value(tmp_path, lo, hi):
    """A float bound no fraction over at most 10^9 rounds to is read exactly:
    +-1e-10 was an empty range, 7e-10 was 1/10^9."""
    code, out = _run(tmp_path, _with_bounds(lo, hi))
    assert code == 0
    grid = json.loads((out / "metadata.json").read_text())["grid"]
    assert (grid["u_min"], grid["u_max"]) == (str(Fraction(lo)), str(Fraction(hi)))
    assert float(Fraction(grid["u_max"])) == hi


def test_float_grid_bound_keeps_its_short_fraction(tmp_path):
    code, out = _run(tmp_path, _with_bounds(-0.1, 0.1))
    assert code == 0
    grid = json.loads((out / "metadata.json").read_text())["grid"]
    assert (grid["u_min"], grid["u_max"]) == ("-1/10", "1/10")


@pytest.mark.parametrize(
    "edit, pointer",
    [
        (lambda spec: spec.update(analyis={"samples": 720}), "/analyis"),
        (lambda spec: spec.update(analysis={"sample": 720}), "/analysis/sample"),
        (lambda spec: spec.update({"a/b~c": 1}), "/a~1b~0c"),
        (lambda spec: spec["grid"].update(nx=65), "/grid/nx"),
        (lambda spec: spec["data"]["g"].update(zpoly=[0, 1]), "/data/g/zpoly"),
        (lambda spec: spec["data"].update(metric_sign=1), "/data/metric_sign"),
    ],
    ids=["top", "analysis", "escaped", "grid", "parafn", "ko_metric_sign"],
)
def test_unknown_key_is_a_spec_error(tmp_path, capsys, edit, pointer):
    _refused(tmp_path, capsys, "z3", edit, pointer)


def _refused(tmp_path, capsys, preset, edit, pointer):
    spec = preset_spec(preset)
    edit(spec)
    for cmd in ("generate", "index"):
        code, out = _run(tmp_path, spec, cmd)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer and err["error"].startswith("unknown key")
        assert not out.exists()


_EXP_FLAT = {"kind": "exp_flat"}


@pytest.mark.parametrize(
    "preset, edit, pointer",
    [
        ("f1", lambda spec: spec["data"].update(metric_sign=-1), "/data/metric_sign"),
        ("f1", lambda spec: spec["data"]["g1"].update(coef=[0, 2]), "/data/g1/coef"),
        ("exA2", lambda spec: spec["data"]["omega_hat"]["wedge"][1].update(coeffs=[1]),
         "/data/omega_hat/wedge/1/coeffs"),
        ("exA2", lambda spec: spec["data"].update(omega_hat={"branches": {
            "plus": _EXP_FLAT, "minus": _EXP_FLAT, "zero": _EXP_FLAT}}),
         "/data/omega_hat/branches/zero"),
    ],
    ids=["null_metric_sign", "branch", "exp_flat_branch", "branches_map"],
)
def test_unknown_key_below_the_top_level_is_a_spec_error(tmp_path, capsys, preset, edit,
                                                         pointer):
    """Keys inside data, branch objects and the branches map were dropped
    without a word; each is refused at its own pointer now."""
    _refused(tmp_path, capsys, preset, edit, pointer)


def test_metric_sign_is_a_data_key_of_route_chart_only():
    spec = {**preset_spec("z3"), "route": "chart"}
    spec["grid"].update(nu=16, nv=16)
    rows = [[0.0] * 16 for _ in range(16)]
    spec["data"] = {k: rows for k in ("sigma", "L", "M", "N")}
    for sign in (1, -1):
        spec["data"]["metric_sign"] = sign
        resolved = resolve(spec)
        assert resolved.patch.chart(resolved.grid).metric_sign[0, 0] == sign


@pytest.mark.parametrize(
    "route, data, pointer",
    [
        # the first key's error comes first on every route
        ("ko", {"g": {"z_poly": "x"}}, "/data/g/z_poly"),
        ("kobayashi", {"g": ["x"]}, "/data/g/0"),
        ("null", {"g1": {"kind": "x"}}, "/data/g1/kind"),
    ],
)
def test_data_keys_are_checked_and_read_in_order(route, data, pointer):
    spec = {**preset_spec("z3"), "route": route, "data": data}
    with pytest.raises(SpecError) as info:
        resolve(spec)
    assert info.value.pointer == pointer


def _chart_text(token, at=(12, 13), n=16):
    """A chart spec as JSON text: seeded float rows, and the raw JSON token
    at node `at` of M."""
    rng = np.random.default_rng(20)
    arrays = {k: rng.uniform(-1.0, 1.0, (n, n)).tolist() for k in ("sigma", "L", "M", "N")}
    arrays["M"][at[0]][at[1]] = "@"
    spec = {"route": "chart", "data": arrays,
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}}
    return json.dumps(spec).replace('"@"', token), arrays


# the pointer and message of the value-by-value reader
@pytest.mark.parametrize("token, message", [
    ("NaN", "not a finite number: nan"),
    ("-Infinity", "not a finite number: -inf"),
    ("1e400", "not a finite number: inf"),
    ("true", "expected a number"),
    ('"x"', "not a rational literal: 'x'"),
    ('"1/0"', "not a rational literal: '1/0'"),
    ("null", "expected a number or 'p/q' string"),
])
@pytest.mark.parametrize("at", [(12, 13), (0, 15), (15, 0)])
def test_a_bad_value_in_a_float_row_keeps_its_pointer(token, message, at):
    text, _ = _chart_text(token, at)
    with pytest.raises(SpecError) as exc:
        resolve(json.loads(text))
    assert (exc.value.pointer, exc.value.message) == (f"/data/M/{at[0]}/{at[1]}", message)


@pytest.mark.parametrize("token, value", [
    ("3", 3.0), ("-7", -7.0), ('"1/3"', 1 / 3), (str(2**80 + 1), float(2**80 + 1)),
    ("0.125", 0.125),
])
def test_raw_chart_rows_read_every_value_as_its_float(token, value):
    text, arrays = _chart_text(token)
    resolved = resolve(json.loads(text))
    chart = resolved.patch.chart(resolved.grid)
    arrays["M"][12][13] = value
    for key in ("sigma", "L", "M", "N"):
        assert getattr(chart, key).tolist() == arrays[key]


def test_a_float_row_whose_sum_overflows_is_read_value_by_value():
    text, arrays = _chart_text("1e308", (3, 4))
    spec = json.loads(text)
    spec["data"]["M"][3] = [1e308] * 16
    resolved = resolve(spec)
    chart = resolved.patch.chart(resolved.grid)
    assert chart.M[3].tolist() == [1e308] * 16
    assert chart.M[4].tolist() == arrays["M"][4]


@pytest.mark.parametrize(
    "seed",
    [[10**400, 0], [0, -(10**400)], [f"{10**400}/3", 0],
     [f"{10**30 + 1}/{10**30}", 0]],  # just past u_max = 1, but 1.0 as a double
    ids=["int", "negative_v", "fraction", "rounds_inside"],
)
@pytest.mark.parametrize("cmd", ["classify", "index", "flow"])
def test_seed_outside_the_rectangle_is_refused_exactly(tmp_path, capsys, cmd, seed):
    """The seed is compared with the grid bounds as its exact value, before it
    is converted to a double: no OverflowError, and no seed outside the
    rectangle that rounds onto its edge."""
    spec = preset_spec("z3")
    spec["analysis"] = {"seeds": [seed]}
    capsys.readouterr()
    code, out = _run(tmp_path, spec, cmd)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "seed lies outside the grid rectangle",
                   "pointer": "/analysis/seeds/0"}
    assert not out.exists()
