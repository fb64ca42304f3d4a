"""CLI runs of the specs in `spec_cases`: float products that underflow,
and spec forms and analysis settings the presets leave out."""

import json
import re
from fractions import Fraction

import pytest

from zmcsurf.cli import MAX_MARCH_STEPS, main
from zmcsurf.geometry import GridSpec
from zmcsurf.surfacespec import DEFAULT_SEEDS, MAX_SEEDS

from spec_cases import SPEC_CASES

COMMANDS = ("generate", "classify", "index", "flow")


def _run(tmp_path, name, cmd, spec=None, args=()):
    """(exit code, output directory) of one command on a named case."""
    if spec is None:
        spec, args = SPEC_CASES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / f"{cmd}_{name}"
    return main([cmd, "--spec", str(path), *args, "--out", str(out)]), out


def _read(out, name):
    text = (out / name).read_text()
    return json.loads(text) if name.endswith(".json") else text


# -- float products that underflow ---------------------------------------------


def test_product_sign_of_tiny_float_branches_is_read_from_the_factors(tmp_path):
    """Hopf branches -1.5e-200 x^2 and -1.5e-200 y^2: the product of the
    leading coefficients underflows to 0 as a float, but both are negative."""
    reports = {}
    for name in ("tiny_float_hopf", "tiny_rational_hopf"):
        code, out = _run(tmp_path, name, "index")
        assert code == 0
        reports[name] = _read(out, "index_report.json")
    got = reports["tiny_float_hopf"]
    assert got["psi_product_sign"] == 1
    assert got["predicted_indices"] == [-1, 1]
    assert got["measured_indices"] == {"X1": -1, "X2": 1}
    want = reports["tiny_rational_hopf"]
    for key in ("psi_product_sign", "predicted_indices", "measured_indices", "match"):
        assert got[key] == want[key], key


def test_negative_product_of_tiny_float_branches_shows_the_banner(tmp_path):
    banner = "classification only: no smooth flow: leading-coefficient product is negative"
    for name in ("tiny_negative_hopf", "negative_hopf"):
        code, out = _run(tmp_path, name, "flow")
        assert code == 0
        svg = _read(out, "flow.svg")
        assert banner in svg and "<polyline" not in svg, name


def test_tiny_float_omega_is_regular_at_the_base_point(tmp_path):
    """w1(0) w2(0) = 1e-400 underflows as a float; neither factor is 0."""
    files = {}
    for name in ("tiny_float_omega", "tiny_rational_omega"):
        code, out = _run(tmp_path, name, "classify")
        assert code == 0
        files[name] = _read(out, "classification.csv")
    assert files["tiny_float_omega"] == files["tiny_rational_omega"]
    kinds = [row.split(",")[2] for row in files["tiny_float_omega"].splitlines()[1:]]
    assert set(kinds) == {"masked"}


# -- spec forms and analysis settings ------------------------------------------


def test_ko_branches_form_gives_the_z3_preset(tmp_path):
    for cmd, name in (("generate", "surface.csv"), ("classify", "classification.csv"),
                      ("index", "winding.csv")):
        code, out = _run(tmp_path, "z3_branches", cmd)
        assert code == 0
        preset = tmp_path / f"{cmd}_preset"
        assert main([cmd, "--preset", "z3", "--grid", "17", "--out", str(preset)]) == 0
        assert _read(out, name) == _read(preset, name), cmd


def test_analysis_seeds_set_the_streamlines(tmp_path, capsys):
    code, out = _run(tmp_path, "z3_seeds", "flow")
    assert code == 0
    assert _read(out, "flow.svg").count("<polyline") == 4  # two fields, two seeds
    spec = dict(SPEC_CASES["z3_seeds"][0], analysis={"seeds": [[0.5]]})
    code, out = _run(tmp_path, "bad_seed", "flow", spec)
    assert code == 2 and not out.exists()
    assert json.loads(capsys.readouterr().err)["pointer"] == "/analysis/seeds/0"


def test_seeds_are_limited_in_number_and_to_the_grid(tmp_path, capsys):
    spec = SPEC_CASES["z3_seeds"][0]
    cases = (
        ([[0, 0]] * (MAX_SEEDS + 1), "/analysis/seeds"),
        ([[0.5, 0], [0, "-101/100"]], "/analysis/seeds/1"),
        ([[1e200, 1e200]], "/analysis/seeds/0"),
    )
    for seeds, pointer in cases:
        for cmd in COMMANDS:
            code, out = _run(tmp_path, "seeds", cmd, dict(spec, analysis={"seeds": seeds}))
            assert code == 2 and not out.exists()
            assert json.loads(capsys.readouterr().err)["pointer"] == pointer
    # the rectangle is closed: MAX_SEEDS seeds on its corners are accepted
    corners = [[-1, -1], [-1, 1], [1, -1], [1, 1]] * (MAX_SEEDS // 4)
    code, out = _run(tmp_path, "corners", "flow", dict(spec, analysis={"seeds": corners}))
    assert code == 0


def test_default_seeds_are_not_checked_against_the_grid(tmp_path):
    spec = dict(SPEC_CASES["z3_seeds"][0], analysis={})
    spec["grid"] = dict(spec["grid"], u_min="-1/2", u_max="1/2", v_min="-1/2", v_max="1/2")
    code, out = _run(tmp_path, "small_grid", "flow", spec)
    assert code == 0
    # only the four diagonal seeds (+-0.45, +-0.45) lie in the grid; a seed
    # outside it draws nothing, as before seeds were checked
    assert _read(out, "flow.svg").count("<polyline") == 2 * 4


def test_a_march_is_bounded_on_a_wide_grid(tmp_path):
    """z3 on [-1e6, 1e6]^2: each march stops after 4096 steps, so a
    polyline has at most 2 * 4096 + 1 points."""
    spec = dict(SPEC_CASES["z3_seeds"][0], analysis={})
    spec["grid"] = dict(spec["grid"], u_min=-10**6, u_max=10**6, v_min=-10**6, v_max=10**6)
    code, out = _run(tmp_path, "wide_grid", "flow", spec)
    assert code == 0
    lines = re.findall(r'<polyline points="([^"]*)"', _read(out, "flow.svg"))
    assert len(lines) == 2 * len(DEFAULT_SEEDS)
    assert max(len(points.split()) for points in lines) == 2 * MAX_MARCH_STEPS + 1


def test_samples_and_jet_cap_overrides_reach_the_analysis(tmp_path):
    code, out = _run(tmp_path, "z3_samples_jet_cap", "index")
    assert code == 0
    report = _read(out, "index_report.json")
    assert report["split_orders"]["jet_cap"] == 8
    assert report["measured_info"]["samples"] == 720
    code, out = _run(tmp_path, "z3_samples_jet_cap", "generate")
    assert code == 0
    analysis = _read(out, "metadata.json")["analysis"]
    assert (analysis["samples"], analysis["jet_cap"]) == (720, 8)


def test_spacelike_index_without_an_isolated_umbilic(tmp_path):
    code, out = _run(tmp_path, "kobayashi_no_umbilic", "index")
    assert code == 0
    report = _read(out, "index_report.json")
    assert report["hopf_zero_order"] == 0
    assert report["note"] == "no isolated umbilic (Hopf coefficient has no zero at o)"
    assert report["measured_index"] is None and report["match"] is None
    assert len(_read(out, "winding.csv").splitlines()) == 1


def test_rational_metric_factor_below_1e_300_is_masked(tmp_path):
    """w1 = w2 = 10^-150, g1 = x, g2 = y: the factor is -(1 - xy)^2 10^-300,
    which rounds below 1e-300 exactly where xy > 0."""
    code, out = _run(tmp_path, "underflow_mask", "generate")
    assert code == 0
    grid = GridSpec(-1, 1, -1, 1, 17, 17)
    rows = [row.split(",") for row in _read(out, "surface.csv").splitlines()[1:]]
    nodes = [(u, v) for u in grid.u_nodes() for v in grid.v_nodes()]
    assert len(rows) == len(nodes)
    for (u, v), row in zip(nodes, rows):
        x, y = Fraction(u + v) / 2, Fraction(u - v) / 2
        assert (row[5:] == ["nan"] * 4) == (x * y > 0), (u, v)


def test_order_above_the_jet_cap_is_reported_undecidable(tmp_path):
    code, out = _run(tmp_path, "jet_cap_caveat", "index")
    assert code == 0
    report = _read(out, "index_report.json")
    assert report["split_orders"]["m_minus1"] == ">=16"
    assert report["admissible"] == "undecidable"
    assert report["notes"] == ["order >= 16 on one branch treated as infinite; undecidable at cap"]


@pytest.mark.parametrize("cmd", COMMANDS)
def test_exp_flat_null_spec_runs_every_command(tmp_path, cmd):
    """g1 = exp_flat enters callable sums, products and derivatives."""
    code, out = _run(tmp_path, "exp_flat_null", cmd)
    assert code == 0
    assert out.exists()
