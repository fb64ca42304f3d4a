"""CLI commands: outputs, exit codes, spec diagnostics, determinism."""

import hashlib
import json
import re
import warnings

import pytest

from zmcsurf.cli import main
from zmcsurf.presets import PRESET_ORDER, preset_spec

from spec_cases import SPEC_CASES


def _run(args):
    return main(args)


def test_list_presets(capsys):
    assert _run(["--list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(PRESET_ORDER)


def test_generate_z2_outputs(tmp_path):
    out = tmp_path / "z2"
    assert _run(["generate", "--preset", "z2", "--out", str(out)]) == 0
    csv = (out / "surface.csv").read_text()
    assert csv.splitlines()[0] == "u,v,f0,f1,f2,sigma,L,M,N"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["route"] == "ko" and meta["preset"] == "z2"
    assert meta["grid"]["nu"] == 33


def test_classify_summary_counts(tmp_path):
    out = tmp_path / "z3"
    assert _run(["classify", "--preset", "z3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts"]["umbilic"] == 1
    assert summary["counts"]["negative"] == 0
    assert summary["umbilic_nodes"] == [["0", "0"]]


def test_classify_f1_negative_exactly_below_diagonal(tmp_path):
    out = tmp_path / "f1"
    assert _run(["classify", "--preset", "f1", "--out", str(out)]) == 0
    rows = (out / "classification.csv").read_text().splitlines()[1:]
    for row in rows:
        parts = row.split(",")
        u, v, kind = float(parts[0]), float(parts[1]), parts[2]
        if kind == "masked":
            continue
        y = (u - v) / 2
        if y < 0:
            assert kind == "negative"
        elif y > 0:
            assert kind == "positive"
        else:
            assert kind == "quasi_umbilic"


def test_classify_exa1_totally_quasi(tmp_path):
    out = tmp_path / "exA1"
    assert _run(["classify", "--preset", "exA1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["counts"]
    assert counts["quasi_umbilic"] == counts["total"] - counts["masked"]


def test_index_reports(tmp_path):
    out = tmp_path / "z3"
    assert _run(["index", "--preset", "z3", "--out", str(out)]) == 0
    report = json.loads((out / "index_report.json").read_text())
    assert report["predicted_indices"] == [-1, 1]
    assert sorted(report["measured_indices"].values()) == [-1, 1]
    assert report["match"] is True

    out5 = tmp_path / "z5"
    assert _run(["index", "--preset", "z5", "--out", str(out5)]) == 0
    report5 = json.loads((out5 / "index_report.json").read_text())
    assert report5["predicted_indices"] == [0]
    assert report5["match"] is True

    outs = tmp_path / "sm2"
    assert _run(["index", "--preset", "spacelike_m2", "--out", str(outs)]) == 0
    reps = json.loads((outs / "index_report.json").read_text())
    assert reps["measured_index"] == -1.0 and reps["match"] is True


@pytest.mark.parametrize(
    "g, omega, umbilics",
    [([0], [1], 17 * 17), ([0, 1], [0], 0), ([0, 1], [1], 0)],
    ids=["constant_g", "zero_omega", "no_zero_at_o"],
)
def test_spacelike_index_note_names_a_vanishing_hopf_coefficient(tmp_path, g, omega, umbilics):
    """Constant g or zero omega_hat make the Hopf coefficient -(omega_hat g')
    the zero polynomial: every immersed node is umbilic, none isolated."""
    spec = tmp_path / "spec.json"
    data = {"route": "kobayashi", "data": {"g": g, "omega_hat": omega},
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17}}
    spec.write_text(json.dumps(data))
    for cmd in ("classify", "index"):
        assert _run([cmd, "--spec", str(spec), "--out", str(tmp_path / cmd)]) == 0
    summary = json.loads((tmp_path / "classify" / "summary.json").read_text())
    assert summary["counts"]["umbilic"] == umbilics
    report = json.loads((tmp_path / "index" / "index_report.json").read_text())
    order = None if omega == [0] or g == [0] else 0
    assert report["hopf_zero_order"] == order
    zero = "is identically zero" if order is None else "has no zero at o"
    assert report["note"] == f"no isolated umbilic (Hopf coefficient {zero})"
    assert report["measured_index"] is None and report["match"] is None


def test_index_skips_measurement_when_not_admissible(tmp_path):
    out = tmp_path / "z2"
    assert _run(["index", "--preset", "z2", "--out", str(out)]) == 0
    report = json.loads((out / "index_report.json").read_text())
    assert report["measured_indices"] is None
    assert "skipped" in report["measured_info"]
    winding = (out / "winding.csv").read_text().splitlines()
    assert len(winding) == 1  # header only


def test_flow_svg_banner_for_non_admissible(tmp_path):
    out = tmp_path / "z2"
    assert _run(["flow", "--preset", "z2", "--out", str(out)]) == 0
    svg = (out / "flow.svg").read_text()
    assert "classification only" in svg
    assert "<polyline" not in svg

    out3 = tmp_path / "z3"
    assert _run(["flow", "--preset", "z3", "--out", str(out3)]) == 0
    svg3 = (out3 / "flow.svg").read_text()
    assert "<polyline" in svg3 and "classification only" not in svg3
    assert "chart_to_viewport" in svg3


def test_exit_code_2_on_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"route": "warp", "data": {}, "grid": {}}))
    code = _run(["generate", "--spec", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/route"


def test_exit_code_2_with_json_pointer_to_field(tmp_path, capsys):
    spec = {
        "route": "null",
        "data": {
            "g1": {"kind": "poly", "coeffs": [0, "1/oops"]},
            "g2": {"kind": "poly", "coeffs": [0]},
            "w1": {"kind": "poly", "coeffs": [1]},
            "w2": {"kind": "poly", "coeffs": [1]},
        },
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code = _run(["generate", "--spec", str(f), "--out", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/data/g1/coeffs/1"


def test_grid_resolution_floor(tmp_path, capsys):
    spec = {
        "route": "ko",
        "data": {"g": {"z_poly": [0, 0, 1]}, "omega_hat": {"z_poly": [1]}},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 8, "nv": 8},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert _run(["generate", "--spec", str(f), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/grid/nu"


def test_custom_spec_roundtrip(tmp_path):
    spec = {
        "route": "null",
        "data": {
            "g1": {"kind": "poly", "coeffs": [0, 1]},
            "g2": {"kind": "poly", "coeffs": [0, 0, 1]},
            "w1": {"kind": "poly", "coeffs": [1]},
            "w2": {"kind": "poly", "coeffs": [1]},
        },
        "grid": {
            "u_min": "-1/2",
            "u_max": "1/2",
            "v_min": "-1/2",
            "v_max": "1/2",
            "nu": 17,
            "nv": 17,
        },
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    out = tmp_path / "o"
    assert _run(["generate", "--spec", str(f), "--out", str(out)]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 1 + 17 * 17


def test_chart_route_classify(tmp_path):
    n = 16
    rows = lambda val: [[val] * n for _ in range(n)]
    spec = {
        "route": "chart",
        "data": {"sigma": rows(0.0), "L": rows(1.0), "M": rows(0.0), "N": rows(1.0)},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n},
    }
    f = tmp_path / "chart.json"
    f.write_text(json.dumps(spec))
    out = tmp_path / "o"
    assert _run(["classify", "--spec", str(f), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # L = N = 1, M = 0: D > 0 everywhere
    assert summary["counts"]["positive"] == n * n
    # generate is refused for raw charts
    assert _run(["generate", "--spec", str(f), "--out", str(out)]) == 2


def test_exit_code_3_on_winding_guard_failure(tmp_path, capsys):
    # flows exist near o but the eigenfield domain (where the rescaled
    # branch factors stay positive) is narrower than the winding circle
    spec = {
        "route": "null",
        "data": {
            "g1": {"kind": "poly", "coeffs": [0, 0, 0, 1]},
            "g2": {"kind": "poly", "coeffs": [0, 0, 0, 1]},
            "w1": {"kind": "poly", "coeffs": [1, 0, -25]},
            "w2": {"kind": "poly", "coeffs": [1, 0, -25]},
        },
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
        "analysis": {"winding_radius": 0.45},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code = _run(["index", "--spec", str(f), "--out", str(tmp_path / "o")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "undefined" in err["error"] or "vanished" in err["error"]


def _chart_spec_with_sigma(tmp_path, value):
    n = 16
    sigma = [[0.0] * n for _ in range(n)]
    sigma[3][5] = value
    rows = lambda val: [[val] * n for _ in range(n)]
    spec = {
        "route": "chart",
        "data": {"sigma": sigma, "L": rows(1.0), "M": rows(0.0), "N": rows(1.0)},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n},
    }
    f = tmp_path / "chart.json"
    f.write_text(json.dumps(spec))
    return f


@pytest.mark.parametrize("sigma", [-400.0, 1e308])
def test_exit_code_3_on_sigma_out_of_range(tmp_path, capsys, sigma):
    """classification.csv cannot print D where e^(4|sigma|) is not a finite
    double; the flow portrait needs only the kinds, so flow draws it."""
    f = _chart_spec_with_sigma(tmp_path, sigma)
    out = tmp_path / "classify"
    assert _run(["classify", "--spec", str(f), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["node"] == [3, 5] and "(3, 5)" in err["error"] and "sigma" in err["error"]
    assert not out.exists()
    assert _run(["flow", "--spec", str(f), "--out", str(tmp_path / "flow")]) == 0
    assert capsys.readouterr().err == ""


def test_sigma_guard_keeps_in_range_chart(tmp_path):
    f = _chart_spec_with_sigma(tmp_path, -177.0)
    assert _run(["classify", "--spec", str(f), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize(
    "sign, code", [(True, 2), (False, 2), (1.0, 2), (-1.0, 2), (0, 2), (1, 0), (-1, 0)]
)
def test_metric_sign_is_the_integer_one_or_minus_one(tmp_path, capsys, sign, code):
    """A chart's metric_sign is the JSON integer 1 or -1; booleans and
    floats are refused, as for every integer field of a spec."""
    f = _chart_spec_with_sigma(tmp_path, 0.0)
    spec = json.loads(f.read_text())
    spec["data"]["metric_sign"] = sign
    f.write_text(json.dumps(spec))
    assert _run(["classify", "--spec", str(f), "--out", str(tmp_path / "o")]) == code
    if code == 2:
        assert json.loads(capsys.readouterr().err)["pointer"] == "/data/metric_sign"


# classify alone: flow draws exA2 at 33^2 (test_exa2_flow_draws_its_kinds)
@pytest.mark.parametrize("cmd", ["classify"])
def test_exit_code_3_on_exa2_sigma_overflow(tmp_path, capsys, cmd):
    out = tmp_path / "o"
    assert _run([cmd, "--preset", "exA2", "--grid", "33", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["node"] == [0, 1]
    assert "(0, 1)" in err["error"] and "sigma" in err["error"]
    assert not out.exists()


def _svg_cell_fills(svg: str) -> list:
    """The fill of each background cell, in drawing order (i-major)."""
    return re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" fill="([^"]*)"/>',
                      svg)[1:]


@pytest.mark.parametrize("n", [33, 65])
def test_exa2_flow_draws_its_kinds(tmp_path, capsys, n):
    """exA2's sigma leaves the range of e^(4|sigma|) beside the null lines at
    33^2 and finer; the portrait needs only the kinds, so flow draws them."""
    from zmcsurf.geometry import classify_chart
    from zmcsurf.presets import preset_spec
    from zmcsurf.surfacespec import resolve
    from zmcsurf.svgplot import KIND_COLORS

    out = tmp_path / "o"
    assert _run(["flow", "--preset", "exA2", "--grid", str(n), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    svg = (out / "flow.svg").read_text()
    assert "classification only: branch orders not finite under the jet cap" in svg
    assert "<polyline" not in svg
    spec = preset_spec("exA2")
    spec["grid"].update(nu=n, nv=n)
    resolved = resolve(spec)
    kinds = classify_chart(resolved.patch.chart(resolved.grid)).kinds
    assert _svg_cell_fills(svg) == [KIND_COLORS[k] for k in kinds[:-1, :-1].ravel()]


def test_overflowing_raw_chart_squares_refuse_classify_not_flow(tmp_path, capsys):
    """L = 1e200 at node (3, 5): (L + N)^2 overflows, so D is inf there."""
    f = _chart_spec_with_sigma(tmp_path, 0.0)
    spec = json.loads(f.read_text())
    spec["data"]["L"][3][5] = 1e200
    f.write_text(json.dumps(spec))
    out = tmp_path / "classify"
    assert _run(["classify", "--spec", str(f), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "D or a direction is not a finite double at node (3, 5), "
                 "(u, v) = (-3/5, -1/3)", "node": [3, 5]}
    assert not out.exists()
    assert _run(["flow", "--spec", str(f), "--out", str(tmp_path / "flow")]) == 0
    assert capsys.readouterr().err == ""


def _last_row_overflows(tmp_path):
    """The raw chart of `_chart_spec_with_sigma` with L = 1e200 on its last
    row: D is inf on that row alone."""
    f = _chart_spec_with_sigma(tmp_path, 0.0)
    spec = json.loads(f.read_text())
    spec["data"]["L"][-1] = [1e200] * 16
    f.write_text(json.dumps(spec))
    return ["--spec", str(f)]


# A refusal found in the last grid row and one found in the first: each
# names its first node, row-major, and leaves no output directory
@pytest.mark.parametrize("source, err", [
    (_last_row_overflows, {
        "error": "D or a direction is not a finite double at node (15, 0), (u, v) = (1, -1)",
        "node": [15, 0]}),
    (lambda tmp_path: ["--preset", "exA2", "--grid", "65"], {
        "error": "e^(4|sigma|) is not a finite double at immersed node (0, 2), "
                 "(u, v) = (-4/5, -3/4)",
        "node": [0, 2]}),
], ids=["raw_chart_last_row", "exA2_65"])
def test_classify_refusal_in_the_first_or_last_row_leaves_no_output(tmp_path, capsys, source,
                                                                    err):
    out = tmp_path / "o"
    assert _run(["classify", *source(tmp_path), "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == err
    assert not out.exists()


def test_index_reuses_measured_windings(tmp_path, monkeypatch):
    from zmcsurf import cli, umbilic
    from zmcsurf.flow import winding_index
    from zmcsurf.outputs import winding_csv
    from zmcsurf.presets import load_preset

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return winding_index(*args, **kwargs)

    monkeypatch.setattr(umbilic, "winding_index", counted)
    monkeypatch.setattr(cli, "winding_index", counted)
    out = tmp_path / "z3"
    assert _run(["index", "--preset", "z3", "--out", str(out)]) == 0
    # two eigenfields, each at the radius and at half of it
    assert len(calls) == 4
    # the rows are those of a fresh measurement at the requested radius
    z3 = load_preset("z3")
    a = z3.analysis
    rows = [
        (f.name, "vector_field", winding_index(f, a.winding_radius, a.samples))
        for f in umbilic.eigenfields(z3.patch.hopf(), cap=a.jet_cap)
    ]
    assert (out / "winding.csv").read_text() == winding_csv(rows)


def test_grid_override(tmp_path):
    out = tmp_path / "o"
    assert _run(["generate", "--preset", "z2", "--out", str(out), "--grid", "17"]) == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 1 + 17 * 17


@pytest.mark.parametrize("preset", ["z3", "f2", "spacelike_m1"])
def test_byte_determinism(tmp_path, preset):
    for cmd in ("generate", "classify", "index", "flow"):
        a = tmp_path / f"{preset}_{cmd}_a"
        b = tmp_path / f"{preset}_{cmd}_b"
        assert _run([cmd, "--preset", preset, "--out", str(a)]) == 0
        assert _run([cmd, "--preset", preset, "--out", str(b)]) == 0
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes(), (preset, cmd, fa.name)


def _null_spec_with_g1(tmp_path, g1):
    spec = {
        "route": "null",
        "data": {
            "g1": {"kind": "poly", "coeffs": g1},
            "g2": {"kind": "poly", "coeffs": [0, 1]},
            "w1": {"kind": "poly", "coeffs": [1]},
            "w2": {"kind": "poly", "coeffs": [1]},
        },
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    return f


# g1 = 10^200 t: the metric factor and coordinates exceed the double range,
# but the base point is regular and its report stays in range;
# g1 = 10^400 t^3: so do the Hopf coefficients
@pytest.mark.parametrize(
    "g1, codes",
    [
        ([0, 10**200], {"generate": 3, "classify": 3, "index": 0, "flow": 3}),
        ([0, 0, 0, 10**400], {"generate": 3, "classify": 3, "index": 3, "flow": 3}),
    ],
    ids=["1e200", "1e400"],
)
def test_exit_code_3_on_values_outside_double_range(tmp_path, capsys, g1, codes):
    f = _null_spec_with_g1(tmp_path, g1)
    for cmd, code in codes.items():
        out = tmp_path / cmd
        assert _run([cmd, "--spec", str(f), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            continue
        assert "too large" in json.loads(err)["error"]
        assert not out.exists()


def _float_spec(tmp_path, route, data, n):
    spec = {"route": route, "data": data,
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    return f


_POLY = lambda *c: {"kind": "poly", "coeffs": list(c)}


# float coefficients overflow to inf or NaN without an exception: g = 2jz +
# 1e300 z^2 in the metric factor and forms, g1 = 1e160 t (with g2 = 0) in
# the coordinates alone, and the space-like conformal factor
# (1 - |g|^2)^2 |omega_hat|^2 = (1e150)^2 (1e100)^2 of g = 1e75 z
@pytest.mark.parametrize(
    "route, data, n, commands, error",
    [
        ("ko", {"g": {"z_poly": [0, [1, "2"], 1e300]}, "omega_hat": {"z_poly": [1]}}, 16,
         ("generate", "classify", "flow"),
         {"error": "the metric factor, L or M is not a finite double at immersed node "
                   "(0, 1), (u, v) = (-1, -13/15)", "node": [0, 1]}),
        ("null", {"g1": _POLY(0, 1e160), "g2": _POLY(0), "w1": _POLY(1), "w2": _POLY(1)}, 17,
         ("generate",),
         {"error": "a coordinate is not a finite double at node (0, 0), (u, v) = (-1, -1)",
          "node": [0, 0]}),
        ("kobayashi", {"g": [0, 1e75], "omega_hat": [1e100]}, 16,
         ("generate", "classify", "flow"),
         {"error": "the metric factor, L or M is not a finite double at immersed node "
                   "(0, 0), (u, v) = (-1, -1)", "node": [0, 0]}),
    ],
    ids=["ko_1e300", "null_1e160", "kobayashi_1e75"],
)
def test_exit_code_3_on_non_finite_float_values(tmp_path, capsys, route, data, n, commands,
                                                error):
    """The first non-finite immersed node, row-major, is named; no numpy
    warning is printed and no output directory is made."""
    f = _float_spec(tmp_path, route, data, n)
    for cmd in commands:
        out = tmp_path / cmd
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _run([cmd, "--spec", str(f), "--out", str(out)]) == 3
        assert caught == []
        assert json.loads(capsys.readouterr().err) == error
        assert not out.exists()


# sha256 of each file `generate` and `classify` write for z3 on the grid u in
# [0, 1], v in [0, 1 + 10^-30] at 17 x 19, where the null lattice's integer
# keys exceed int64 (test_chart_engine.HUGE_KEYS), recorded before the
# lattice ranks were formed with numpy
HUGE_KEYS_DIGESTS = {
    "metadata.json": "c676d80ba591bed0f711a794a719d40d7a45e89fb5bd5a2f445d101a798a12ba",
    "surface.csv": "65b8e67c34576784a96860ebadf4dfd3796cbb0128742fc9546d789f42087862",
    "classification.csv": "a88fce99ed8d8b178f5c59b12bf0cef5bb78defb13d000cbed19f21f2622ade1",
    "summary.json": "92639ce1c604c8105e291f304403f3e96313dc0ff6574654ce2479d6047170df",
}


def test_lattice_keys_beyond_int64_write_the_same_files(tmp_path):
    grid = {"u_min": 0, "u_max": 1, "v_min": 0, "v_max": "1" + "0" * 29 + "1/1" + "0" * 30,
            "nu": 17, "nv": 19}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**preset_spec("z3"), "grid": grid}))
    written = {}
    for cmd in ("generate", "classify"):
        assert _run([cmd, "--spec", str(path), "--out", str(tmp_path / cmd)]) == 0
        for f in (tmp_path / cmd).iterdir():
            written[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    assert written == HUGE_KEYS_DIGESTS


def _sources(tmp_path):
    """(name, CLI source arguments) of every preset and `spec_cases` entry."""
    for name in PRESET_ORDER:
        yield name, ["--preset", name]
    for name, (spec, args) in SPEC_CASES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        yield name, ["--spec", str(path), *args]


def test_generate_and_classify_raise_no_numpy_warning(tmp_path):
    """Every warning is an error here, in every command: the float passes of
    the chart (the certified node values among them, whose discarded lanes
    may overflow, and the Hopf signs, taken by comparison so that no NaN is
    cast) run under numpy's errstate, so none reaches the caller."""
    for name, source in _sources(tmp_path):
        for cmd in ("generate", "classify", "index", "flow"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = _run([cmd, *source, "--out", str(tmp_path / cmd / name)])
            assert code in (0, 2, 3), (name, cmd)


@pytest.mark.parametrize(
    "override, pointer",
    [
        (["--grid", "1026"], "/grid/nu"),
        (["--samples", "65537"], "/analysis/samples"),
        (["--jet-cap", "65"], "/analysis/jet_cap"),
    ],
)
def test_exit_code_2_above_input_limits(tmp_path, capsys, override, pointer):
    out = tmp_path / "o"
    assert _run(["index", "--preset", "z3", "--out", str(out), *override]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == pointer
    assert not out.exists()


def test_exit_code_2_on_boolean_jet_cap(tmp_path, capsys):
    spec = {
        "route": "ko",
        "data": {"g": {"z_poly": [0, 0, 0, 1]}, "omega_hat": {"z_poly": [1]}},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
        "analysis": {"jet_cap": True},
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert _run(["index", "--spec", str(f), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == "/analysis/jet_cap"


NAN, INF = float("nan"), float("inf")


def _with_grid_bound(spec, value):
    spec["grid"]["u_min"] = value


def _with_coefficient(spec, value):
    spec["data"]["g1"]["coeffs"] = [0, value]


def _with_radius(spec, value):
    spec["analysis"] = {"winding_radius": value}


def _with_seed(spec, value):
    spec["analysis"] = {"seeds": [[value, 0.5]]}


def _with_kobayashi_coefficient(spec, value):
    spec["route"] = "kobayashi"
    spec["data"] = {"g": [0, [0, value]], "omega_hat": [1]}


# Python's json writes nan/inf as NaN/Infinity and reads 1e400 as inf
@pytest.mark.parametrize("value", [NAN, INF, "1e400"], ids=["nan", "inf", "1e400"])
@pytest.mark.parametrize(
    "edit, pointer",
    [
        (_with_grid_bound, "/grid/u_min"),
        (_with_coefficient, "/data/g1/coeffs/1"),
        (_with_radius, "/analysis/winding_radius"),
        (_with_seed, "/analysis/seeds/0/0"),
        (_with_kobayashi_coefficient, "/data/g/1/1"),
    ],
    ids=["grid", "coefficient", "radius", "seed", "kobayashi"],
)
def test_exit_code_2_on_non_finite_numbers(tmp_path, capsys, value, edit, pointer):
    f = _null_spec_with_g1(tmp_path, [0, 1])
    spec = json.loads(f.read_text())
    edit(spec, "@" if value == "1e400" else value)
    f.write_text(json.dumps(spec).replace('"@"', "1e400"))
    for cmd in ("generate", "classify", "index", "flow"):
        out = tmp_path / cmd
        assert _run([cmd, "--spec", str(f), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["pointer"] == pointer
        assert "not a finite number" in err["error"]
        assert not out.exists()


def test_exit_code_2_on_nan_radius_override(tmp_path, capsys):
    out = tmp_path / "o"
    assert _run(["index", "--preset", "z3", "--out", str(out), "--radius", "nan"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/analysis/winding_radius"
    assert not out.exists()


def _write_digits(path):
    path.write_text('{"route": "null", "analysis": {"samples": ' + "9" * 5000 + "}}")


def _write_deep(path):
    path.write_text("[" * 100_000 + "]" * 100_000)


def _write_latin1(path):
    path.write_bytes(b'{"route": "caf\xe9"}')


def _make_directory(path):
    path.mkdir()


@pytest.mark.parametrize(
    "make, words",
    [
        (_write_digits, "not valid JSON"),
        (_write_deep, "not valid JSON"),
        (_write_latin1, "not UTF-8"),
        (_make_directory, "cannot be read"),
    ],
    ids=["long-integer", "deep-nesting", "not-utf8", "directory"],
)
def test_exit_code_2_on_unreadable_spec(tmp_path, capsys, make, words):
    spec = tmp_path / "spec.json"
    make(spec)
    out = tmp_path / "o"
    assert _run(["generate", "--spec", str(spec), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/spec"
    assert words in err["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "document, override, pointer",
    [
        ([1, 2], [], "/"),
        ("spec", [], "/"),
        ({"route": "ko", "grid": 5}, ["--grid", "17"], "/grid"),
        ({"route": "ko", "analysis": [1]}, ["--radius", "0.1"], "/analysis"),
    ],
    ids=["array", "string", "grid-override", "analysis-override"],
)
def test_exit_code_2_on_spec_that_is_not_an_object(
    tmp_path, capsys, document, override, pointer
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document))
    out = tmp_path / "o"
    assert _run(["index", "--spec", str(spec), "--out", str(out), *override]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["pointer"], err["error"]) == (pointer, "expected an object")
    assert not out.exists()


def test_long_rational_literal_is_echoed_short(tmp_path, capsys):
    f = _null_spec_with_g1(tmp_path, [0, "1" * 5000 + "/3"])
    out = tmp_path / "o"
    assert _run(["generate", "--spec", str(f), "--out", str(out)]) == 2
    stderr = capsys.readouterr().err
    assert len(stderr.encode()) < 1024
    err = json.loads(stderr)
    assert err["pointer"] == "/data/g1/coeffs/1"
    assert err["error"] == "not a rational literal: '" + "1" * 39 + "…"
    assert not out.exists()


def _with_poly_branch(spec, coeffs):
    spec["data"]["g1"]["coeffs"] = coeffs


def _with_z_poly(spec, coeffs):
    spec["route"] = "ko"
    spec["data"] = {"g": {"z_poly": coeffs}, "omega_hat": {"z_poly": [1]}}


def _with_kobayashi_array(spec, coeffs):
    spec["route"] = "kobayashi"
    spec["data"] = {"g": coeffs, "omega_hat": [1]}


@pytest.mark.parametrize(
    "edit, pointer",
    [
        (_with_poly_branch, "/data/g1/coeffs"),
        (_with_z_poly, "/data/g/z_poly"),
        (_with_kobayashi_array, "/data/g"),
    ],
    ids=["poly", "z_poly", "kobayashi"],
)
def test_polynomial_degree_limit(tmp_path, capsys, edit, pointer):
    """Degree 64 (65 coefficients) is accepted; degree 65 exits 2."""
    for degree, code in ((65, 2), (64, 0)):
        f = _null_spec_with_g1(tmp_path, [0, 1])
        spec = json.loads(f.read_text())
        edit(spec, [0] * degree + [1])
        f.write_text(json.dumps(spec))
        out = tmp_path / f"degree{degree}"
        assert _run(["classify", "--spec", str(f), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            continue
        assert json.loads(err) == {
            "error": "polynomial degree is limited to 64",
            "pointer": pointer,
        }
        assert not out.exists()


def test_exit_code_3_when_principal_directions_underflow(tmp_path, capsys):
    """g1 = g2 = 10^-170 t^2: the forms are so small that p*p + q*q of a
    principal direction underflows to 0, so classification.csv cannot print
    it; flow needs only the kinds."""
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(SPEC_CASES["tiny_directions"][0]))
    out = tmp_path / "classify"
    assert _run(["classify", "--spec", str(f), "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    i, j = err["node"]
    assert err["error"].startswith(f"D or a direction is not a finite double at node ({i}, {j})")
    assert not out.exists()
    assert _run(["flow", "--spec", str(f), "--out", str(tmp_path / "flow")]) == 0
    assert capsys.readouterr().err == ""


def _degenerate_base_spec(tmp_path, name, allow):
    """g1 = 1 + t or w1 = t on the null route, or g = 1 + z on the ko route."""
    f = _null_spec_with_g1(tmp_path, [1, 1] if name == "null_g1" else [0, 1])
    spec = json.loads(f.read_text())
    if name == "null_w1":
        spec["data"]["w1"]["coeffs"] = [0, 1]
    if name == "ko_g":
        spec["route"] = "ko"
        spec["data"] = {"g": {"z_poly": [1, 1]}, "omega_hat": {"z_poly": [1]}}
    if allow:
        spec["allow_degenerate_base"] = True
    f.write_text(json.dumps(spec))
    return f


DEGENERATE_BASE = {
    "null_g1": "g must vanish at the base point",
    "ko_g": "g must vanish at the base point",
    "null_w1": "omega_hat is null at the base point (surface degenerate there)",
}
COMMANDS = ("generate", "classify", "index", "flow")


@pytest.mark.parametrize("name", DEGENERATE_BASE)
def test_exit_code_2_on_degenerate_base_point(tmp_path, capsys, name):
    f = _degenerate_base_spec(tmp_path, name, allow=False)
    for cmd in COMMANDS:
        out = tmp_path / cmd
        assert _run([cmd, "--spec", str(f), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": DEGENERATE_BASE[name]
            + '; "allow_degenerate_base": true accepts such data',
            "pointer": "/data",
        }
        assert not out.exists()


@pytest.mark.parametrize("name", DEGENERATE_BASE)
def test_allow_degenerate_base_accepts_the_data(tmp_path, capsys, name):
    f = _degenerate_base_spec(tmp_path, name, allow=True)
    for cmd in COMMANDS:
        assert _run([cmd, "--spec", str(f), "--out", str(tmp_path / cmd)]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["false", 0, 1, None], ids=["string", "zero", "one", "null"])
def test_allow_degenerate_base_takes_only_json_booleans(tmp_path, capsys, value):
    """w1 = t is degenerate at the base point; only JSON true accepts it, and
    a value that is not a boolean is refused whatever its truth value."""
    f = _degenerate_base_spec(tmp_path, "null_w1", allow=False)
    spec = json.loads(f.read_text())
    spec["allow_degenerate_base"] = value
    f.write_text(json.dumps(spec))
    for cmd in COMMANDS:
        out = tmp_path / cmd
        assert _run([cmd, "--spec", str(f), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"expected true or false, got {value!r}",
            "pointer": "/allow_degenerate_base",
        }
        assert not out.exists()


def test_allow_degenerate_base_false_is_the_default(tmp_path, capsys):
    f = _degenerate_base_spec(tmp_path, "null_w1", allow=False)
    spec = json.loads(f.read_text())
    spec["allow_degenerate_base"] = False
    f.write_text(json.dumps(spec))
    assert _run(["classify", "--spec", str(f), "--out", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == "/data"
