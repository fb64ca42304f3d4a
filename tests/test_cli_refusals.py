"""Refusals: each exits 2 with a JSON diagnostic and makes no output.

An `--out` that cannot be written (an existing file, a path under a file,
or an output file name that is an existing directory) is a spec error at
/out, as an unreadable spec file is one at /spec; a refused second file
leaves no first file behind.  A spec number that rounds to a double
outside its range is refused at its own pointer.  The spec refusals below
are each pinned by exit code, pointer and the absence of the output
directory, for all four commands.
"""

import json

import pytest

from zmcsurf.cli import main
from zmcsurf.presets import preset_spec

from spec_cases import SPEC_CASES

COMMANDS = ("generate", "classify", "index", "flow")
FIRST_FILE = {
    "generate": "surface.csv",
    "classify": "classification.csv",
    "index": "index_report.json",
    "flow": "flow.svg",
}
Z3 = ["--preset", "z3", "--grid", "17"]


def _refused(capsys, argv, pointer):
    """Run argv; assert exit 2 with a JSON diagnostic at `pointer`."""
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == pointer, err
    return err


# ---------------------------------------------------------------------------
# an unusable --out
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cmd", COMMANDS)
def test_out_that_is_an_existing_file_is_refused_at_out(tmp_path, capsys, cmd):
    out = tmp_path / "taken"
    out.write_text("keep me")
    err = _refused(capsys, [cmd, *Z3, "--out", str(out)], "/out")
    assert str(out) in err["error"]
    assert out.read_text() == "keep me"


@pytest.mark.parametrize("cmd", COMMANDS)
def test_out_under_a_file_is_refused_at_out(tmp_path, capsys, cmd):
    (tmp_path / "taken").write_text("keep me")
    out = tmp_path / "taken" / "sub"
    _refused(capsys, [cmd, *Z3, "--out", str(out)], "/out")
    assert (tmp_path / "taken").read_text() == "keep me"


@pytest.mark.parametrize("cmd", COMMANDS)
def test_output_file_name_that_is_a_directory_is_refused_at_out(tmp_path, capsys, cmd):
    out = tmp_path / "o"
    (out / FIRST_FILE[cmd]).mkdir(parents=True)
    err = _refused(capsys, [cmd, *Z3, "--out", str(out)], "/out")
    assert FIRST_FILE[cmd] in err["error"]
    assert [p.name for p in out.iterdir()] == [FIRST_FILE[cmd]]


SECOND_FILE = {"generate": "metadata.json", "classify": "summary.json", "index": "winding.csv"}


@pytest.mark.parametrize("cmd", sorted(SECOND_FILE))
@pytest.mark.parametrize("first", ["missing", "existing"])
def test_refused_second_file_leaves_the_first_as_it_was(tmp_path, capsys, cmd, first):
    """Every file is opened before any is written: the command neither
    creates nor truncates its first file when its second is refused."""
    out = tmp_path / "o"
    (out / SECOND_FILE[cmd]).mkdir(parents=True)
    if first == "existing":
        (out / FIRST_FILE[cmd]).write_text("keep me")
    err = _refused(capsys, [cmd, *Z3, "--out", str(out)], "/out")
    assert SECOND_FILE[cmd] in err["error"]
    names = {SECOND_FILE[cmd]} | ({FIRST_FILE[cmd]} if first == "existing" else set())
    assert {p.name for p in out.iterdir()} == names
    if first == "existing":
        assert (out / FIRST_FILE[cmd]).read_text() == "keep me"


# ---------------------------------------------------------------------------
# spec refusals
# ---------------------------------------------------------------------------


def _grid(n=17):
    return {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n}


def _ko(omega_hat):
    return {"route": "ko", "data": {"g": {"z_poly": [0, 0, 1]}, "omega_hat": omega_hat},
            "grid": _grid()}


def _chart(rows=17, short_row=None):
    sigma = [[0.0] * 17 for _ in range(rows)]
    if short_row is not None:
        sigma[short_row] = sigma[short_row][:-1]
    full = [[1.0] * 17 for _ in range(17)]
    return {"route": "chart", "data": {"sigma": sigma, "L": full, "M": full, "N": full},
            "grid": _grid()}


def _z3(edit):
    spec = preset_spec("z3")
    edit(spec)
    return spec


def _null_without_w2():
    spec = preset_spec("plane")
    del spec["data"]["w2"]
    return spec


SPEC_REFUSALS = {
    "two_parafn_forms": (
        _ko({"z_poly": [1], "branches": {"plus": {"kind": "poly", "coeffs": [1]},
                                          "minus": {"kind": "poly", "coeffs": [1]}}}),
        "/data/omega_hat"),
    "wedge_of_one_branch": (_ko({"wedge": [{"kind": "exp_flat"}]}), "/data/omega_hat/wedge"),
    "chart_16_of_17_rows": (_chart(rows=16), "/data/sigma"),
    "chart_short_row": (_chart(short_row=5), "/data/sigma/5"),
    "missing_v_max": (_z3(lambda s: s["grid"].pop("v_max")), "/grid/v_max"),
    "empty_u_range": (_z3(lambda s: s["grid"].update(u_max=s["grid"]["u_min"])), "/grid"),
    "zero_winding_radius": (_z3(lambda s: s.update(analysis={"winding_radius": 0})),
                            "/analysis/winding_radius"),
    "null_without_w2": (_null_without_w2(), "/data/w2"),
    # an absent analysis takes the defaults; a null one is refused, overrides or not
    "null_analysis": (_z3(lambda s: s.update(analysis=None)), "/analysis"),
    "null_analysis_with_radius": (_z3(lambda s: s.update(analysis=None)), "/analysis",
                                  "--radius", "0.05"),
    # numbers that round to a double outside its range
    "huge_winding_radius": (SPEC_CASES["huge_winding_radius"][0], "/analysis/winding_radius"),
    "huge_kobayashi_coefficient": (SPEC_CASES["huge_kobayashi"][0], "/data/g/1"),
    "huge_chart_entry": (SPEC_CASES["huge_chart_entry"][0], "/data/sigma/2/3"),
    "tiny_winding_radius": (SPEC_CASES["tiny_winding_radius"][0], "/analysis/winding_radius"),
}


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("name", sorted(SPEC_REFUSALS))
def test_spec_refusal_exits_2_at_its_pointer_before_any_output(tmp_path, capsys, cmd, name):
    spec, pointer, *options = SPEC_REFUSALS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    _refused(capsys, [cmd, "--spec", str(path), *options, "--out", str(out)], pointer)
    assert not out.exists()


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize(
    "source, pointer, words",
    [
        (["--preset", "z3", "--spec", "spec.json"], "/", "not both"),
        ([], "/", "required"),
        (["--preset", "nope"], "/preset", "unknown preset"),
        (["--spec", "missing.json"], "/spec", "spec file not found"),
        (["--preset", "z3", "--radius", "0"], "/analysis/winding_radius", "positive"),
    ],
    ids=["preset_and_spec", "neither", "unknown_preset", "missing_spec", "zero_radius"],
)
def test_source_refusal_exits_2_before_any_output(
    tmp_path, capsys, monkeypatch, cmd, source, pointer, words
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(preset_spec("z3")))
    out = tmp_path / "o"
    err = _refused(capsys, [cmd, *source, "--out", str(out)], pointer)
    assert words in err["error"]
    assert not out.exists()


OUTSIDE = "1000000000000000000000000000000000000000\u2026 is outside the double range"
OUT_OF_RANGE = {"huge_winding_radius": OUTSIDE, "tiny_winding_radius": "radius rounds to 0.0",
                "huge_kobayashi": OUTSIDE, "huge_chart_entry": OUTSIDE}


@pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
def test_out_of_range_number_is_named(tmp_path, capsys, name):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_CASES[name][0]))
    assert main(["classify", "--spec", str(path), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == OUT_OF_RANGE[name]


def test_no_subcommand_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("usage: zmcsurf")


NEAR_ONE = "1000000000000000000000000000001/1000000000000000000000000000000"
TINY = "1/1" + "0" * 400


@pytest.mark.parametrize(
    "axis, low, high", [("u", 1, NEAR_ONE), ("v", 1, NEAR_ONE), ("u", "-" + TINY, TINY)],
    ids=["u_near_one", "v_near_one", "u_within_1e-400"])
def test_flow_refuses_a_grid_of_zero_float_width(tmp_path, capsys, axis, low, high):
    """Bounds that are distinct rationals but one double leave flow.svg no
    width to place its nodes in: `flow` exits 2 at /grid before any output.
    The commands that place no node are left alone: near 1 they exit 0."""
    spec = _z3(lambda s: s["grid"].update({f"{axis}_min": low, f"{axis}_max": high},
                                          nu=17, nv=17))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for cmd in COMMANDS:
        out = tmp_path / cmd
        argv = [cmd, "--spec", str(path), "--out", str(out)]
        if cmd != "flow":
            assert low == "-" + TINY or main(argv) == 0, cmd
            continue
        err = _refused(capsys, argv, "/grid")
        assert f"{axis}_min and {axis}_max" in err["error"]
        assert not out.exists()
