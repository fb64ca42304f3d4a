"""The curvature-line loops against their scalar references, bit for bit.

`flow.streamlines` and `flow._accumulate` call the field's evaluator
directly, the eigenfields and the space-like line field are flat
closures, and `svgplot.render_svg` formats pixel coordinates from arrays.
The oracles in `oracles` are the scalar loops these replaced.  Over every
kind of field the program draws, and hand fields that stop a march, refuse
a sample, vanish at a seed or on a winding circle, or return ints, the
polylines (`np.array_equal`), the winding results and the SVG text must be
the same.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from test_chart_engine import NON_SQUARE
from test_compiled_fields import _null_spec
from zmcsurf import flow
from zmcsurf.cli import main
from zmcsurf.flow import LINE_FIELD, FlowField, WindingError, streamlines, winding_index
from zmcsurf.geometry import GridSpec
from zmcsurf.presets import load_preset, preset_spec
from zmcsurf.surfacespec import DEFAULT_SEEDS, resolve
from zmcsurf.svgplot import KIND_COLORS, render_svg
from zmcsurf.umbilic import eigenfields

SQUARE = GridSpec(-1, 1, -1, 1, 33, 33)


def _eigen(spec):
    return lambda: (eigenfields(resolve(spec).patch.hopf()), SQUARE)


def _spacelike(name):
    def build():
        patch = load_preset(name).spacelike_patch
        field = patch.principal_line_field()
        ref = oracles.reference_principal_line_field(patch)
        rng = np.random.default_rng(3)
        for u, v in rng.uniform(-1.0, 1.0, size=(500, 2)).tolist() + [[0.0, 0.0]]:
            assert [x.hex() for x in field(u, v)] == [x.hex() for x in ref(u, v)]
        return [field], SQUARE

    return build


def _hand(*fields, grid=SQUARE):
    return lambda: (list(fields), grid)


def _half_plane(u, v):
    if u > 0.3:
        raise ValueError("undefined for u > 0.3")
    return (-v, u)


def _stall(u, v):
    # from the seed (0.6, 0) the RK4 stages read (1, 0), (-1, 0), (1, 0),
    # (-1, 0): a zero step, which ends the march
    return (1.0, 0.0) if u <= 0.601 else (-1.0, 0.0)


def _right_angle(u, v):
    # a line field that turns by exactly 90 degrees: the orientation test
    # reads a zero dot product there
    return (1.0, 0.0) if u < 0.7 else (0.0, 1.0)


def _half_angle(u, v):
    theta = math.atan2(v, u)
    return (math.cos(theta / 2), math.sin(theta / 2))


CASES = {
    "z3": _eigen(preset_spec("z3")),
    "z5": _eigen(preset_spec("z5")),
    "deg26": _eigen(preset_spec("deg26")),
    "null_fraction": _eigen(_null_spec(5, (2, 4), False)),
    "null_float": _eigen(_null_spec(6, (4, 2), True)),
    "spacelike_m1": _spacelike("spacelike_m1"),
    "spacelike_m2": _spacelike("spacelike_m2"),
    "spacelike_m3": _spacelike("spacelike_m3"),
    "rotation": _hand(FlowField(lambda u, v: (-v, u), name="rotation")),
    "half_plane": _hand(FlowField(_half_plane)),
    # vanishes at the first default seed: a one-point polyline
    "zero_at_seed": _hand(FlowField(lambda u, v: (u - 0.6, v))),
    "ints": _hand(FlowField(lambda u, v: (2, -1)), FlowField(lambda u, v: (int(u > 0), 1))),
    "stall": _hand(FlowField(_stall)),
    "line_field": _hand(
        FlowField(_half_angle, kind=LINE_FIELD),
        FlowField(_right_angle, kind=LINE_FIELD),
        grid=NON_SQUARE,
    ),
}


def _winding(field, radius, monkeypatch, accumulate):
    with monkeypatch.context() as m:
        m.setattr(flow, "_accumulate", accumulate)
        try:
            return winding_index(field, radius=radius, samples=720)
        except WindingError as exc:
            return str(exc)


def _kinds(grid):
    names = sorted(KIND_COLORS) + ["unknown"]
    return np.array(
        [[names[(i * 7 + j) % len(names)] for j in range(grid.nv)] for i in range(grid.nu)]
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_loops_are_bitwise_the_scalar_reference(name, monkeypatch):
    fields, grid = CASES[name]()
    bounds = (float(grid.u_min), float(grid.u_max), float(grid.v_min), float(grid.v_max))
    families = []
    for field in fields:
        for kwargs in (
            dict(step=5e-3, max_len=2.4, bounds=bounds),
            dict(step=2e-2, max_len=1.5, bounds=None),
        ):
            got = streamlines(field, DEFAULT_SEEDS, **kwargs)
            want = oracles.reference_streamlines(field, DEFAULT_SEEDS, **kwargs)
            assert len(got) == len(want) == len(DEFAULT_SEEDS)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            if kwargs["bounds"] is not None:
                families.append(got)
        for radius in (0.1, 0.05, 0.5):
            new = _winding(field, radius, monkeypatch, flow._accumulate)
            ref = _winding(field, radius, monkeypatch, oracles.reference_accumulate)
            assert new == ref, (field.name, radius)
    # empty, one-point and list polylines beside the streamlines
    families.append(
        [np.array([]), np.array([[0.25, 0.5]]), [(0.1, 0.2), (Fraction(1, 3), -1), (0, 0.75)]]
    )
    kwargs = dict(
        marks=[(0.0, 0.0), (Fraction(1, 2), -1)],
        banner="classification only: test" if name == "half_plane" else "",
        extra_metadata={"case": name},
    )
    kinds = _kinds(grid)
    got = render_svg(grid, kinds, families, **kwargs).splitlines()
    want = oracles.reference_render_svg(grid, kinds, families, **kwargs).splitlines()
    # line by line: a diff of two whole documents is slow to report
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b, k


def test_zero_on_circle_retries_as_the_reference(monkeypatch):
    # the field vanishes at (0.1, 0), the first sample of the first circle
    field = FlowField(lambda u, v: (-v, u - 0.1))
    with pytest.raises(flow._ZeroOnCircle):
        flow._accumulate(field, 0.1, 720)
    new = _winding(field, 0.1, monkeypatch, flow._accumulate)
    assert new == _winding(field, 0.1, monkeypatch, oracles.reference_accumulate)
    assert new.radius == 0.1 * 1.0037 and new.index == 1


def test_power_overflow_in_a_march_and_the_far_seed_spec_error(tmp_path, capsys):
    """x**n1 raises OverflowError far from the umbilic; the march lets it
    through, as the reference does.  The CLI refuses such a seed, outside
    the grid, as a spec error before any march."""
    (x1, _), _ = CASES["z5"]()
    for march in (streamlines, oracles.reference_streamlines):
        with pytest.raises(OverflowError):
            march(x1, [(1e200, 1e200)])
    spec = preset_spec("z5")
    spec["analysis"] = {"seeds": [[1e200, 1e200]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["flow", "--spec", str(path), "--grid", "17", "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    assert json.loads(capsys.readouterr().err)["pointer"] == "/analysis/seeds/0"
