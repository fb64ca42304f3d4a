"""The curvature-line loops against their scalar references, bit for bit.

`flow.streamlines` and `flow._accumulate` call the field's evaluator
directly, the eigenfields and the space-like line field are flat
closures, and `svgplot.render_svg` formats pixel coordinates from arrays.
The oracles in `oracles` are the scalar loops these replaced.  Over every
kind of field the program draws, and hand fields that stop a march, refuse
a sample, vanish at a seed or on a winding circle, or return ints or
np.float64, the polylines (`np.array_equal`), the winding results and the
SVG text must be the same.  The hand stop fields stop marches of both
kinds at a raise and at a refused sample in every RK4 stage after the
first, and at NaN, infinite and too-small samples in mid-march
(`test_the_stop_cases_cover_every_stop`).
"""

import dataclasses
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
from zmcsurf.flow import (LINE_FIELD, VECTOR_FIELD, FlowField, WindingError, streamlines,
                          winding_index)
from zmcsurf.geometry import GridSpec
from zmcsurf.presets import load_preset, preset_spec
from zmcsurf.surfacespec import DEFAULT_SEEDS, resolve
from zmcsurf.svgplot import KIND_COLORS, ChartMap, render_svg
from zmcsurf.umbilic import eigenfields

SQUARE = GridSpec(-1, 1, -1, 1, 33, 33)


def _eigen(spec):
    return lambda: (eigenfields(resolve(spec).patch.hopf()), SQUARE)


def _spacelike(name):
    def build():
        patch = load_preset(name).patch
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


def _right_angle_behind(u, v):
    # `_right_angle` reflected in u: backward marches (sign -1) read the zero
    # dot product, which leaves the sample as the sign of the march's first
    # step does not
    return (1.0, 0.0) if u > -0.7 else (0.0, 1.0)


def _half_angle(u, v):
    theta = math.atan2(v, u)
    return (math.cos(theta / 2), math.sin(theta / 2))


def _kink(stop):
    """A field that `stop` ends where v > 1e-3 or u < -0.80125.

    From a seed on v = 0 the march runs along u; the first stage point at
    u >= 0.7 reads (0, 1), so the third stage, half a step up, is the first
    to reach v > 1e-3.  The other seeds and u < -0.80125 end marches at the
    other stages."""

    def ev(u, v):
        if v > 1e-3 or u < -0.80125:
            return stop(u, v)
        return (1.0, 0.0) if u < 0.7 else (0.0, 1.0)

    return ev


def _raise(u, v):
    raise (ZeroDivisionError if v > 1e-3 else FloatingPointError)(f"undefined at {u}, {v}")


def _non_finite(u, v):
    # a rotation whose seeds off the axes turn into NaN, infinite and
    # too-small samples; a norm of exactly 1e-10 is kept
    if u > 0.5:
        return (math.nan, 1.0)
    if v > 0.5:
        return (0.0, -math.inf)
    if u < -0.5:
        return (math.nextafter(1e-10, 0.0), 0.0)
    if v < -0.5:
        return (0.0, 1e-10)
    return (-v, u)


def _float64(f):
    return lambda u, v: tuple(map(np.float64, f(u, v)))


def _both_kinds(*evaluators):
    return _hand(*(FlowField(ev, kind=kind) for ev in evaluators
                   for kind in (VECTOR_FIELD, LINE_FIELD)))


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
    "right_angle_behind": _hand(FlowField(_right_angle_behind, kind=LINE_FIELD)),
    "stop_stages": _both_kinds(_kink(_raise)),
    "non_finite": _both_kinds(_non_finite, _kink(lambda u, v: (math.nan, 0.0))),
    "float64": _both_kinds(
        _float64(lambda u, v: (-v, u)), _float64(_kink(_raise)), _float64(_non_finite)),
}


BUILT_IN = ("z3", "z5", "deg26", "null_fraction", "null_float",
            "spacelike_m1", "spacelike_m2", "spacelike_m3")


@pytest.mark.parametrize("name", BUILT_IN)
def test_winding_a_built_in_field_calls_no_scalar_evaluator(name):
    """A built-in field winds a circle through its array form alone."""
    fields, _ = CASES[name]()
    for field in fields:
        calls = []
        counted = dataclasses.replace(
            field, evaluator=lambda u, v, ev=field.evaluator: calls.append(u) or ev(u, v))
        assert winding_index(counted).index == winding_index(field).index
        assert calls == [], field.name


def _winding(field, radius, monkeypatch, accumulate):
    with monkeypatch.context() as m:
        m.setattr(flow, "_accumulate", accumulate)
        try:
            return winding_index(field, radius=radius, samples=720)
        except WindingError as exc:
            return str(exc)


def _kinds(grid):
    """Every kind code, in a pattern over the grid."""
    n = len(KIND_COLORS)
    return np.array(
        [[(i * 7 + j) % n for j in range(grid.nv)] for i in range(grid.nu)], np.int8
    )


def _marches(grid):
    bounds = (float(grid.u_min), float(grid.u_max), float(grid.v_min), float(grid.v_max))
    return (dict(step=5e-3, max_len=2.4, bounds=bounds), dict(step=2e-2, max_len=1.5, bounds=None))


def _pixel_points(grid):
    """Points whose pixels print as "-0.000" (a small negative), "0.062"
    (0.0625, an exact binary tie) and in 15 digits."""
    cmap = ChartMap(grid.u_min, grid.u_max, grid.v_min, grid.v_max)
    u = (0.0625 - cmap.tx) / cmap.sx
    while cmap.sx * u + cmap.tx != 0.0625:
        u = math.nextafter(u, math.inf if cmap.sx * u + cmap.tx < 0.0625 else -math.inf)
    v = (-1e-4 - cmap.ty) / cmap.sy
    assert -5e-4 < cmap.sy * v + cmap.ty < 0.0
    return [(u, v), (1e12, -1e12), (u, 0.5)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_loops_are_bitwise_the_scalar_reference(name, monkeypatch):
    fields, grid = CASES[name]()
    families = []
    for field in fields:
        for kwargs in _marches(grid):
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
    families.append([np.array([]), np.array([[0.25, 0.5]]),
                     [(0.1, 0.2), (Fraction(1, 3), -1), (0, 0.75)], _pixel_points(grid)])
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
    assert sum('<polyline points="0.062,-0.000 ' in line for line in got) == 1
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


def _stops(field, kwargs):
    """(how, stage, whole steps) of each march of the reference that a
    sample stopped: how is "raise", "nan", "inf" or "small"."""
    stops = []
    for seed in DEFAULT_SEEDS:
        log = []

        def ev(u, v):
            try:
                p, q = field.evaluator(u, v)
            except (ValueError, ZeroDivisionError, FloatingPointError):
                log.append(((u, v), "raise"))
                raise
            n = math.hypot(p, q)
            how = "nan" if n != n else "inf" if n == math.inf else "small" if n < 1e-10 else ""
            log.append(((u, v), how))
            return p, q

        oracles.reference_streamlines(dataclasses.replace(field, evaluator=ev), [seed], **kwargs)
        # each march starts at the seed
        starts = [k for k, (point, _) in enumerate(log) if point == seed] + [len(log)]
        for first, end in zip(starts, starts[1:]):
            if log[end - 1][1]:
                stops.append((log[end - 1][1], (end - 1 - first) % 4 + 1, (end - 1 - first) // 4))
    return stops


def test_the_stop_cases_cover_every_stop():
    """Marches of both kinds stop at a raise and at a refused sample in RK4
    stages 2, 3 and 4, and at a NaN, an infinite and a too-small sample
    after a whole step."""
    for kind in (VECTOR_FIELD, LINE_FIELD):
        stops = set()
        for name in ("stop_stages", "non_finite", "float64"):
            fields, grid = CASES[name]()
            for field in fields:
                if field.kind == kind:
                    for kwargs in _marches(grid):
                        stops.update(_stops(field, kwargs))
        assert {stage for how, stage, _ in stops if how == "raise"} >= {2, 3, 4}, kind
        assert {stage for how, stage, _ in stops if how != "raise"} >= {2, 3, 4}, kind
        assert {how for how, _, steps in stops if steps > 0} == {"raise", "nan", "inf", "small"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_march_calls_the_evaluator_as_the_reference_does(name):
    """The same calls at the same points, in the same order: no stage is
    evaluated after a stop."""
    fields, grid = CASES[name]()
    for field in fields:
        for kwargs in _marches(grid):
            calls = []
            for march in (streamlines, oracles.reference_streamlines):
                log = []
                logged = lambda u, v, ev=field.evaluator, log=log: log.append((u, v)) or ev(u, v)
                march(dataclasses.replace(field, evaluator=logged), DEFAULT_SEEDS, **kwargs)
                calls.append(log)
            assert calls[0] == calls[1], field.name


@pytest.mark.parametrize("kind", (VECTOR_FIELD, LINE_FIELD))
def test_an_evaluator_overflow_propagates_as_in_the_reference(kind):
    """OverflowError ends no march quietly: it leaves both loops with the
    same message, here from a stage of a march some steps past its seed."""

    def ev(u, v):
        return (-v, u) if u < 0.62 else (-v, math.exp(2e3 * u))

    messages = []
    for march in (streamlines, oracles.reference_streamlines):
        with pytest.raises(OverflowError) as exc:
            march(FlowField(ev, kind=kind), DEFAULT_SEEDS[1:], step=5e-3, max_len=2.4)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "math range error"
