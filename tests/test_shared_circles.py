"""Windings that share their sampling circles, and patches that build their
primitives only when the coordinates need them.

`umbilic.measure_indices` winds X1 and X2 at the radius and at half of it
through one `flow.Circles`: X2's array form is X1's `Swapped`, so each
circle's field values and the cos and sin of its sample angles are formed
once.  That is sound only because X2 is X1 with its components exchanged,
bit for bit, and each shared winding must equal the winding of the field
on its own, on every retry path.  `ImmersionPatch.comps_x`/`comps_y` are
built on first use, which only the coordinates make.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from test_circle_arrays import _rotating, _wind, _zero_at_first_sample
from test_compiled_fields import HOPF, _null_spec
from zmcsurf import cli, flow, umbilic
from zmcsurf.cli import main
from zmcsurf.flow import Circles, FlowField, Swapped, perpendicular
from zmcsurf.presets import load_preset
from zmcsurf.surfacespec import resolve
from zmcsurf.umbilic import analyze_point, eigenfields, measure_indices

ADMISSIBLE = [name for name in sorted(HOPF) if name not in ("integer", "narrow_domain")]


def _seeded_circles(seed, count=6, samples=512):
    """Points of `count` circles about the origin with seeded radii."""
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(samples) / samples
    radii = rng.uniform(1e-3, 0.9, count)
    u = np.concatenate([r * np.cos(t) for r in radii])
    v = np.concatenate([r * np.sin(t) for r in radii])
    return u, v


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("name", sorted(HOPF))
def test_x2_is_x1_with_the_components_swapped(name):
    """Both forms, and the reference X2 of `tests/oracles.py`, bit for bit."""
    qhat = HOPF[name]()
    x1, x2 = eigenfields(qhat)
    _, ref2 = oracles.reference_eigenfields(qhat)
    assert x2.arrays == Swapped(x1.arrays)
    u, v = _seeded_circles(sum(map(ord, name)))
    p, q = x1.arrays(u, v)
    for k, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        try:
            want = _hex(ref2(a, b))
        except ValueError:
            assert math.isnan(p[k]) and math.isnan(q[k])
            with pytest.raises(ValueError):
                x2.evaluator(a, b)
            continue
        assert _hex(x2.evaluator(a, b)) == _hex(x1.evaluator(a, b)[::-1]) == want, (a, b)
        assert _hex((q[k], p[k])) == want, (a, b)


def _shared(fields, radius, samples):
    """X1 at radius and radius / 2, then X2, sharing one `Circles`."""
    shared = Circles().share(*fields)
    return [_wind(f, r, samples) for f in shared for r in (radius, radius / 2.0)]


def _alone(fields, radius, samples):
    return [_wind(f, r, samples) for f in fields for r in (radius, radius / 2.0)]


def _pair(field):
    """The field and its perpendicular, whose array form is `Swapped`."""
    return [field, perpendicular(field)]


CASES = {
    **{name: (lambda name=name: eigenfields(HOPF[name]()), 0.1, 2048) for name in ADMISSIBLE},
    "resample": (lambda: _pair(_rotating(200)), 0.1, 720),
    "zero_on_circle": (lambda: _pair(_zero_at_first_sample()), 0.2, 720),
    "overflow": (lambda: eigenfields(HOPF["z5"]()), 1e200, 2048),
    "chunks": (lambda: eigenfields(HOPF["deg26"]()), 0.1, 2 * flow._CHUNK + 808),
    "undefined": (lambda: eigenfields(HOPF["narrow_domain"]()), 1.0, 720),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_shared_windings_are_the_windings_alone(name):
    make, radius, samples = CASES[name]
    got = _shared(make(), radius, samples)
    assert got == _alone(make(), radius, samples)
    if name == "resample":
        assert [w.samples for w in got] == [4 * samples] * 4
    elif name == "zero_on_circle":
        # g' vanishes at (0.1, 0), the first sample of the circle of radius 0.1
        assert [w.radius for w in got] == [0.2, 0.1 * 1.0037] * 2
    elif name == "overflow":
        assert got == [repr(OverflowError(34, "Numerical result out of range"))] * 4
    elif name == "undefined":
        assert all(isinstance(w, str) and "WindingError" in w for w in got)
    else:
        assert all(w.samples == samples and w.radius in (radius, radius / 2.0) for w in got)


def test_x2_drops_each_pass_it_reads():
    """X1's two circles are held for X2 and dropped once X2 has read them."""
    x1, x2 = Circles().share(*eigenfields(HOPF["z5"]()))
    for f in (x1, x2):
        for r in (0.1, 0.05):
            _wind(f, r, 2048)
    assert x1.circles.passes == {} and sorted(x1.circles.units) == [2048]


def test_an_overflowing_shared_circle_calls_no_evaluator():
    """The array pass raises for X1 and again for X2, whose base pass was
    never stored; neither field's evaluator runs."""
    calls = []

    def counted(field):
        ev = field.evaluator
        return dataclasses.replace(field, evaluator=lambda u, v: calls.append(field.name)
                                   or ev(u, v))

    x1, x2 = Circles().share(*map(counted, eigenfields(HOPF["z5"]())))
    for f in (x1, x2):
        with pytest.raises(OverflowError):
            flow._accumulate(f, 1e200, 720)
    assert calls == [] and x1.circles.passes == {}


def _counting(monkeypatch):
    """Count the calls of X1's array form and of flow's cos, sin and atan2."""
    counts = {"arrays": 0, "cos": 0, "sin": 0, "atan2": 0}
    each = flow.each

    def counted_each(fn, *args):
        if fn.__name__ in counts:
            counts[fn.__name__] += 1
        return each(fn, *args)

    def counted_fields(qhat, cap=16):
        x1, x2 = eigenfields(qhat, cap)

        def arrays(u, v):
            counts["arrays"] += 1
            return x1.arrays(u, v)

        return (dataclasses.replace(x1, arrays=arrays),
                dataclasses.replace(x2, arrays=Swapped(arrays)))

    monkeypatch.setattr(flow, "each", counted_each)
    monkeypatch.setattr(umbilic, "eigenfields", counted_fields)
    return counts


def test_index_evaluates_two_circles_and_one_cos_sin_pass(tmp_path, monkeypatch):
    """Two circles of 2048 samples (one array call each), one cos and one sin
    pass, one atan2 pass per field and circle; a second command in the same
    process finds nothing left from the first."""
    counts = _counting(monkeypatch)
    for k in range(2):
        assert main(["index", "--preset", "z5", "--out", str(tmp_path / str(k))]) == 0
        assert counts == {"arrays": 2, "cos": 1, "sin": 1, "atan2": 4}
        counts.update(arrays=0, cos=0, sin=0, atan2=0)


def test_shared_index_report_is_the_unshared_one(monkeypatch):
    """measure_indices with and without shared circles gives equal reports."""
    qhat = load_preset("z5").patch.hopf()
    shared = measure_indices(analyze_point(qhat), qhat)
    with monkeypatch.context() as m:
        m.setattr(Circles, "share", lambda self, *fields: fields)
        alone = measure_indices(analyze_point(qhat), qhat)
    assert shared.to_dict() == alone.to_dict() and shared.windings == alone.windings


def test_a_field_without_circles_winds_on_fresh_ones():
    field = _rotating(3)
    assert field.circles is None
    assert _wind(field, 0.1, 720) == _wind(Circles().share(field)[0], 0.1, 720)


def _built(patch):
    return {"comps_x", "comps_y"} & set(patch.__dict__)


def _captured(monkeypatch):
    patches = []

    def capture(spec):
        resolved = resolve(spec)
        patches.append(resolved.patch)
        return resolved

    monkeypatch.setattr(cli, "resolve", capture)
    return patches


@pytest.mark.parametrize("make", [
    *(lambda name=name: load_preset(name) for name in ("z3", "exA1", "exA2", "deg26")),
    lambda: resolve(_null_spec(3, (2, 4), True)),
], ids=["z3", "exA1", "exA2", "deg26", "null_float"])
def test_resolve_builds_no_primitive(make):
    assert _built(make().patch) == set()


@pytest.mark.parametrize("command, built", [
    ("index", set()), ("classify", set()), ("flow", set()),
    ("generate", {"comps_x", "comps_y"}),
])
def test_only_generate_builds_the_primitives(tmp_path, monkeypatch, command, built):
    patches = _captured(monkeypatch)
    out = tmp_path / command
    assert main([command, "--preset", "z5", "--grid", "17", "--out", str(out)]) == 0
    assert _built(patches[0]) == built


def test_evaluate_builds_the_primitives_and_matches_generate():
    patch = load_preset("z3").patch
    point = patch.evaluate(0.25, -0.5)
    assert _built(patch) == {"comps_x", "comps_y"}
    fresh = load_preset("z3").patch
    assert fresh.evaluate(0.25, -0.5) == point


def test_shared_fields_keep_their_other_attributes():
    x1, x2 = eigenfields(HOPF["z3"]())
    s1, s2 = Circles().share(x1, x2)
    assert s1.circles is s2.circles
    for new, old in ((s1, x1), (s2, x2)):
        assert dataclasses.replace(new, circles=None) == old
    assert isinstance(s1, FlowField)
