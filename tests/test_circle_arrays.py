"""Winding circles evaluated as arrays, against the per-sample evaluators.

Every built-in field (the umbilic eigenfields and the space-like principal
line field) carries an array form, `FlowField.arrays`, that `_accumulate`
runs over a whole circle.  It must give the evaluator's bits at every
point (NaN where the evaluator refuses a point), and `winding_index` must
give the result of the scalar loop `oracles.reference_accumulate` on every
retry path: a zero on the circle, 4x and 16x resampling, undefined samples
and an OverflowError, which the array pass raises itself.  Each path is
wound a second time with no array form, where `Circles` calls the evaluator
once per sample; there, too, an OverflowError of a pass ends the winding,
even after a zero sample of the same pass.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from test_compiled_fields import HOPF, _null_spec
from zmcsurf import flow
from zmcsurf.cli import main
from zmcsurf.flow import LINE_FIELD, FlowField, WindingError, winding_index
from zmcsurf.geometry import each
from zmcsurf.poly import Poly
from zmcsurf.presets import load_preset
from zmcsurf.spacelike import ComplexWeierstrassData, generate_kobayashi
from zmcsurf.surfacespec import resolve
from zmcsurf.umbilic import eigenfields


def _eigen(hopf):
    return lambda: eigenfields(hopf())


FIELDS = {
    **{name: _eigen(HOPF[name]) for name in ("z3", "z5", "deg26", "narrow_domain")},
    "null_fraction": _eigen(lambda: resolve(_null_spec(11, (2, 4), False)).patch.hopf()),
    "null_float": _eigen(lambda: resolve(_null_spec(12, (4, 2), True)).patch.hopf()),
    **{name: (lambda name=name: [load_preset(name).patch.principal_line_field()])
       for name in ("spacelike_m1", "spacelike_m2", "spacelike_m3")},
}


def _circle_points(radius, samples=2048):
    t = [2.0 * math.pi * k / samples for k in range(samples)]
    return [(radius * math.cos(s), radius * math.sin(s)) for s in t]


def _points():
    rng = np.random.default_rng(19)
    pts = rng.uniform(-1.0, 1.0, size=(500, 2)).tolist()
    return pts + _circle_points(0.1) + _circle_points(0.05)


def _scalar(field, u, v):
    try:
        p, q = field.evaluator(u, v)
    except ValueError:
        return ("nan", "nan")
    return (float(p).hex(), float(q).hex())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_array_form_is_bitwise_the_evaluator(name):
    refused = 0
    for field in FIELDS[name]():
        pts = _points()
        u, v = (np.array(c) for c in zip(*pts))
        p, q = field.arrays(u, v)
        for k, (a, b) in enumerate(pts):
            want = _scalar(field, a, b)
            assert (p[k].hex(), q[k].hex()) == want, (field.name, a, b)
            refused += want == ("nan", "nan")
    assert (refused > 0) == (name == "narrow_domain")


def _reference(field, radius, samples, monkeypatch):
    """winding_index with the scalar reference loop in place of _accumulate."""
    with monkeypatch.context() as m:
        m.setattr(flow, "_accumulate", oracles.reference_accumulate)
        return _wind(field, radius, samples)


def _wind(field, radius, samples):
    try:
        return winding_index(field, radius=radius, samples=samples)
    except (WindingError, OverflowError) as exc:
        return repr(exc)


def _rotating(k):
    """The field at angle k times the polar angle: index k, and a jump of
    2 pi k / n between samples, so k decides which retries a circle needs."""

    def ev(u, v):
        t = k * math.atan2(v, u)
        return (math.cos(t), math.sin(t))

    def arrays(u, v):
        t = k * each(math.atan2, v, u)
        return (each(math.cos, t), each(math.sin, t))

    return FlowField(ev, name=f"rotating_{k}", arrays=arrays)


def _zero_at_first_sample():
    # g' = z - 1/10 vanishes at (0.1, 0), the first sample of the first circle
    patch = generate_kobayashi(ComplexWeierstrassData(Poly([0, -0.1, 0.5]), Poly([1])))
    return patch.principal_line_field()


RETRY_PATHS = [
    (_zero_at_first_sample(), 0.1, 720, "radius"),
    (_rotating(200), 0.1, 720, 4),
    (_rotating(1000), 0.1, 720, 16),
    (load_preset("spacelike_m2").patch.principal_line_field(), 0.1, 720, 1),
    (eigenfields(HOPF["narrow_domain"]())[0], 0.3, 720, "undefined"),
    (eigenfields(HOPF["narrow_domain"]())[1], 1.0, 2048, "undefined"),
    (eigenfields(HOPF["z5"]())[0], 1e200, 2048, "overflow"),
]
RETRY_IDS = ["zero_on_circle", "resample_4x", "resample_16x", "first_try", "undefined_some",
             "undefined_all", "overflow"]


# each path a second time with no array form: `Circles` calls the evaluator per sample
@pytest.mark.parametrize(
    "field, radius, samples, retry",
    RETRY_PATHS + [(dataclasses.replace(f, arrays=None), *rest) for f, *rest in RETRY_PATHS],
    ids=RETRY_IDS + [name + "_evaluator" for name in RETRY_IDS],
)
def test_winding_index_is_the_reference_on_every_retry_path(field, radius, samples, retry,
                                                            monkeypatch):
    got = _wind(field, radius, samples)
    assert got == _reference(field, radius, samples, monkeypatch)
    if retry == "radius":
        assert got.radius == radius * 1.0037
    elif retry in (1, 4, 16):
        assert (got.radius, got.samples) == (radius, retry * samples)
    elif retry == "overflow":
        assert got == repr(OverflowError(34, "Numerical result out of range"))
    else:
        assert got == repr(WindingError(
            "field vanished or was undefined on every sampled circle"))


def test_a_circle_that_overflows_calls_no_evaluator():
    """x**2 overflows at the first sample of z5's circle of radius 1e200:
    the array pass raises, and its OverflowError ends the winding."""
    x1 = eigenfields(HOPF["z5"]())[0]
    with pytest.raises(OverflowError):
        x1.arrays(np.array([1e200]), np.array([0.0]))
    calls = []
    counted = dataclasses.replace(x1, evaluator=lambda u, v: calls.append(u) or x1(u, v))
    with pytest.raises(OverflowError):
        flow._accumulate(counted, 1e200, 720)
    assert calls == []


def test_an_overflow_after_a_zero_in_the_chunk_ends_the_winding():
    """A field with no array form: its first sample of every circle is a zero,
    and a later sample of the same 4096-sample chunk raises OverflowError.
    The pass raises that OverflowError, as an array pass does, and the
    winding ends with it; the zero does not turn it into a retry."""

    def ev(u, v):
        if v > 0.0:
            raise OverflowError("past the double range")
        return (0.0, 0.0) if v == 0.0 else (-v, u)

    with pytest.raises(OverflowError, match="past the double range"):
        winding_index(FlowField(ev), radius=0.1, samples=720)


def test_index_overflow_keeps_its_exit_code_and_diagnostic(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["index", "--preset", "z5", "--radius", "1e200", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "(34, 'Numerical result out of range')"}
    assert not out.exists()


def test_line_field_array_form_survives_perpendicular():
    (field,) = FIELDS["spacelike_m2"]()
    swapped = flow.perpendicular(field)
    assert swapped.kind == LINE_FIELD
    u, v = np.array([0.03, -0.07]), np.array([0.05, 0.02])
    p, q = field.arrays(u, v)
    sp, sq = swapped.arrays(u, v)
    assert np.array_equal(sp, q) and np.array_equal(sq, p)
    assert flow.perpendicular(FlowField(lambda u, v: (u, v))).arrays is None


@pytest.mark.parametrize("d", [math.pi, -math.pi, 0.0, -0.0, 5e-324, -5e-324, 1.0, -3.0,
                               math.nextafter(math.pi, 0.0)])
def test_remainder_of_a_jump_within_pi_is_the_jump(d):
    """`_accumulate` calls math.remainder only where |d| > pi: remainder is
    exact, so below that it returns d, bit for bit and with d's signed zero."""
    assert math.remainder(d, 2.0 * math.pi).hex() == d.hex()
