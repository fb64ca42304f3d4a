"""The curvature-line loops against their scalar references, bit for bit.

`flow.streamlines` runs one generated march, with the statements of the
built-in fields inline (`flow.Kernel`: the umbilic eigenfields and the
space-like principal line field) and any other evaluator called,
`flow._accumulate` winds every field through `Circles` (its array form, or
one evaluator call per sample), and
`svgplot.render_svg` formats pixel coordinates from arrays.
The oracles in `oracles` are the scalar loops these replaced.  Over every
kind of field the program draws, and hand fields that stop a march, refuse
a sample, vanish at a seed or on a winding circle, or return ints or
np.float64, the polylines (`np.array_equal`), the winding results and the
SVG text must be the same.  The hand stop fields stop marches of both
kinds at a raise and at a refused sample in every RK4 stage after the
first, and at NaN, infinite and too-small samples in mid-march
(`test_the_stop_cases_cover_every_stop`).

The eigenfields of `EIGEN` (every smooth preset and spec case, 40 seeded
null specs over every psi shape, psi that turn non-positive in mid-march)
march bit for bit as the reference march over `oracles.reference_eigenfields`,
without calling an evaluator, and so do the principal line fields of
`SPACELIKE` (seeded kobayashi specs) over
`oracles.reference_principal_line_field`.  The march's source text depends
only on the field's shape, no kernel name shadows one of the march's own,
and the compile cache is bounded.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from test_chart_engine import NON_SQUARE
from spec_cases import SPEC_CASES
from test_compiled_fields import _integer_hopf, _narrow_domain_hopf, _null_spec
from zmcsurf import flow
from zmcsurf.cli import main
from zmcsurf.flow import (LINE_FIELD, VECTOR_FIELD, FlowField, WindingError, streamlines,
                          winding_index)
from zmcsurf.geometry import GridSpec
from zmcsurf.parafunc import ParaFunction
from zmcsurf.poly import Poly
from zmcsurf.presets import PRESET_ORDER, load_preset, preset_spec
from zmcsurf.spacelike import ComplexWeierstrassData, generate_kobayashi
from zmcsurf.surfacespec import DEFAULT_SEEDS, MAX_DEGREE, SpecError, resolve
from zmcsurf.svgplot import KIND_COLORS, ChartMap, render_svg
from zmcsurf.umbilic import NoSmoothFlowError, eigenfields

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


# every time-like preset and spec case with a smooth flow
SMOOTH_PRESETS = ("z3", "z5", "deg26")
SMOOTH_SPEC_CASES = ("tiny_float_hopf", "tiny_rational_hopf", "tiny_float_omega",
                     "tiny_rational_omega", "z3_branches", "z3_seeds", "z3_samples_jet_cap")
CASES.update({name: _eigen(SPEC_CASES[name][0]) for name in SMOOTH_SPEC_CASES})


def _seeded_null(seed, orders, as_float, constant):
    """`_null_spec`, or with `constant` its g_i' = c_i t^m_i and w_i = 1,
    whose psi are constants."""
    spec = _null_spec(seed, orders, as_float)
    if constant:
        for k, m in zip((1, 2), orders):
            del spec["data"][f"g{k}"]["coeffs"][m + 2:], spec["data"][f"w{k}"]["coeffs"][1:]
    return spec


def _hopf(spec):
    return lambda: resolve(spec).patch.hopf()


# the Hopf data whose eigenfields march on the generated path: the smooth
# presets and spec cases, 40 seeded null specs over every psi shape kind
# (Fraction and float, constant and not), psi that turn non-positive in
# mid-march (narrow_domain, integer)
EIGEN = {
    **{name: _hopf(preset_spec(name)) for name in SMOOTH_PRESETS},
    **{name: _hopf(SPEC_CASES[name][0]) for name in SMOOTH_SPEC_CASES},
    **{f"null_{'float' if as_float else 'fraction'}_m{m1}{m2}_{'const' if constant else 'poly'}_{seed}":
       _hopf(_seeded_null(seed, (m1, m2), as_float, constant))
       for m1, m2 in ((2, 2), (2, 4), (4, 2), (4, 4), (6, 2)) for as_float in (False, True)
       for constant in (True, False) for seed in (11, 12)},
    "narrow_domain": _narrow_domain_hopf,
    "integer": _integer_hopf,
}
# two opposite default seeds, seeds near the umbilic (where narrow_domain's
# marches leave its domain in RK4 stages 2-4) and a NaN seed
EIGEN_SEEDS = (*DEFAULT_SEEDS[::4], (0.1, 0.05), (-0.15, 0.1), (0.2, -0.1), (math.nan, 0.5))


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


def _stops(field, kwargs, seeds=DEFAULT_SEEDS):
    """(how, stage, whole steps) of each march of the reference that a
    sample stopped: how is "raise", "nan", "inf" or "small"."""
    stops = []
    for seed in seeds:
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


def test_the_eigen_cases_are_every_smooth_flow():
    """`SMOOTH_PRESETS` and `SMOOTH_SPEC_CASES` name every time-like preset
    and spec case whose eigenfields exist."""

    def smooth(spec):
        try:
            patch = resolve(spec).patch
            return hasattr(patch, "hopf") and bool(eigenfields(patch.hopf()))
        except (SpecError, NoSmoothFlowError):
            return False

    assert tuple(n for n in PRESET_ORDER if smooth(preset_spec(n))) == SMOOTH_PRESETS
    assert tuple(n for n, (spec, _) in SPEC_CASES.items() if smooth(spec)) == SMOOTH_SPEC_CASES


@pytest.mark.parametrize("name", sorted(EIGEN))
def test_the_generated_march_is_bitwise_the_reference(name):
    """X1 and X2 march as `oracles.reference_streamlines` over
    `oracles.reference_eigenfields`, which evaluates the exact psi on every
    call: the same bytes, NaN seed included, in both march settings."""
    qhat = EIGEN[name]()
    for new, ref in zip(eigenfields(qhat), oracles.reference_eigenfields(qhat)):
        assert isinstance(new.evaluator, flow.Kernel)
        for kwargs in _marches(SQUARE):
            got = streamlines(new, EIGEN_SEEDS, **kwargs)
            want = oracles.reference_streamlines(ref, EIGEN_SEEDS, **kwargs)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], new.name


def test_narrow_domain_marches_end_in_every_later_stage():
    """From `EIGEN_SEEDS`, narrow_domain's psi turns non-positive in RK4
    stages 2, 3 and 4 of marches some steps past their seeds."""
    stops = [stop for field in oracles.reference_eigenfields(_narrow_domain_hopf())
             for kwargs in _marches(SQUARE) for stop in _stops(field, kwargs, EIGEN_SEEDS)]
    assert {stage for how, stage, steps in stops if how == "raise" and steps} == {2, 3, 4}


@pytest.mark.parametrize("kind", ("X1", "X2"))
def test_the_generated_march_lets_the_far_seed_overflow_through(kind):
    """z5's x**n1 overflows at the far seed: both marches raise it."""
    qhat = EIGEN["z5"]()
    new, ref = (dict((f.name, f) for f in fields)[kind]
                for fields in (eigenfields(qhat), oracles.reference_eigenfields(qhat)))
    for kwargs in _marches(SQUARE):
        messages = []
        for march, field in ((streamlines, new), (oracles.reference_streamlines, ref)):
            with pytest.raises(OverflowError) as exc:
                march(field, [(1e200, 1e200)], **kwargs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]


def test_the_converted_psi_horner_is_bitwise_exact_horner():
    """`oracles.reference_eigenfields` converts each psi coefficient once:
    at float points its Horner gives `exact_horner`'s bits over the ten
    seeded Fraction null specs with a non-constant psi."""
    rng = np.random.default_rng(33)
    points = rng.uniform(-1.0, 1.0, 1000).tolist() + [0.0, -0.0, 0.5, -0.5, 1.0, -1.0]
    names = [name for name in EIGEN if name.startswith("null_fraction") and "_poly_" in name]
    assert len(names) == 10
    for name in names:
        nf = EIGEN[name]().normal_form(16)
        for psi in (nf.psi_plus.poly, nf.psi_minus.poly):
            assert psi.degree > 0 and any(isinstance(c, Fraction) for c in psi.coeffs)
            horner = oracles.converted_horner(psi)
            for t in points:
                assert horner(t).hex() == oracles.exact_horner(psi, t).hex(), (name, t)


def _kobayashi(g, omega):
    return {"route": "kobayashi", "data": {"g": g, "omega_hat": omega},
            "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17}}


def _seeded_kobayashi(seed):
    """g = g0 + c z^(zeros + 1) + ..., whose g' has `zeros` leading zero
    coefficients, and omega_hat of degree seed % 3; complex coefficients
    on even seeds, floats on odd ones."""
    rng = random.Random(seed)
    part = lambda: rng.uniform(-1.5, 1.5)
    coeff = (lambda: [part(), part()]) if seed % 2 == 0 else part
    zeros = seed // 2 % 4
    g = [coeff()] + [0] * zeros + [coeff() for _ in range(1 + seed % 3)]
    return _kobayashi(g, [coeff() for _ in range(1 + seed % 3)])


# principal line fields over every omega_hat degree 0-2, complex and float
# coefficients, g' with 0-3 leading zeros (an umbilic at o of that order),
# -0.0 coefficients, and Horner steps that reach inf (the march stops there)
SPACELIKE = {
    **{f"seeded_{seed}": _seeded_kobayashi(seed) for seed in range(17)},
    "negative_zero": _kobayashi([0, -0.0, [0.5, -0.0], -0.25], [-0.0, [0.0, 1.0], -0.0]),
    "huge_omega": _kobayashi([0, 0, 0.5], [1e308, 1e308]),
    "huge_complex": _kobayashi([0, 0.5, [-0.25, 0.75]], [[1e308, 1e308], [1e308, -0.5]]),
}
# `EIGEN_SEEDS` and the umbilic at o
SPACELIKE_SEEDS = (*EIGEN_SEEDS, (0.0, 0.0))


@pytest.mark.parametrize("name", sorted(SPACELIKE))
def test_the_space_like_march_is_bitwise_the_reference(name):
    """The principal line field marches as `oracles.reference_streamlines`
    over `oracles.reference_principal_line_field`, which evaluates the
    Hopf coefficient in complex arithmetic: the same bytes, in both march
    settings; where Horner reaches inf the field is NaN and marches stop."""
    patch = resolve(SPACELIKE[name]).patch
    new, ref = patch.principal_line_field(), oracles.reference_principal_line_field(patch)
    assert isinstance(new.evaluator, flow.Kernel)
    for kwargs in _marches(SQUARE):
        got = streamlines(new, SPACELIKE_SEEDS, **kwargs)
        want = oracles.reference_streamlines(ref, SPACELIKE_SEEDS, **kwargs)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    if name.startswith("huge"):
        assert all(map(math.isnan, new(0.9, 0.0))) and all(map(math.isnan, ref(0.9, 0.0)))


def test_eigenfield_marches_call_no_evaluator(monkeypatch):
    """The statements of the eigenfields and of the space-like principal
    line fields run inline: a march that fell back to calling the
    evaluator would call `Kernel.__call__`."""
    calls = []
    monkeypatch.setattr(flow.Kernel, "__call__", lambda self, u, v: calls.append((u, v)))
    fields = [field for name in ("z5", "null_fraction_m24_poly_11", "null_float_m42_const_12")
              for field in eigenfields(EIGEN[name]())]
    fields += [load_preset(f"spacelike_m{m}").patch.principal_line_field() for m in (1, 2, 3)]
    fields.append(resolve(SPACELIKE["seeded_4"]).patch.principal_line_field())
    for field in fields:
        lines = streamlines(field, DEFAULT_SEEDS)
        assert sum(map(len, lines)) > 10 * len(DEFAULT_SEEDS)
    assert calls == []


def _shape_hopf(plus, minus):
    return ParaFunction.from_branches([0, 0, *plus], [0, 0, *minus])


def test_the_source_depends_only_on_the_shape():
    """Equal shapes give one source text, whatever the coefficients: a
    double near the top of the range, a 4000-digit Fraction, and ints."""
    digits = Fraction(10**3999 + 1, 10**3999)  # a 4000-digit numerator
    fields = [eigenfields(_shape_hopf(plus, minus)) for plus, minus in (
        ([1e308, 1.0], [digits, Fraction(1, 7)]), ([2.5, -1.0], [3, 1]), ([1, 3], [1, -2]))]
    for k in (0, 1):
        kernels = [f[k].evaluator for f in fields]
        assert len({kernel.source for kernel in kernels}) == 1
        assert kernels[0].args["A1"] == 1e308 and kernels[0].args["B1"] == float(digits)
        assert len({tuple(kernel.args.values()) for kernel in kernels}) == 3
    assert fields[0][0].evaluator.source != fields[0][1].evaluator.source  # X1 and X2
    # space-like: one text per length of omega_hat and g'
    kernels = [generate_kobayashi(ComplexWeierstrassData(Poly([0, 0, -0.5]), Poly([c, 1.0])))
               .principal_line_field().evaluator for c in (1e308, 0.5 - 2j, 2.5)]
    assert len({kernel.source for kernel in kernels}) == 1
    assert (kernels[0].args["w1r"], kernels[1].args["w1r"], kernels[1].args["w1i"]) == (1e308, 0.5, -2.0)
    assert len({tuple(kernel.args.values()) for kernel in kernels}) == 3


def test_kernel_names_do_not_shadow_the_march():
    """No built-in Kernel binds or assigns one of the march's own names,
    its parameters and locals beside the Kernel's p and q, as the compiled
    code of a march and of each Kernel's evaluator list them."""
    march = flow._compiled("p, q = ev(su, sv)", "ev")[0].__code__
    own = set(march.co_varnames) - {"ev", "p", "q"}
    assert {"u", "v", "n", "sign", "half", "du", "dv", "su", "sv", "a0", "a4", "b0", "b4"} <= own
    fields = [field for name in EIGEN for field in eigenfields(EIGEN[name]())]
    fields += [resolve(spec).patch.principal_line_field() for spec in SPACELIKE.values()]
    fields += [load_preset(f"spacelike_m{m}").patch.principal_line_field() for m in (1, 2, 3)]
    for field in fields:
        kernel = field.evaluator
        names = flow._compiled(kernel.source, *kernel.args)[1].__code__.co_varnames
        assert {"p", "q"} <= set(names) and not (set(names) - {"su", "sv", "p", "q"}) & own, field.name


def test_the_compile_cache_holds_one_entry_per_shape():
    flow._compiled.cache_clear()
    for n in range(1, 5):  # two Hopf data of each shape, two fields each
        for c in (1, Fraction(5, 3)):
            for field in eigenfields(_shape_hopf([c] * n, [2])):
                streamlines(field, [(0.1, 0.05)], max_len=0.01)
    assert flow._compiled.cache_info().currsize == 2 * 4
    for n in range(1, 4):  # two space-like patches of each omega_hat length
        for c in (0.5, 0.25 - 1j):
            field = generate_kobayashi(ComplexWeierstrassData(Poly([0, 0, c]), Poly([1.0] * n)))
            streamlines(field.principal_line_field(), [(0.1, 0.05)], max_len=0.01)
    assert flow._compiled.cache_info().currsize == 2 * 4 + 3
    for n in range(5, 40):
        for field in eigenfields(_shape_hopf([1] * n, [2])):
            field(0.1, 0.05)
    assert flow._compiled.cache_info().currsize == flow._compiled.cache_info().maxsize == 64


def test_flow_runs_the_longest_psi_the_limits_allow(tmp_path):
    """g_i of degree MAX_DEGREE with g_i'(0) = g_i''(0) = 0 and w_i of
    degree MAX_DEGREE: psi of degree 2 MAX_DEGREE - 3."""
    g = [0, 0, 0, "1/3"] + [f"1/{4**k}" for k in range(4, MAX_DEGREE + 1)]
    w = [1] + [f"1/{2**k}" for k in range(1, MAX_DEGREE + 1)]
    data = {name: {"kind": "poly", "coeffs": coeffs} for name, coeffs in
            (("g1", g), ("g2", g), ("w1", w), ("w2", w))}
    spec = {"route": "null", "data": data, "grid": dict(SPEC_CASES["z3_seeds"][0]["grid"])}
    x1, _ = eigenfields(resolve(spec).patch.hopf())
    assert x1.evaluator.args.keys() >= {f"A{2 * MAX_DEGREE - 3}", f"B{2 * MAX_DEGREE - 3}"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["flow", "--spec", str(path), "--grid", "17", "--out", str(tmp_path / "out")]) == 0


def test_flow_runs_the_longest_space_like_shape(tmp_path):
    """g and omega_hat of degree MAX_DEGREE: a kernel of 2 MAX_DEGREE + 1
    Horner steps."""
    g = [0, 0] + [[1 / 4**k, (-1) ** k / 8**k] for k in range(2, MAX_DEGREE + 1)]
    w = [1] + [1 / 2**k for k in range(1, MAX_DEGREE + 1)]
    spec = _kobayashi(g, w)
    kernel = resolve(spec).patch.principal_line_field().evaluator
    assert kernel.args.keys() >= {f"w{MAX_DEGREE}r", f"g{MAX_DEGREE - 1}i"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["flow", "--spec", str(path), "--grid", "17", "--out", str(tmp_path / "out")]) == 0
