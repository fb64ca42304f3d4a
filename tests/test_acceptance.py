"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts.  Tolerances are pinned here and nowhere else.
"""

import math
import random
from fractions import Fraction

import numpy as np

import oracles
from zmcsurf import (
    FlowField,
    ParaFunction,
    WeierstrassData,
    analyze_point,
    classify_chart,
    eigenfields,
    hopf_differential,
    perpendicular,
    quasi_umbilic_direction_check,
    spacelike_index,
    winding_index,
)
from zmcsurf.cli import main as cli_main
from zmcsurf.geometry import KIND_NEGATIVE, KIND_QUASI, KIND_UMBILIC
from zmcsurf.presets import PRESET_ORDER, load_preset

TIMELIKE_PRESETS = ("plane", "exA1", "z2", "z3", "z5", "f1", "f2", "deg26", "exA2")
SPACELIKE_PRESETS = ("spacelike_m1", "spacelike_m2", "spacelike_m3")


def _report(n, text):
    print(f"ACCEPTANCE {n:>2}: PASS - {text}")


def _rand_fraction(rng, den=32):
    return Fraction(rng.randint(-den, den), den)


def _resolved(name):
    return load_preset(name)


def _chart(name):
    spec = _resolved(name)
    return spec.patch.chart(spec.grid)


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_generation():
    """Generated immersions match the frozen reference closed forms: exactly on the
    rational pipeline, to 1e-12 relative on the floating pipeline."""
    cases = [
        ("z2", oracles.z2_surface, "uv"),
        ("z3", oracles.z3_surface, "uv"),
        ("z5", oracles.z5_surface, "uv"),
        ("f1", oracles.f1_surface, "xy"),
        ("f2", oracles.f2_surface, "xy"),
        ("deg26", oracles.deg26_surface, "xy"),
        ("exA1", oracles.exa1_surface, "xy"),
    ]
    rng = random.Random(20240801)
    for name, oracle, kind in cases:
        patch = _resolved(name).patch
        for _ in range(100):
            a, b = _rand_fraction(rng), _rand_fraction(rng)
            if kind == "uv":
                got = patch.evaluate(a, b)
            else:
                got = patch.evaluate_null(a, b)
            want = oracle(a, b)
            assert got == want, (name, a, b)
            # floating pipeline
            fa, fb = float(a), float(b)
            got_f = (
                patch.evaluate(fa, fb) if kind == "uv" else patch.evaluate_null(fa, fb)
            )
            for gf, wf in zip(got_f, want):
                wf = float(wf)
                assert abs(float(gf) - wf) <= 1e-12 * max(1.0, abs(wf)), (name, a, b)
    _report(1, "closed forms reproduced exactly (rational) and to 1e-12 (float)")


def test_criterion_2_hopf_consistency():
    """(L+N+2jM)/4 assembled from the fundamental forms equals -(omega g')
    to 1e-10 at every unmasked node, on every time-like preset."""
    for name in TIMELIKE_PRESETS:
        spec = _resolved(name)
        chart = spec.patch.chart(spec.grid)
        q = spec.patch.hopf()
        for i, u in enumerate(chart.grid.u_nodes()):
            for j, v in enumerate(chart.grid.v_nodes()):
                if not chart.mask[i, j]:
                    continue
                assembled_re = (chart.L[i, j] + chart.N[i, j]) / 4.0
                assembled_im = 2.0 * chart.M[i, j] / 4.0
                val = q.evaluate_uv(float(u), float(v))
                assert abs(assembled_re - float(val.re)) <= 1e-10, (name, u, v)
                assert abs(assembled_im - float(val.im)) <= 1e-10, (name, u, v)
    _report(2, "chart-assembled Hopf coefficient equals -(omega g') to 1e-10")


def test_criterion_3_structural_identities():
    """N2(L+N+2jM) = e^{4 sigma} D to 1e-10 relative and
    D = -4 e^{-4 sigma} det(A) to 1e-12, at every unmasked node.

    Relative tolerances are taken against the well-conditioned magnitude
    e^{-4 sigma} ((L+N)^2 + 4M^2): the discriminant vanishes identically on
    the null lines, and (L+N)^2 - 4M^2 is a catastrophic cancellation there
    (for the flat-exponential preset the true difference sits ~26 decimal
    orders below the squares), so no double-precision evaluation can meet a
    bound relative to |D| itself.  The split-branch product route, which is
    cancellation-free, is cross-checked against the quadratic-form assembly
    at the same scale."""
    for name in TIMELIKE_PRESETS:
        spec = _resolved(name)
        chart = spec.patch.chart(spec.grid)
        q = spec.patch.hopf()
        for i, u in enumerate(chart.grid.u_nodes()):
            for j, v in enumerate(chart.grid.v_nodes()):
                if not chart.mask[i, j]:
                    continue
                L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
                a, b = L + N, 2.0 * M
                n2 = a * a - b * b
                cond = a * a + b * b  # conditioning scale of the difference
                e4s = math.exp(4.0 * chart.sigma[i, j])
                D = n2 / e4s
                # norm of the assembled coefficient vs e^{4 sigma} D
                assert abs(n2 - e4s * D) <= 1e-10 * (1 + cond), name
                # independent route: stable branch product (no cancellation),
                # via the dz^2-normalized coefficient scaled back by 4^2
                x, y = (float(u) + float(v)) / 2.0, (float(u) - float(v)) / 2.0
                prod = 16.0 * float(q.plus(x)) * float(q.minus(y))
                assert abs(prod - n2) <= 1e-10 * (1 + cond), (name, u, v)
                # trace-free-determinant route
                A = 0.5 * np.array([[a, b], [-b, -a]])
                D_det = -4.0 / e4s * float(np.linalg.det(A))
                assert abs(D - D_det) <= 1e-12 * (1 + cond / e4s), name
    _report(3, "norm-form/discriminant identities hold to 1e-10 / 1e-12")


def test_criterion_4_compatibility_residuals():
    """Para-Cauchy-Riemann and Codazzi residuals under central differences
    at step 1e-4 stay below 1e-6 (time-like and space-like conventions)."""
    h = 1e-4
    points = [(0.3, 0.1), (-0.25, 0.15), (0.1, -0.3), (0.35, 0.3)]
    for name in TIMELIKE_PRESETS:
        patch = _resolved(name).patch
        forms = lambda uu, vv: tuple(float(t) for t in patch.second_forms(uu, vv))
        for u, v in points:
            a = lambda uu, vv: forms(uu, vv)[0] + forms(uu, vv)[2]
            b = lambda uu, vv: 2.0 * forms(uu, vv)[1]
            a_u = (a(u + h, v) - a(u - h, v)) / (2 * h)
            a_v = (a(u, v + h) - a(u, v - h)) / (2 * h)
            b_u = (b(u + h, v) - b(u - h, v)) / (2 * h)
            b_v = (b(u, v + h) - b(u, v - h)) / (2 * h)
            assert abs(a_u - b_v) <= 1e-6, name
            assert abs(a_v - b_u) <= 1e-6, name
            # Codazzi (zero-mean-curvature form: L = N identically)
            L_v = (forms(u, v + h)[0] - forms(u, v - h)[0]) / (2 * h)
            M_u = (forms(u + h, v)[1] - forms(u - h, v)[1]) / (2 * h)
            N_u = (forms(u + h, v)[2] - forms(u - h, v)[2]) / (2 * h)
            M_v = (forms(u, v + h)[1] - forms(u, v - h)[1]) / (2 * h)
            assert abs(L_v - M_u) <= 1e-6, name
            assert abs(N_u - M_v) <= 1e-6, name
    for name in SPACELIKE_PRESETS:
        patch = _resolved(name).patch
        for u, v in points:
            F = lambda uu, vv: oracles.spacelike_forms(patch, uu, vv)
            A = lambda uu, vv: F(uu, vv)[1] - F(uu, vv)[3]
            B = lambda uu, vv: -2.0 * F(uu, vv)[2]
            a_u = (A(u + h, v) - A(u - h, v)) / (2 * h)
            a_v = (A(u, v + h) - A(u, v - h)) / (2 * h)
            b_u = (B(u + h, v) - B(u - h, v)) / (2 * h)
            b_v = (B(u, v + h) - B(u, v - h)) / (2 * h)
            assert abs(a_u - b_v) <= 1e-6, name
            assert abs(a_v + b_u) <= 1e-6, name
            L_v = (F(u, v + h)[1] - F(u, v - h)[1]) / (2 * h)
            M_u = (F(u + h, v)[2] - F(u - h, v)[2]) / (2 * h)
            sig_v = (F(u, v + h)[0] - F(u, v - h)[0]) / (2 * h)
            trace = F(u, v)[1] + F(u, v)[3]
            assert abs(L_v - M_u - sig_v * trace) <= 1e-6, name
    _report(4, "para-CR and Codazzi residuals <= 1e-6 on all presets")


def _measure_pair(qhat, radius=0.1, samples=2048):
    fields = eigenfields(qhat)
    out = {}
    for f in fields:
        r1 = winding_index(f, radius=radius, samples=samples)
        r2 = winding_index(f, radius=radius / 2, samples=samples)
        assert r1.index == r2.index, "radius halving unstable"
        out[f.name] = r1.index
    return out, fields


def test_criterion_5_mod4_index_law():
    """Measured winding indices follow the order mod 4 pattern: {+1,-1} for
    orders 2 and 6, {0} for orders 4 and 8, and {+1,-1} for the degenerate
    (2,6) surface.  Predictions are derived before any measurement."""
    cases = [
        ("z3 (order 2)", _resolved("z3").patch.hopf(), {1, -1}),
        ("z5 (order 4)", _resolved("z5").patch.hopf(), {0}),
        (
            "g=z^7 (order 6)",
            hopf_differential(
                WeierstrassData(ParaFunction.monomial(7), ParaFunction.constant(1))
            ),
            {1, -1},
        ),
        (
            "g=z^9 (order 8)",
            hopf_differential(
                WeierstrassData(ParaFunction.monomial(9), ParaFunction.constant(1))
            ),
            {0},
        ),
        ("deg26 (orders 2,6)", _resolved("deg26").patch.hopf(), {1, -1}),
    ]
    for label, qhat, want in cases:
        predicted = analyze_point(qhat).predicted_indices
        assert predicted == frozenset(want), label  # parity-rule prediction
        measured, _ = _measure_pair(qhat)
        assert set(measured.values()) == want, label  # winding-side measurement
    _report(5, "indices {+1,-1}/{0} follow order mod 4; radius-halving stable")


def test_criterion_6_odd_orders_not_admissible():
    """Odd-order umbilics (orders 1 and 3) have positive and negative points
    on every sampled circle of radius 0.05, 0.1, 0.2."""
    data = [
        ("z2 (order 1)", _resolved("z2").patch.hopf()),
        (
            "g=z^4 (order 3)",
            hopf_differential(
                WeierstrassData(ParaFunction.monomial(4), ParaFunction.constant(1))
            ),
        ),
    ]
    for label, qhat in data:
        report = analyze_point(qhat)
        assert report.admissible == "no", label
        for r in (0.05, 0.1, 0.2):
            signs = set()
            for k in range(720):
                t = 2 * math.pi * k / 720
                val = qhat.n2_at(r * math.cos(t), r * math.sin(t))
                if val > 0:
                    signs.add(1)
                elif val < 0:
                    signs.add(-1)
            assert signs == {1, -1}, (label, r)
    _report(6, "odd orders: both signs present at radii 0.05/0.1/0.2")


def test_criterion_7_quasi_umbilics_accumulate_at_umbilics():
    """On z3, z5, deg26: every grid node of the punctured null lines is a
    quasi-umbilic, and the umbilic set within r <= 0.5 is exactly {o}
    (exact zero tests on the polynomial branches)."""
    for name in ("z3", "z5", "deg26"):
        chart = _chart(name)
        cls = classify_chart(chart)
        for i, u in enumerate(chart.grid.u_nodes()):
            for j, v in enumerate(chart.grid.v_nodes()):
                if not chart.mask[i, j]:
                    continue
                on_lines = (u == v or u == -v) and not (u == 0 and v == 0)
                if on_lines:
                    assert cls.kinds[i, j] == KIND_QUASI, (name, u, v)
                if cls.kinds[i, j] == KIND_UMBILIC and u * u + v * v <= Fraction(1, 4):
                    assert (u, v) == (0, 0), name
        assert cls.nodes_of_kind(KIND_UMBILIC) == [(16, 16)], name
    _report(7, "punctured null lines are quasi-umbilic; umbilic set is {o}")


def test_criterion_8_quasi_umbilic_structure():
    """f1: sign D = sign y with zero set {y=0}; f2: D >= 0 with zero set
    exactly {y=0} (exact, via the branch product); the unique principal
    direction on the quasi-umbilic line is parallel to the predicted null
    direction to 1e-6 radians."""
    f1 = _resolved("f1")
    q1 = f1.patch.hopf()
    f2 = _resolved("f2")
    q2 = f2.patch.hopf()
    rng = random.Random(88)
    for _ in range(500):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        y = (u - v) / 2
        n2_1 = q1.n2_at(u, v)  # positive multiple of y
        if y > 0:
            assert n2_1 > 0
        elif y < 0:
            assert n2_1 < 0
        else:
            assert n2_1 == 0
        n2_2 = q2.n2_at(u, v)  # positive multiple of y^2
        assert n2_2 >= 0
        assert (n2_2 == 0) == (y == 0)
    for spec in (f1, f2):
        chart = spec.patch.chart(spec.grid)
        cls = classify_chart(chart)
        # quasi-umbilics sit on {u = v}; unique direction parallel to (-1, 1)
        assert quasi_umbilic_direction_check(chart, cls, s=-1, tol=1e-6)
        assert not quasi_umbilic_direction_check(chart, cls, s=-1, direction=(1, 1))
    chart3 = _chart("z3")
    cls3 = classify_chart(chart3)
    assert quasi_umbilic_direction_check(chart3, cls3, s=1, tol=1e-6)
    assert quasi_umbilic_direction_check(chart3, cls3, s=-1, tol=1e-6)
    _report(8, "discriminant signs exact; null-direction check <= 1e-6")


def test_criterion_9_perpendicular_flow_law():
    """Component swap negates every measured index and is an involution."""
    measured_fields = [FlowField(lambda u, v: (-v, u), name="rotation")]
    for name in ("z3", "z5", "deg26"):
        measured_fields.extend(eigenfields(_resolved(name).patch.hopf()))
    for m in (1, 2, 3):
        from zmcsurf.spacelike import generate_kobayashi, monomial_hopf_data

        measured_fields.append(
            generate_kobayashi(monomial_hopf_data(m)).principal_line_field()
        )
    rng = random.Random(9)
    for field in measured_fields:
        base = winding_index(field).index
        flipped = winding_index(perpendicular(field)).index
        assert flipped == -base, field.name
        double = perpendicular(perpendicular(field))
        for _ in range(20):
            u, v = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            if u == 0 and v == 0:
                continue
            assert double(u, v) == field(u, v), field.name
    _report(9, "perpendicular flow negates indices; double swap is identity")


def test_criterion_10_spacelike_index_law():
    """Space-like line-field indices are -m/2; no quasi-umbilics occur."""
    for m, want in ((1, -0.5), (2, -1.0), (3, -1.5)):
        res = spacelike_index(m)
        assert res.index == want
        assert spacelike_index(m, radius=0.05).index == want
    for name in SPACELIKE_PRESETS:
        spec = _resolved(name)
        kinds = spec.patch.chart(spec.grid).classify().kinds
        assert not np.any(kinds == KIND_QUASI)
        assert not np.any(kinds == KIND_NEGATIVE)
    _report(10, "line-field indices -1/2, -1, -3/2 measured; no quasi-umbilics")


def test_criterion_11_finite_type_honesty():
    """The flat-exponential preset reports split-orders '>=cap' at every cap
    in {8, 16, 32}, never a finite order."""
    q = _resolved("exA2").patch.hopf()
    for cap in (8, 16, 32):
        so = q.split_orders(cap)
        assert so.plus.order is None and so.minus.order is None, cap
        assert not so.plus.exact_infinite and not so.minus.exact_infinite, cap
        assert so.plus.label == f">={cap}" and so.minus.label == f">={cap}", cap
        report = analyze_point(q, cap=cap)
        assert report.admissible == "undecidable", cap
    _report(11, "flat branches report '>=cap' at caps 8/16/32, never finite")


def test_criterion_12_determinism(tmp_path):
    """Two consecutive runs of every preset produce byte-identical
    CSV/JSON/SVG outputs for all four commands."""
    for preset in PRESET_ORDER:
        for cmd in ("generate", "classify", "index", "flow"):
            a = tmp_path / f"{preset}_{cmd}_a"
            b = tmp_path / f"{preset}_{cmd}_b"
            assert cli_main([cmd, "--preset", preset, "--out", str(a)]) == 0
            assert cli_main([cmd, "--preset", preset, "--out", str(b)]) == 0
            names_a = sorted(p.name for p in a.iterdir())
            names_b = sorted(p.name for p in b.iterdir())
            assert names_a == names_b
            for fname in names_a:
                assert (a / fname).read_bytes() == (b / fname).read_bytes(), (
                    preset,
                    cmd,
                    fname,
                )
    _report(12, "every preset's outputs are byte-identical across runs")
