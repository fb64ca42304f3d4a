"""Surface generation against the frozen closed forms and derived identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import minkowski_cross, numeric_second_forms
from zmcsurf import (
    Branch,
    GridSpec,
    DegenerateDataError,
    ParaComplex,
    ParaFunction,
    WeierstrassData,
    generate_ko,
    generate_null,
    hopf_differential,
    minkowski_dot,
)
from zmcsurf.presets import load_preset
from zmcsurf.weierstrass import _GaussPrimitive, _gauss_legendre, _primitive, numeric_first_forms


def _rand_fraction(rng, den=30):
    return Fraction(rng.randint(-den, den), den)


def _ko_monomial(k):
    return WeierstrassData(ParaFunction.monomial(k), ParaFunction.constant(1))


def _null_patch(g1_coeffs, g2_coeffs):
    return generate_null(
        Branch.from_poly(g1_coeffs),
        Branch.from_poly(g2_coeffs),
        Branch.constant(1),
        Branch.constant(1),
    )


# ---------------------------------------------------------------------------
# closed-form generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,oracle", [(2, oracles.z2_surface), (3, oracles.z3_surface), (5, oracles.z5_surface)])
def test_z_power_surfaces_match_closed_form_exactly(k, oracle):
    patch = generate_ko(_ko_monomial(k))
    rng = random.Random(40 + k)
    for _ in range(100):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        assert patch.evaluate(u, v) == oracle(u, v)


@pytest.mark.parametrize(
    "g1,g2,oracle",
    [
        ([0, 1], [0, 0, 1], oracles.f1_surface),
        ([0, 1], [0, 0, 0, 1], oracles.f2_surface),
        ([0, 0, 0, 1], [0] * 7 + [1], oracles.deg26_surface),
        ([0], [0], oracles.plane_surface),
    ],
)
def test_null_route_surfaces_match_closed_form_exactly(g1, g2, oracle):
    patch = _null_patch(g1, g2)
    rng = random.Random(len(g1) * 10 + len(g2))
    for _ in range(100):
        x, y = _rand_fraction(rng), _rand_fraction(rng)
        assert patch.evaluate_null(x, y) == oracle(x, y)


def test_ruled_surface_from_idempotent_datum():
    # g = -(1+j) z = -2*EPS1*z, omega = dz
    g = ParaFunction.from_z_poly([0, ParaComplex(-1, -1)])
    patch = generate_ko(WeierstrassData(g, ParaFunction.constant(1)))
    rng = random.Random(77)
    for _ in range(100):
        x, y = _rand_fraction(rng), _rand_fraction(rng)
        u, v = x + y, x - y
        assert patch.evaluate(u, v) == oracles.exa1_surface(x, y)


def test_spot_values():
    z2 = generate_ko(_ko_monomial(2))
    assert z2.evaluate(1, 0) == (0, Fraction(2, 3), Fraction(6, 5))
    z3 = generate_ko(_ko_monomial(3))
    assert z3.evaluate(1, 0)[2] == Fraction(8, 7)


def test_float_pipeline_close_to_closed_form():
    patch = generate_ko(_ko_monomial(2))
    rng = random.Random(4)
    for _ in range(100):
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        got = np.array([float(c) for c in patch.evaluate(u, v)])
        want = np.array([float(c) for c in oracles.z2_surface(u, v)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# first fundamental form / normal / mean curvature
# ---------------------------------------------------------------------------


def _sample_patches():
    return [
        ("z2", generate_ko(_ko_monomial(2))),
        ("z3", generate_ko(_ko_monomial(3))),
        ("f1", _null_patch([0, 1], [0, 0, 1])),
        ("deg26", _null_patch([0, 0, 0, 1], [0] * 7 + [1])),
    ]


SAFE_POINTS = [(0.3, 0.1), (-0.2, 0.4), (0.1, -0.35), (0.25, 0.2)]


def test_metric_factor_matches_finite_differences():
    for name, patch in _sample_patches():
        for u, v in SAFE_POINTS:
            E, F, G = numeric_first_forms(patch, u, v)
            factor = float(patch.metric_factor(u, v))
            assert abs(E - factor) <= 1e-6 * (1 + abs(factor)), name
            assert abs(F) <= 1e-6, name
            assert abs(G + factor) <= 1e-6 * (1 + abs(factor)), name


def test_metric_factor_closed_form():
    # -(1 - N2[g])^2 N2[omega] for the para-holomorphic route
    patch = generate_ko(_ko_monomial(2))
    rng = random.Random(9)
    for _ in range(50):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        n2g = (u * u - v * v) ** 2  # N2[z^2] = N2[z]^2
        assert patch.metric_factor(u, v) == -((1 - n2g) ** 2)


def test_degenerate_locus_of_z2_chart():
    # chart degenerates exactly where N2[g] = 1
    patch = generate_ko(_ko_monomial(2))
    assert patch.metric_factor(1, 0) == 0
    assert patch.metric_factor(0, 1) == 0
    assert patch.metric_factor(Fraction(1, 2), 0) != 0


def test_normal_is_unit_and_orthogonal():
    for name, patch in _sample_patches():
        d = patch.data
        for u, v in SAFE_POINTS:
            n = patch.normal(u, v)
            x, y = (u + v) / 2, (u - v) / 2
            g1, g2 = float(d.g1(x)), float(d.g2(y))
            w1, w2 = float(d.w1(x)), float(d.w2(y))
            fx = np.array([(1 - g1 * g1) * w1, 2 * g1 * w1, (1 + g1 * g1) * w1])
            fy = np.array([-(1 - g2 * g2) * w2, 2 * g2 * w2, (1 + g2 * g2) * w2])
            assert abs(minkowski_dot(n, n) - 1.0) <= 1e-10, name
            assert abs(minkowski_dot(n, fx)) <= 1e-10, name
            assert abs(minkowski_dot(n, fy)) <= 1e-10, name


def test_normal_agrees_with_lorentzian_cross_product():
    patch = generate_ko(_ko_monomial(3))
    h = 1e-6
    for u, v in SAFE_POINTS:
        f = lambda uu, vv: np.array([float(c) for c in patch.evaluate(uu, vv)])
        fu = (f(u + h, v) - f(u - h, v)) / (2 * h)
        fv = (f(u, v + h) - f(u, v - h)) / (2 * h)
        cross = minkowski_cross(fu, fv)
        cross = cross / np.sqrt(abs(minkowski_dot(cross, cross)))
        n = patch.normal(u, v)
        # same line; orientation may differ
        assert min(np.max(np.abs(cross - n)), np.max(np.abs(cross + n))) <= 1e-5


def test_second_forms_match_finite_differences_and_zmc():
    for name, patch in _sample_patches():
        for u, v in SAFE_POINTS:
            L, M, N = (float(t) for t in patch.second_forms(u, v))
            Ln, Mn, Nn = numeric_second_forms(patch, u, v)
            scale = 1 + abs(L) + abs(M) + abs(N)
            assert abs(L - Ln) <= 1e-5 * scale, name
            assert abs(M - Mn) <= 1e-5 * scale, name
            assert abs(N - Nn) <= 1e-5 * scale, name
            # zero mean curvature: the du^2 and dv^2 coefficients agree
            factor = abs(float(patch.metric_factor(u, v)))
            assert abs(L - N) <= 1e-8 * factor


# ---------------------------------------------------------------------------
# Hopf coefficient
# ---------------------------------------------------------------------------


def test_hopf_differential_examples():
    q2 = hopf_differential(_ko_monomial(2))
    assert q2.plus.poly.coeffs == (0, -4)  # -2z
    assert q2.evaluate(ParaComplex(1, 1)) == ParaComplex(-2, -2)

    q5 = hopf_differential(_ko_monomial(5))
    want = ParaFunction.from_z_poly([0, 0, 0, 0, -5])
    assert q5.plus.poly == want.plus.poly and q5.minus.poly == want.minus.poly

    # constant g: identically zero
    q0 = hopf_differential(
        WeierstrassData(ParaFunction.constant(-1), ParaFunction.constant(1))
    )
    assert not q0.plus.poly and not q0.minus.poly


def test_hopf_from_patch_equals_data_route():
    for k in (2, 3, 5):
        data = _ko_monomial(k)
        via_data = hopf_differential(data)
        via_patch = generate_ko(data).hopf()
        assert via_patch.plus.poly == via_data.plus.poly
        assert via_patch.minus.poly == via_data.minus.poly


def test_chart_assembly_equals_hopf_after_dz2_normalization():
    """(L + N + 2jM)/4 from the honest fundamental forms equals the Hopf
    coefficient -(omega g'): the factor 4 comes from du = (dz + conj dz)/2."""
    rng = random.Random(31)
    for name, patch in _sample_patches():
        q = patch.hopf()
        for _ in range(25):
            u, v = _rand_fraction(rng), _rand_fraction(rng)
            L, M, N = patch.second_forms(u, v)
            assembled = ParaComplex(L + N, 2 * M)
            expected = q.evaluate_uv(u, v)
            assert assembled.re == 4 * expected.re, name
            assert assembled.im == 4 * expected.im, name


def test_weingarten_null_closed_form():
    # data (x, y^2): off-diagonal entries 2y/(-1+xy^2)^2 and 1/(-1+xy^2)^2
    patch = _null_patch([0, 1], [0, 0, 1])
    rng = random.Random(8)
    for _ in range(50):
        u, v = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        x, y = (u + v) / 2, (u - v) / 2
        den = (-1 + x * y * y) ** 2
        W = patch.weingarten_null(u, v)
        assert abs(W[0, 1] - 2 * y / den) <= 1e-12 * (1 + abs(W[0, 1]))
        assert abs(W[1, 0] - 1 / den) <= 1e-12 * (1 + abs(W[1, 0]))
        assert W[0, 0] == 0.0 and W[1, 1] == 0.0


# ---------------------------------------------------------------------------
# compatibility residuals (para-CR and Codazzi)
# ---------------------------------------------------------------------------


def _forms_at(patch, u, v):
    return tuple(float(t) for t in patch.second_forms(u, v))


def test_para_cauchy_riemann_residuals_of_assembled_hopf():
    h = 1e-4
    for name, patch in _sample_patches():
        for u, v in SAFE_POINTS:
            def a(uu, vv):
                L, M, N = _forms_at(patch, uu, vv)
                return L + N

            def b(uu, vv):
                _L, M, _N = _forms_at(patch, uu, vv)
                return 2 * M

            a_u = (a(u + h, v) - a(u - h, v)) / (2 * h)
            a_v = (a(u, v + h) - a(u, v - h)) / (2 * h)
            b_u = (b(u + h, v) - b(u - h, v)) / (2 * h)
            b_v = (b(u, v + h) - b(u, v - h)) / (2 * h)
            assert abs(a_u - b_v) <= 1e-6, name
            assert abs(a_v - b_u) <= 1e-6, name


def test_codazzi_residuals():
    h = 1e-4
    for name, patch in _sample_patches():
        for u, v in SAFE_POINTS:
            def forms(uu, vv):
                return _forms_at(patch, uu, vv)

            L_v = (forms(u, v + h)[0] - forms(u, v - h)[0]) / (2 * h)
            M_u = (forms(u + h, v)[1] - forms(u - h, v)[1]) / (2 * h)
            N_u = (forms(u + h, v)[2] - forms(u - h, v)[2]) / (2 * h)
            M_v = (forms(u, v + h)[1] - forms(u, v - h)[1]) / (2 * h)
            # L = N for these surfaces, so both right-hand sides vanish
            assert abs(L_v - M_u) <= 1e-6, name
            assert abs(N_u - M_v) <= 1e-6, name


# ---------------------------------------------------------------------------
# charts, masking, degenerate data
# ---------------------------------------------------------------------------


def test_chart_at_origin_of_z2():
    patch = generate_ko(_ko_monomial(2))
    chart = patch.chart(GridSpec.square(1, 17))
    i = j = 8  # origin node
    assert chart.mask[i, j]
    assert chart.sigma[i, j] == 0.0  # conformal factor 1
    # (L+N) + 2jM from the stored forms at the node
    q = ParaComplex(float(chart.L[i, j] + chart.N[i, j]), 2.0 * float(chart.M[i, j]))
    assert q.re == 0.0 and q.im == 0.0  # umbilic at o


def test_chart_masks_degenerate_nodes():
    patch = generate_ko(_ko_monomial(2))
    chart = patch.chart(GridSpec.square(1, 17))
    # (u, v) = (1, 0) and (0, 1) are on the degenerate locus
    assert not chart.mask[16, 8]
    assert not chart.mask[8, 16]
    assert chart.metric_sign[8, 8] == -1  # u-direction is time-like here


def test_strict_base_point_checks():
    # g(o) != 0
    with pytest.raises(DegenerateDataError):
        generate_ko(
            WeierstrassData(ParaFunction.constant(-1), ParaFunction.constant(1))
        )
    # omega null at o
    flat = ParaFunction.wedge(Branch.exp_flat(), Branch.exp_flat())
    with pytest.raises(DegenerateDataError):
        generate_ko(WeierstrassData(ParaFunction.monomial(1), flat))
    patch = generate_ko(
        WeierstrassData(ParaFunction.monomial(1), flat), strict=False
    )
    assert not patch.base_regular


def test_constant_g_minus_one_is_degenerate_not_a_plane():
    """The datum (g, omega) = (-1, dz) has identically vanishing Hopf
    coefficient but its image degenerates to a null line; the chart masks
    everything.  (The datum (j, dz) is an honest plane.)"""
    patch = generate_ko(
        WeierstrassData(ParaFunction.constant(-1), ParaFunction.constant(1)),
        strict=False,
    )
    rng = random.Random(6)
    for _ in range(20):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        assert patch.metric_factor(u, v) == 0

    plane = generate_ko(
        WeierstrassData(
            ParaFunction.constant(ParaComplex(0, 1)), ParaFunction.constant(1)
        ),
        strict=False,
    )
    for _ in range(20):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        assert plane.metric_factor(u, v) == -4
        assert plane.second_forms(u, v) == (0, 0, 0)


def test_quadrature_route_matches_fundamental_theorem():
    spec = load_preset("exA2")
    patch = spec.patch
    # d/dx of the x-primitive recovers the integrand (quadrature accuracy)
    h = 1e-5
    d = patch.data
    for x in (0.2, 0.45, -0.3):
        for a in range(3):
            num = (patch.comps_x[a](x + h) - patch.comps_x[a](x - h)) / (2 * h)
            g1 = float(d.g1(x))
            w1 = float(d.w1(x))
            integrand = [(1 - g1 * g1) * w1, 2 * g1 * w1, (1 + g1 * g1) * w1][a]
            assert abs(num - integrand) <= 1e-8 * (1 + abs(integrand))


def test_exa2_chart_masks_null_base_lines():
    spec = load_preset("exA2")
    chart = spec.patch.chart(spec.grid)
    mid = (spec.grid.nu - 1) // 2
    assert not chart.mask[mid, mid]  # the base point itself degenerates
    assert chart.mask[mid + 3, mid - 2]


FLAT_POINTS = [0.3, 0.5, 0.8, 1, 2, 5, 37, 1e3, 1e6]


def _flat_closed_form(x):
    """The integral of exp(-1/t^2) over [0, x]: odd in x, and for x > 0
    x exp(-1/x^2) - sqrt(pi) erfc(1/x), which cancels digits below ~0.3."""
    r = abs(x)
    closed = r * math.exp(-1 / (r * r)) - math.sqrt(math.pi) * math.erfc(1 / r)
    return math.copysign(closed, x)


@pytest.mark.parametrize("x", FLAT_POINTS + [-x for x in FLAT_POINTS])
def test_flat_primitive_matches_closed_form(x):
    primitive = _primitive(Branch.exp_flat())
    assert primitive(x) == pytest.approx(_flat_closed_form(x), rel=1e-12, abs=0)
    assert primitive(-x) == -primitive(x)


@pytest.mark.parametrize("t", [0.0, 1e-3, 1 / 32, 0.5, 1e3, 1e12, 1e300, -1e300])
def test_flat_primitive_cost_is_logarithmic_in_t(t):
    flat, calls = Branch.exp_flat(), []
    primitive = _GaussPrimitive(lambda s: calls.append(s) or flat(s))
    value = primitive(t)
    bound = 20 * (3 + max(0, math.ceil(math.log2(32 * abs(t))))) if t else 0
    assert len(calls) <= bound
    if abs(t) >= 0.5:
        assert value == pytest.approx(_flat_closed_form(t), rel=1e-12)


def test_flat_primitive_does_not_depend_on_call_order():
    points = [0.7, -0.05, 3.0, 0.01, -2.5, 100.0, 1 / 32, 0.75]
    forward = _primitive(Branch.exp_flat())
    backward = _primitive(Branch.exp_flat())
    values = [forward(t) for t in points]
    assert values == [backward(t) for t in reversed(points)][::-1]
    assert values == [forward(t) for t in points]


def test_gauss_legendre_rule_is_exact_through_degree_39():
    rule = _gauss_legendre()
    assert len(rule) == 20
    assert [x for x, _ in rule] == [-x for x, _ in reversed(rule)]
    for k in range(40):
        moment = math.fsum(w * x**k for x, w in rule)
        assert moment == pytest.approx(2 / (k + 1) if k % 2 == 0 else 0, abs=4e-16)
