"""Space-like comparison layer: Kobayashi-type generation and the -m/2 law."""

import math
import random

import numpy as np
import pytest

from oracles import (
    numeric_second_forms,
    reference_spacelike_classification_csv,
    spacelike_conformal_factor,
    spacelike_forms,
    spacelike_hopf,
    spacelike_normal,
)
from test_chart_engine import NON_SQUARE
from zmcsurf import (
    ComplexWeierstrassData,
    GridSpec,
    Poly,
    generate_kobayashi,
    monomial_hopf_data,
    spacelike_index,
)
from zmcsurf.geometry import classify_chart
from zmcsurf.outputs import classification_csv
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve
from zmcsurf.weierstrass import minkowski_dot, numeric_first_forms

SAFE_POINTS = [(0.3, 0.1), (-0.25, 0.2), (0.1, -0.35), (0.2, 0.25)]


def test_plane_from_zero_datum():
    patch = generate_kobayashi(ComplexWeierstrassData(Poly([0]), Poly([1])))
    assert np.allclose(patch.evaluate(0.7, -0.4), [0.7, 0.4, 0.0])
    _sigma, L, M, N = spacelike_forms(patch, 0.7, -0.4)
    assert (L, M, N) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hopf_coefficient_is_monomial(m):
    patch = generate_kobayashi(monomial_hopf_data(m))
    rng = random.Random(m)
    for _ in range(50):
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        z = complex(u, v)
        assert abs(spacelike_hopf(patch, u, v) - z**m) <= 1e-12 * (1 + abs(z) ** m)
    assert spacelike_hopf(patch, 1.0, 0.0) == pytest.approx(1.0)  # m-th power at z=1


def test_metric_is_isothermal_and_matches_conformal_factor():
    patch = generate_kobayashi(monomial_hopf_data(2))
    for u, v in SAFE_POINTS:
        E, F, G = numeric_first_forms(patch, u, v)
        factor = spacelike_conformal_factor(patch, u, v)
        assert abs(E - factor) <= 1e-10 * (1 + factor)
        assert abs(G - factor) <= 1e-10 * (1 + factor)
        assert abs(F) <= 1e-10 * (1 + factor)
        assert factor > 0


def test_normal_is_unit_timelike_and_orthogonal():
    patch = generate_kobayashi(monomial_hopf_data(1))
    h = 1e-6
    for u, v in SAFE_POINTS:
        n = spacelike_normal(patch, u, v)
        assert abs(minkowski_dot(n, n) + 1.0) <= 1e-10
        f = patch.evaluate
        fu = (f(u + h, v) - f(u - h, v)) / (2 * h)
        fv = (f(u, v + h) - f(u, v - h)) / (2 * h)
        assert abs(minkowski_dot(n, fu)) <= 1e-6
        assert abs(minkowski_dot(n, fv)) <= 1e-6


def test_second_forms_match_finite_differences_and_zmc():
    for m in (1, 2):
        patch = generate_kobayashi(monomial_hopf_data(m))
        for u, v in SAFE_POINTS:
            _sigma, L, M, N = spacelike_forms(patch, u, v)
            Ln, Mn, Nn = numeric_second_forms(patch, u, v)
            scale = 1 + abs(L) + abs(M) + abs(N)
            assert abs(L - Ln) <= 1e-5 * scale
            assert abs(M - Mn) <= 1e-5 * scale
            assert abs(N - Nn) <= 1e-5 * scale
            assert abs(L + N) <= 1e-12 * scale  # zero mean curvature


def test_cauchy_riemann_residual_of_hopf_assembly():
    patch = generate_kobayashi(monomial_hopf_data(2))
    h = 1e-4
    for u, v in SAFE_POINTS:
        # L - N
        A = lambda uu, vv: spacelike_forms(patch, uu, vv)[1] - spacelike_forms(patch, uu, vv)[3]
        B = lambda uu, vv: -2.0 * spacelike_forms(patch, uu, vv)[2]  # -2M
        a_u = (A(u + h, v) - A(u - h, v)) / (2 * h)
        a_v = (A(u, v + h) - A(u, v - h)) / (2 * h)
        b_u = (B(u + h, v) - B(u - h, v)) / (2 * h)
        b_v = (B(u, v + h) - B(u, v - h)) / (2 * h)
        assert abs(a_u - b_v) <= 1e-6
        assert abs(a_v + b_u) <= 1e-6


def test_codazzi_residuals_spacelike_convention():
    patch = generate_kobayashi(monomial_hopf_data(3))
    h = 1e-4
    for u, v in SAFE_POINTS:
        L = lambda uu, vv: spacelike_forms(patch, uu, vv)[1]
        M = lambda uu, vv: spacelike_forms(patch, uu, vv)[2]
        N = lambda uu, vv: spacelike_forms(patch, uu, vv)[3]
        sig = lambda uu, vv: spacelike_forms(patch, uu, vv)[0]
        L_v = (L(u, v + h) - L(u, v - h)) / (2 * h)
        M_u = (M(u + h, v) - M(u - h, v)) / (2 * h)
        N_u = (N(u + h, v) - N(u - h, v)) / (2 * h)
        M_v = (M(u, v + h) - M(u, v - h)) / (2 * h)
        sig_v = (sig(u, v + h) - sig(u, v - h)) / (2 * h)
        sig_u = (sig(u + h, v) - sig(u - h, v)) / (2 * h)
        trace = L(u, v) + N(u, v)
        assert abs(L_v - M_u - sig_v * trace) <= 1e-6
        assert abs(N_u - M_v - sig_u * trace) <= 1e-6


@pytest.mark.parametrize("m,want", [(1, -0.5), (2, -1.0), (3, -1.5)])
def test_line_field_index_law(m, want):
    res = spacelike_index(m)
    assert res.index == want
    # radius-halving stability
    assert spacelike_index(m, radius=0.05).index == want


def test_umbilics_isolated_and_no_quasi_umbilics():
    for m in (1, 2, 3):
        patch = generate_kobayashi(monomial_hopf_data(m))
        chart = patch.chart(GridSpec.square(1, 33))
        kinds = chart.classify().kinds
        mid = 16
        assert kinds[mid, mid] == "umbilic"
        # the squared modulus of the Hopf coefficient vanishes only at o
        for i, u in enumerate(chart.grid.u_nodes()):
            for j, v in enumerate(chart.grid.v_nodes()):
                if float(u) ** 2 + float(v) ** 2 > 0.25 or (u == 0 and v == 0):
                    continue
                assert abs(spacelike_hopf(patch, u, v)) ** 2 > 0
                assert kinds[i, j] == "positive"
        assert not np.any(kinds == "quasi_umbilic")
        assert not np.any(kinds == "negative")


def test_eigenvalue_discriminant_nonnegative():
    patch = generate_kobayashi(monomial_hopf_data(2))
    rng = random.Random(2)
    for _ in range(200):
        u, v = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        sigma, L, M, N = spacelike_forms(patch, u, v)
        disc = ((L - N) ** 2 + 4 * M * M) * math.exp(-4 * sigma)
        assert disc >= 0


def _spacelike_chart(preset, grid):
    resolved = resolve(preset_spec(preset))
    return resolved.spacelike_patch.chart(grid or resolved.grid)


@pytest.mark.parametrize("grid", [17, 33, "non_square"])
@pytest.mark.parametrize("preset", ["spacelike_m1", "spacelike_m2", "spacelike_m3"])
def test_shared_pipeline_matches_reference_writer(preset, grid):
    grid = NON_SQUARE if grid == "non_square" else GridSpec.square(1, grid)
    chart = _spacelike_chart(preset, grid)
    rows = classification_csv(classify_chart(chart)).splitlines()
    want = reference_spacelike_classification_csv(chart).splitlines()
    assert len(rows) == len(want)
    for k, (row, ref) in enumerate(zip(rows, want)):
        assert row == ref, k  # a short message: a whole-file diff is slow


@pytest.mark.parametrize("preset", ["spacelike_m1", "spacelike_m2", "spacelike_m3"])
def test_point_classes_match_eigh(preset):
    chart = _spacelike_chart(preset, GridSpec.square(1, 33))
    cls = chart.classify()
    rng = random.Random(preset)
    nodes = [(16, 16)] + [(rng.randrange(33), rng.randrange(33)) for _ in range(60)]
    for i, j in nodes:
        pc = cls.points[(i, j)]
        L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
        shape = math.exp(-2.0 * chart.sigma[i, j]) * np.array([[L, M], [M, N]])
        values, vectors = np.linalg.eigh(shape)
        scale = 1e-12 * (1.0 + np.abs(values).max())
        if pc.kind == "umbilic":
            assert pc.marginal and pc.dirs == () and pc.eigenvalues == (0.0, 0.0)
            assert np.abs(values).max() <= 1e-9 * (1.0 + abs(L) + abs(M) + abs(N))
            continue
        assert pc.kind == "positive" and not pc.marginal
        # eigh sorts ascending; the PointClass pairs (+r, -r) with dirs
        assert abs(pc.eigenvalues[0] - values[1]) <= scale
        assert abs(pc.eigenvalues[1] - values[0]) <= scale
        for d, k in zip(pc.dirs, (1, 0)):
            assert abs(math.hypot(*d) - 1.0) <= 1e-15
            assert abs(abs(np.dot(d, vectors[:, k])) - 1.0) <= 1e-12
        assert pc.D == pytest.approx((values[1] - values[0]) ** 2, rel=1e-12)
    assert cls.points[(16, 16)].kind == "umbilic"


def _forms_line_field(patch, u, v):
    """The principal line field from the full forms (sigma, L, M, N)."""
    _sigma, L, M, N = spacelike_forms(patch, u, v)
    a = (L - N) / 2.0
    if a == 0.0 and M == 0.0:
        return (0.0, 0.0)
    theta = 0.5 * math.atan2(M, a)
    return (math.cos(theta), math.sin(theta))


COMPLEX_DATUM = ComplexWeierstrassData(
    Poly([0, 0.3 + 0.2j, -0.5 + 0.1j, 0.25j]), Poly([1, 0.2 - 0.3j])
)


@pytest.mark.parametrize(
    "name", ["spacelike_m1", "spacelike_m2", "spacelike_m3", "complex"]
)
def test_line_field_from_hopf_alone_matches_forms_route(name):
    """The field evaluates omega_hat and g' only, and is bit-identical to
    the route through `forms`, which also evaluates g and sigma."""
    if name == "complex":
        patch = generate_kobayashi(COMPLEX_DATUM)
    else:
        patch = resolve(preset_spec(name)).spacelike_patch
    field = patch.principal_line_field()
    rng = random.Random(name)
    for _ in range(250):
        u, v = rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)
        got = [c.hex() for c in field(u, v)]
        assert got == [c.hex() for c in _forms_line_field(patch, u, v)], (u, v)
