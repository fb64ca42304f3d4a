"""Chart classification, Weingarten data, principal directions."""

import math
import random

import numpy as np
import pytest

from zmcsurf import (
    Branch,
    GridSpec,
    ParaFunction,
    WeierstrassData,
    chart_from_arrays,
    classify_chart,
    generate_ko,
    generate_null,
    quasi_umbilic_direction_check,
)
from zmcsurf.geometry import (
    KIND_MASKED,
    KIND_NEGATIVE,
    KIND_POSITIVE,
    KIND_QUASI,
    KIND_UMBILIC,
)
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve

from oracles import reference_classify_node, weingarten
from test_compiled_fields import _null_spec

GRID33 = GridSpec.square(1, 33)


def _chart_ko_monomial(k, grid=GRID33):
    data = WeierstrassData(ParaFunction.monomial(k), ParaFunction.constant(1))
    return generate_ko(data).chart(grid)


def _chart_null(g1, g2, grid=GRID33):
    patch = generate_null(
        Branch.from_poly(g1), Branch.from_poly(g2), Branch.constant(1), Branch.constant(1)
    )
    return patch.chart(grid)


def _single_node_chart(sigma, L, M, N, metric_sign=1):
    grid = GridSpec.square(1, 2)
    fill = lambda x: np.full((2, 2), float(x))
    return chart_from_arrays(
        grid, fill(sigma), fill(L), fill(M), fill(N), metric_sign=metric_sign
    )


# ---------------------------------------------------------------------------
# Weingarten matrix
# ---------------------------------------------------------------------------


def test_weingarten_zero_forms():
    chart = _single_node_chart(0.0, 0.0, 0.0, 0.0)
    assert np.array_equal(weingarten(chart, 0, 0), np.zeros((2, 2)))


def test_weingarten_identity_case():
    chart = _single_node_chart(0.0, 1.0, 0.0, -1.0)
    assert np.allclose(weingarten(chart, 0, 0), np.eye(2))


def test_weingarten_matches_null_route_conjugation():
    """Chart Weingarten (with orientation sign) equals the null-coordinate
    Weingarten conjugated into the (u,v) frame: two independent routes."""
    patch = generate_null(
        Branch.from_poly([0, 1]),
        Branch.from_poly([0, 0, 1]),
        Branch.constant(1),
        Branch.constant(1),
    )
    chart = patch.chart(GRID33)
    Jmat = np.array([[1.0, 1.0], [1.0, -1.0]])
    Jinv = np.array([[0.5, 0.5], [0.5, -0.5]])
    rng = random.Random(12)
    checked = 0
    while checked < 100:
        i = rng.randrange(GRID33.nu)
        j = rng.randrange(GRID33.nv)
        if not chart.mask[i, j]:
            continue
        u, v = chart.node(i, j)
        W_chart = weingarten(chart, i, j)
        W_null = patch.weingarten_null(u, v)
        W_conj = Jmat @ W_null @ Jinv
        assert np.max(np.abs(W_chart - W_conj)) <= 1e-10 * (1 + np.max(np.abs(W_chart)))
        checked += 1


# ---------------------------------------------------------------------------
# pointwise classification
# ---------------------------------------------------------------------------


def test_classify_z3_origin_is_umbilic():
    chart = _chart_ko_monomial(3)
    pc = classify_chart(chart).point(16, 16)
    assert pc.kind == KIND_UMBILIC and not pc.marginal


def test_classify_z2_sign_pattern():
    chart = _chart_ko_monomial(2)
    cls = classify_chart(chart)
    u_nodes, v_nodes = chart.grid.u_nodes(), chart.grid.v_nodes()
    for i, u in enumerate(u_nodes):
        for j, v in enumerate(v_nodes):
            if not chart.mask[i, j]:
                continue
            kind = cls.kinds[i, j]
            if u * u > v * v:
                assert kind == KIND_POSITIVE, (u, v)
            elif u * u < v * v:
                assert kind == KIND_NEGATIVE, (u, v)
            elif (u, v) == (0, 0):
                assert kind == KIND_UMBILIC
            else:
                assert kind == KIND_QUASI


def test_classify_f1_sign_of_discriminant_follows_y():
    chart = _chart_null([0, 1], [0, 0, 1])
    cls = classify_chart(chart)
    for i, u in enumerate(chart.grid.u_nodes()):
        for j, v in enumerate(chart.grid.v_nodes()):
            if not chart.mask[i, j]:
                continue
            y = (u - v) / 2
            kind = cls.kinds[i, j]
            if y > 0:
                assert kind == KIND_POSITIVE
            elif y < 0:
                assert kind == KIND_NEGATIVE
            else:
                assert kind == KIND_QUASI
            if kind == KIND_POSITIVE:
                assert cls.D[i, j] > 0
            if kind == KIND_NEGATIVE:
                assert cls.D[i, j] < 0


def test_classify_chart_partitions_z3():
    chart = _chart_ko_monomial(3)
    cls = classify_chart(chart)
    umb = cls.nodes_of_kind(KIND_UMBILIC)
    assert umb == [(16, 16)]
    # quasi-umbilics exactly on the punctured diagonals
    for (i, j) in cls.nodes_of_kind(KIND_QUASI):
        u, v = chart.node(i, j)
        assert u == v or u == -v
        assert (u, v) != (0, 0)
    # off the diagonals all positive
    counts = cls.counts()
    assert counts[KIND_NEGATIVE] == 0
    assert counts[KIND_POSITIVE] + counts[KIND_QUASI] + 1 + counts[KIND_MASKED] == 33 * 33


def test_classify_chart_plane_totally_umbilic():
    patch = generate_null(
        Branch.constant(0), Branch.constant(0), Branch.constant(1), Branch.constant(1)
    )
    chart = patch.chart(GridSpec.square(1, 17))
    cls = classify_chart(chart)
    assert cls.counts()[KIND_UMBILIC] == 17 * 17


def test_classify_chart_ruled_example_totally_quasi_umbilic():
    from zmcsurf import ParaComplex

    g = ParaFunction.from_z_poly([0, ParaComplex(-1, -1)])
    chart = generate_ko(WeierstrassData(g, ParaFunction.constant(1))).chart(
        GridSpec.square(1, 17)
    )
    cls = classify_chart(chart)
    assert cls.counts()[KIND_QUASI] == 17 * 17
    # the unique principal direction is the null ruling direction (1, -1)
    ref = np.array([1.0, -1.0]) / math.sqrt(2)
    for (i, j), pc in cls.points.items():
        assert len(pc.dirs) == 1
        assert abs(pc.dirs[0] @ np.array([ref[1], -ref[0]])) <= 1e-12


def test_quasi_umbilic_directions_on_z3():
    chart = _chart_ko_monomial(3)
    cls = classify_chart(chart)
    # on L_{-1} (u = -v) the direction is parallel to (1, 1)
    assert quasi_umbilic_direction_check(chart, cls, s=1)
    # on L_{+1} (u = v) the direction is parallel to (-1, 1)
    assert quasi_umbilic_direction_check(chart, cls, s=-1)
    # orthogonal-in-chart control fails
    assert not quasi_umbilic_direction_check(chart, cls, s=1, direction=(-1, 1))


def test_quasi_directions_are_null_for_the_metric():
    chart = _chart_ko_monomial(3)
    cls = classify_chart(chart)
    for (i, j) in cls.nodes_of_kind(KIND_QUASI):
        d = cls.points[(i, j)].dirs[0]
        assert abs(d[0] ** 2 - d[1] ** 2) <= 1e-12


# ---------------------------------------------------------------------------
# discriminant and eigen-structure identities
# ---------------------------------------------------------------------------


def test_discriminant_equals_trace_free_determinant_identity():
    chart = _chart_null([0, 1], [0, 0, 1])
    cls = classify_chart(chart)
    for i in range(chart.grid.nu):
        for j in range(chart.grid.nv):
            if not chart.mask[i, j]:
                continue
            L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
            A = 0.5 * np.array([[L + N, 2 * M], [-2 * M, -(L + N)]])
            D_alt = -4.0 * math.exp(-4.0 * chart.sigma[i, j]) * np.linalg.det(A)
            D = cls.D[i, j]
            assert abs(D - D_alt) <= 1e-12 * (1 + abs(D))


def test_principal_directions_are_weingarten_eigenvectors():
    chart = _chart_null([0, 1], [0, 0, 1])
    cls = classify_chart(chart)
    for (i, j) in cls.nodes_of_kind(KIND_POSITIVE):
        pc = cls.points[(i, j)]
        W = weingarten(chart, i, j)
        lams = pc.eigenvalues
        assert len(pc.dirs) == 2
        for d, lam in zip(pc.dirs, lams):
            assert np.max(np.abs(W @ d - lam * d)) <= 1e-8 * (1 + abs(lam))
            # null-vector test for the trace-free part
            a, b = chart.L[i, j] + chart.N[i, j], 2 * chart.M[i, j]
            B = np.array([[b / 2, a / 2], [a / 2, b / 2]])
            assert abs(d @ B @ d) <= 1e-9 * (1 + abs(a) + abs(b))


def test_eigenvalue_trace_det_identities():
    chart = _chart_null([0, 1], [0, 0, 0, 1])
    cls = classify_chart(chart)
    for (i, j) in cls.nodes_of_kind(KIND_POSITIVE):
        W = weingarten(chart, i, j)
        lam1, lam2 = cls.points[(i, j)].eigenvalues
        assert abs(lam1 + lam2 - np.trace(W)) <= 1e-10 * (1 + abs(lam1) + abs(lam2))
        assert abs(lam1 * lam2 - np.linalg.det(W)) <= 1e-10 * (1 + abs(lam1 * lam2))


def test_negative_points_report_no_real_eigenvalues():
    chart = _chart_ko_monomial(2)
    cls = classify_chart(chart)
    negatives = cls.nodes_of_kind(KIND_NEGATIVE)
    assert negatives
    for (i, j) in negatives:
        pc = cls.points[(i, j)]
        assert pc.eigenvalues is None and pc.dirs == ()


def test_numeric_chart_marginal_flag():
    chart = _single_node_chart(0.0, 1e-12, 0.0, 1e-12)
    pc = classify_chart(chart).point(0, 0)
    assert pc.kind == KIND_UMBILIC and pc.marginal


def test_masked_node_rejected_by_weingarten():
    chart = _chart_ko_monomial(2, GridSpec.square(1, 17))
    with pytest.raises(ValueError):
        weingarten(chart, 16, 8)  # (1, 0) is degenerate



def _plain_unit(p, q):
    """(p, q)/sqrt(p*p + q*q) with its first nonzero component positive."""
    n = math.sqrt(p * p + q * q)
    u, v = p / n, q / n
    return (u, v) if u > 0 or (u == 0 and v > 0) else (-u, -v)


def _expected_dirs(chart, i, j, kind):
    L, M, N = (float(chart.L[i, j]), float(chart.M[i, j]), float(chart.N[i, j]))
    a, b = L + N, 2.0 * M
    if kind == KIND_QUASI and chart.hopf_values is None:  # the null direction (b, -a)
        return [_plain_unit(b, -a)]
    if kind == KIND_QUASI:  # the null direction (s, 1), s = 1 where plus(x) = 0
        plus = chart.hopf_values[0][chart.lattice.ix[i * chart.grid.nv + j]]
        return [_plain_unit(1.0 if plus == 0 else -1.0, 1.0)]
    r = math.sqrt(abs(a * a - b * b))
    out = []
    for lam in (r, -r):
        v1, v2 = (b, lam - a), (a + lam, -b)
        longer = max((v1, v2), key=lambda w: w[0] * w[0] + w[1] * w[1])
        out.append(_plain_unit(*longer))
    return out


def _planted_chart(nu, nv, seed=5):
    """A raw float chart (metric sign -1, no Hopf tables) in which a share
    of the nodes is planted umbilic (L = -N, M = 0), quasi-umbilic
    (|L + N| = |2M|) or masked (sigma NaN)."""
    rng = random.Random(seed)
    sigma, L, M, N = (np.empty((nu, nv)) for _ in range(4))
    for i in range(nu):
        for j in range(nv):
            s = rng.uniform(-0.5, 0.5)
            l, m, n = (rng.uniform(-1.0, 1.0) for _ in range(3))
            r = rng.random()
            if r < 0.08:
                n, m = -l, 0.0
            elif r < 0.16:
                m = rng.choice((-1.0, 1.0)) * (l + n) / 2.0
            elif r < 0.2:
                s = float("nan")
            sigma[i, j], L[i, j], M[i, j], N[i, j] = s, l, m, n
    grid = GridSpec(-1, 1, -1, 1, nu, nv)
    return chart_from_arrays(grid, sigma, L, M, N, metric_sign=-1)


def _generated_chart(spec, nu, nv):
    spec["grid"]["nu"], spec["grid"]["nv"] = nu, nv
    resolved = resolve(spec)
    return resolved.patch.chart(resolved.grid)


CHARTS = {
    "z3": lambda nu, nv: _generated_chart(preset_spec("z3"), nu, nv),
    "f1": lambda nu, nv: _generated_chart(preset_spec("f1"), nu, nv),
    "deg26": lambda nu, nv: _generated_chart(preset_spec("deg26"), nu, nv),
    "float_null": lambda nu, nv: _generated_chart(_null_spec(3, (2, 4), True), nu, nv),
    "raw": _planted_chart,
}


def _hexes(values):
    return None if values is None else [float(c).hex() for c in np.ravel(values)]


@pytest.mark.parametrize("shape", [(33, 33), (17, 23)], ids=["square", "17x23"])
@pytest.mark.parametrize("name", sorted(CHARTS))
def test_array_classifier_matches_per_node_reference(name, shape):
    """Every PointClass field, bit for bit, against the per-node classifier."""
    chart = CHARTS[name](*shape)
    cls = classify_chart(chart)
    kinds = set()
    for i in range(chart.grid.nu):
        for j in range(chart.grid.nv):
            got, want = cls.point(i, j), reference_classify_node(chart, i, j)
            assert (got.kind, got.marginal) == (want.kind, want.marginal), (i, j)
            assert float(got.D).hex() == float(want.D).hex(), (i, j)
            assert _hexes(got.dirs) == _hexes(want.dirs), (i, j)
            assert len(got.dirs) == len(want.dirs), (i, j)
            assert _hexes(got.eigenvalues) == _hexes(want.eigenvalues), (i, j)
            assert cls.kinds[i, j] == got.kind
            kinds.add(got.kind)
    assert {KIND_POSITIVE, KIND_QUASI} <= kinds
    if name == "raw":
        assert {KIND_UMBILIC, KIND_NEGATIVE, KIND_MASKED} <= kinds


@pytest.mark.parametrize("name", ["f1", "f2", "deg26", "raw"])
def test_principal_directions_pinned_to_plain_float_formula(name):
    """No BLAS norm: the directions are bit-identical to IEEE multiplies,
    adds, a square root and divides on every node that has them."""
    if name == "raw":
        chart = _planted_chart(45, 45)
    else:
        chart = _generated_chart(preset_spec(name), 33, 33)
    cls = classify_chart(chart)
    checked = 0
    for (i, j), pc in cls.points.items():
        if not pc.dirs:
            continue
        got = [tuple(float(c).hex() for c in d) for d in pc.dirs]
        expected = _expected_dirs(cls.chart, i, j, pc.kind)
        want = [tuple(c.hex() for c in d) for d in expected]
        assert got == want, (i, j)
        checked += 1
    assert checked > 500
