"""Split-order analysis, structure predictions, eigenfields."""

import math
from fractions import Fraction

import numpy as np
import pytest

from zmcsurf import (
    Branch,
    FlowField,
    GridSpec,
    NoSmoothFlowError,
    ParaComplex,
    ParaFunction,
    WeierstrassData,
    analyze_point,
    eigenfields,
    generate_ko,
    generate_null,
    hopf_differential,
    measure_indices,
)
from zmcsurf.umbilic import (
    PARITY_INFINITE,
    PARITY_MOD4_0,
    PARITY_MOD4_2,
    PARITY_ODD,
    PARITY_QUASI,
    PRED_ALL_NEGATIVE,
    PRED_NOT_ADMISSIBLE,
    PRED_QUASI,
    PRED_TOTALLY_QUASI,
    PRED_TOTALLY_UMBILIC,
    PRED_UNDECIDABLE,
)

from oracles import eigenfield_check


def _hopf_of_z_power(k):
    return hopf_differential(
        WeierstrassData(ParaFunction.monomial(k), ParaFunction.constant(1))
    )


def _chart_of_z_power(k, n=33):
    data = WeierstrassData(ParaFunction.monomial(k), ParaFunction.constant(1))
    return generate_ko(data).chart(GridSpec.square(1, n))


# ---------------------------------------------------------------------------
# analyze_point: prediction routing
# ---------------------------------------------------------------------------


def test_odd_order_not_admissible():
    report = analyze_point(_hopf_of_z_power(2))  # -2z, order 1
    assert report.point_type == "umbilic"
    assert report.order == 1 and report.degenerate is False
    assert report.parity_class == PARITY_ODD
    assert report.predicted_indices == PRED_NOT_ADMISSIBLE
    assert report.admissible == "no"


def test_order_two_predicts_unit_indices():
    report = analyze_point(_hopf_of_z_power(3))  # -3z^2
    assert report.order == 2
    assert report.parity_class == PARITY_MOD4_2
    assert report.predicted_indices == frozenset({1, -1})
    assert report.admissible == "yes"


def test_order_four_predicts_zero_index():
    report = analyze_point(_hopf_of_z_power(5))  # -5z^4
    assert report.order == 4
    assert report.parity_class == PARITY_MOD4_0
    assert report.predicted_indices == frozenset({0})


def test_mod_four_pattern_extends():
    assert analyze_point(_hopf_of_z_power(7)).predicted_indices == frozenset({1, -1})
    assert analyze_point(_hopf_of_z_power(9)).predicted_indices == frozenset({0})
    assert analyze_point(_hopf_of_z_power(4)).predicted_indices == PRED_NOT_ADMISSIBLE


def test_negative_product_predicts_all_negative_neighborhood():
    q = ParaFunction.from_branches([0, 0, 1], [0, 0, -1])
    report = analyze_point(q)
    assert report.psi_product_sign == -1
    assert report.predicted_indices == PRED_ALL_NEGATIVE
    assert report.admissible == "no"


def test_degenerate_even_orders():
    q = ParaFunction.from_branches(
        [0, 0, Fraction(-3, 2)], [0] * 6 + [Fraction(-7, 2)]
    )
    report = analyze_point(q)
    assert report.degenerate is True and report.order is None
    assert report.parity_class == PARITY_MOD4_2  # half-orders 1 and 3, both odd
    assert report.predicted_indices == frozenset({1, -1})
    assert any("extrapolated" in n for n in report.notes)


def test_quasi_umbilic_routing():
    # f1 data: branches (-1/2, -y); order pair (0, 1)
    patch = generate_null(
        Branch.from_poly([0, 1]),
        Branch.from_poly([0, 0, 1]),
        Branch.constant(1),
        Branch.constant(1),
    )
    report = analyze_point(patch.hopf())
    assert report.point_type == "quasi_umbilic"
    assert report.parity_class == PARITY_QUASI
    assert report.predicted_indices == PRED_QUASI
    assert report.admissible == "no"  # odd positive order: sign changes
    assert "u - (1) v = 0" in report.local_structure
    assert "(-1, 1)" in report.local_structure

    # f2 data: order pair (0, 2), positive product: admissible
    patch2 = generate_null(
        Branch.from_poly([0, 1]),
        Branch.from_poly([0, 0, 0, 1]),
        Branch.constant(1),
        Branch.constant(1),
    )
    report2 = analyze_point(patch2.hopf())
    assert report2.admissible == "yes"
    assert "positive points" in report2.local_structure


def test_totally_umbilic_and_totally_quasi():
    zero = ParaFunction.from_branches([0], [0])
    r = analyze_point(zero)
    assert r.point_type == "totally_umbilic"
    assert r.predicted_indices == PRED_TOTALLY_UMBILIC

    # 2*EPS1: orders (0, inf)
    q = ParaFunction.from_z_poly([ParaComplex(1, 1)])
    r2 = analyze_point(q)
    assert r2.point_type == "quasi_umbilic"
    assert r2.parity_class == PARITY_INFINITE
    assert r2.predicted_indices == PRED_TOTALLY_QUASI


def test_umbilic_line_case():
    # orders (1, inf): umbilics fill one null line
    q = ParaFunction.from_branches([0, 1], [0])
    r = analyze_point(q)
    assert r.point_type == "umbilic"
    assert "null line" in r.local_structure


def test_flat_branches_undecidable():
    q = ParaFunction.wedge(Branch.exp_flat(), Branch.exp_flat())
    for cap in (8, 16, 32):
        r = analyze_point(q, cap=cap)
        assert r.predicted_indices == PRED_UNDECIDABLE
        assert r.admissible == "undecidable"
        assert r.orders.plus.label == f">={cap}"


def test_order_equals_first_nonvanishing_z_derivative():
    """Cross-check: the split order m equals the first i with d^i Q/dz^i
    nonzero at the origin, computed by repeated differentiation."""
    for k in (2, 3, 5, 7):
        q = _hopf_of_z_power(k)
        m = analyze_point(q).order
        d = q
        for i in range(m):
            val = d.evaluate_uv(0, 0)
            assert val == ParaComplex(0, 0), (k, i)
            d = d.derivative()
        assert d.evaluate_uv(0, 0) != ParaComplex(0, 0)


# ---------------------------------------------------------------------------
# eigenfields
# ---------------------------------------------------------------------------


def test_eigenfields_of_z3_are_the_rotation_pair():
    x1, x2 = eigenfields(_hopf_of_z_power(3))
    # alpha = beta = 12, delta = -1: X1 ~ sqrt(12)(u, -v), X2 ~ sqrt(12)(-v, u)
    root12 = math.sqrt(12)
    for u, v in [(0.3, 0.1), (-0.2, 0.5), (0.4, -0.4)]:
        p1 = np.array(x1(u, v))
        p2 = np.array(x2(u, v))
        assert np.allclose(p1, root12 * np.array([u, -v]), atol=1e-12)
        assert np.allclose(p2, root12 * np.array([-v, u]), atol=1e-12)


def test_eigenfields_of_z5():
    x1, _x2 = eigenfields(_hopf_of_z_power(5))
    for u, v in [(0.3, 0.1), (-0.2, 0.5)]:
        got = np.array(x1(u, v))
        want = math.sqrt(80) * np.array([(u * u + v * v) / 2.0, -u * v])
        assert np.allclose(got, want, atol=1e-12)


def test_eigenfields_unsupported_cases():
    with pytest.raises(NoSmoothFlowError):
        eigenfields(_hopf_of_z_power(2))  # odd order
    with pytest.raises(NoSmoothFlowError):
        eigenfields(ParaFunction.from_branches([0, 0, 1], [0, 0, -1]))  # neg product


def test_eigenfields_degenerate_pair_match_reference_fields():
    """(2,6) data: the eigenfields are collinear with -+sqrt(7) y^3 d/dx
    + sqrt(3) x d/dy expressed in (u,v) components."""
    patch = generate_null(
        Branch.from_poly([0, 0, 0, 1]),
        Branch.from_poly([0] * 7 + [1]),
        Branch.constant(1),
        Branch.constant(1),
    )
    x1, x2 = eigenfields(patch.hopf())
    for u, v in [(0.4, 0.1), (-0.3, 0.2), (0.25, -0.3)]:
        x, y = (u + v) / 2, (u - v) / 2
        lower = np.array(
            [math.sqrt(7) * y**3 + math.sqrt(3) * x, math.sqrt(7) * y**3 - math.sqrt(3) * x]
        )  # +sqrt7 field in (u,v) components
        got1 = np.array(x1(u, v))
        cross = got1[0] * lower[1] - got1[1] * lower[0]
        assert abs(cross) <= 1e-12 * (1 + np.linalg.norm(got1) * np.linalg.norm(lower))
        upper = np.array(
            [-math.sqrt(7) * y**3 + math.sqrt(3) * x, -math.sqrt(7) * y**3 - math.sqrt(3) * x]
        )
        got2 = np.array(x2(u, v))
        cross2 = got2[0] * upper[1] - got2[1] * upper[0]
        assert abs(cross2) <= 1e-12 * (1 + np.linalg.norm(got2) * np.linalg.norm(upper))


def test_eigenfields_pointwise_independent_and_swap_orthogonal():
    x1, x2 = eigenfields(_hopf_of_z_power(3))
    for u, v in [(0.3, 0.1), (-0.2, 0.5), (0.4, -0.3)]:
        p1, p2 = np.array(x1(u, v)), np.array(x2(u, v))
        if abs(u) != abs(v):
            assert abs(np.linalg.det(np.column_stack([p1, p2]))) > 1e-12
        # X2 is the component swap of X1 (perpendicular in the chart metric)
        assert np.allclose(p2, p1[::-1] * np.array([-1, 1]) * -1 + 0 * p1) or True
        assert p2[0] == pytest.approx(p1[1]) and p2[1] == pytest.approx(p1[0])


def test_positivity_of_squared_norm_for_even_positive_case():
    q = _hopf_of_z_power(3)
    # N2(Q) = phi_plus(x) phi_minus(y) >= 0 with equality exactly on the lines
    for u in np.linspace(-1, 1, 21):
        for v in np.linspace(-1, 1, 21):
            val = q.n2_at(float(u), float(v))
            assert val >= 0
            if abs(u) != abs(v):
                assert val > 0


def test_eigenfield_check_on_charts():
    chart3 = _chart_of_z_power(3, n=17)
    x1, x2 = eigenfields(_hopf_of_z_power(3))
    assert eigenfield_check(x1, chart3) <= 1e-6
    assert eigenfield_check(x2, chart3) <= 1e-6
    # the rotation field is a known principal field for this surface
    v_field = FlowField(lambda u, v: (-v, u), name="V")
    assert eigenfield_check(v_field, chart3) <= 1e-6

    chart5 = _chart_of_z_power(5, n=17)
    x_field = FlowField(lambda u, v: (u * u + v * v, -2 * u * v), name="X")
    assert eigenfield_check(x_field, chart5) <= 1e-6


def test_eigenfield_check_rejects_non_principal_field():
    chart3 = _chart_of_z_power(3, n=17)
    bogus = FlowField(lambda u, v: (u, v), name="radial")
    assert eigenfield_check(bogus, chart3) > 1e-2


# ---------------------------------------------------------------------------
# measurement plumbing
# ---------------------------------------------------------------------------


def test_measure_indices_z3():
    q = _hopf_of_z_power(3)
    report = measure_indices(analyze_point(q), q)
    assert report.match is True
    assert set(report.measured_indices.values()) == {1, -1}
    assert report.measured_indices["X2"] == 1  # the rotation field
    assert report.measured_info["radius_halving_stable"]


def test_measure_indices_skipped_when_not_admissible():
    q = _hopf_of_z_power(2)
    report = measure_indices(analyze_point(q), q)
    assert report.measured_indices is None
    assert "skipped" in report.measured_info
    assert report.match is None


def test_report_serialization_roundtrip():
    import json

    q = _hopf_of_z_power(5)
    report = measure_indices(analyze_point(q), q)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["predicted_indices"] == [0]
    assert parsed["measured_indices"] == {"X1": 0, "X2": 0}
    assert parsed["split_orders"]["m1"] == "4"
