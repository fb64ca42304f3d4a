"""The paper's mod-4 index law as a property over random umbilics.

A Hopf coefficient with branches c1 x^m1 (1 + ...) and c-1 y^m-1 (1 + ...)
has an umbilic at the base point.  For even orders the law predicts the
indices from the half-orders n = m/2 and the sign of c1 c-1: {+1, -1} when
both half-orders are odd and c1 c-1 > 0, {0} when c1 c-1 > 0 and either
half-order is even, and an all-negative neighbourhood (no smooth flow)
when c1 c-1 < 0.  `analyze_point` is checked on every drawn example, and
the measured winding of `measure_indices` on a few.  The examples are
derandomized and no example database is kept, so every run draws the
same umbilics.
"""

import tempfile

import pytest

from zmcsurf import Branch, ParaFunction, analyze_point, measure_indices
from zmcsurf.umbilic import PRED_ALL_NEGATIVE

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# keep hypothesis's storage out of the working directory (see test_spec_fuzz)
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None)

even_orders = st.integers(1, 6).map(lambda n: 2 * n)
# a leading coefficient of either sign, and a next-order term small enough
# that psi keeps the leading sign inside the winding radius
leading = st.integers(1, 5) | st.integers(-5, -1)
next_term = st.integers(-3, 3)
branch = st.tuples(even_orders, leading, next_term)


def _qhat(plus, minus) -> ParaFunction:
    (m1, c1, d1), (mm1, cm1, dm1) = plus, minus
    return ParaFunction(
        Branch.from_poly([0] * m1 + [c1, d1]), Branch.from_poly([0] * mm1 + [cm1, dm1])
    )


def _law(plus, minus):
    (m1, c1, _), (mm1, cm1, _) = plus, minus
    if c1 * cm1 < 0:
        return PRED_ALL_NEGATIVE
    if (m1 // 2) % 2 == 1 and (mm1 // 2) % 2 == 1:
        return frozenset({1, -1})
    return frozenset({0})


@PROPERTY
@given(branch, branch)
def test_analyze_point_follows_the_mod4_law(plus, minus):
    report = analyze_point(_qhat(plus, minus))
    assert report.point_type == "umbilic"
    assert report.orders.plus.order == plus[0]
    assert report.orders.minus.order == minus[0]
    assert report.predicted_indices == _law(plus, minus)
    assert report.admissible == ("no" if plus[1] * minus[1] < 0 else "yes")


@settings(PROPERTY, max_examples=10)
@given(branch, branch)
def test_measured_winding_agrees_with_the_mod4_law(plus, minus):
    qhat = _qhat(plus, minus)
    report = measure_indices(analyze_point(qhat), qhat, samples=720)
    if plus[1] * minus[1] < 0:
        assert report.measured_indices is None
        return
    assert set(report.measured_indices.values()) == report.predicted_indices
    assert report.match is True
