"""Para-holomorphic calculus: evaluation, derivatives, split orders."""

import random
from fractions import Fraction
from functools import partial

import pytest

from zmcsurf import Branch, ParaComplex, ParaFunction, UnsupportedBranch
from zmcsurf.poly import Poly
from zmcsurf.weierstrass import _primitive

from oracles import exact_horner, para_cr_residual


def _rand_fraction(rng, den=40, span=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _eval_z_poly(coeffs, z):
    """Horner evaluation with paracomplex arithmetic (independent route)."""
    acc = ParaComplex(0, 0)
    for c in reversed(coeffs):
        if not isinstance(c, ParaComplex):
            c = ParaComplex(c, 0)
        acc = acc * z + c
    return acc


def test_identity_reconstruction():
    h = ParaFunction.monomial(1)
    assert h.plus.poly.coeffs == (0, 2)  # 2x with x = (u+v)/2
    z = ParaComplex(2, 3)
    assert h.evaluate(z) == z


def test_square_matches_paracomplex_mul():
    h = ParaFunction.monomial(2)
    assert h.plus.poly.coeffs == (0, 0, 4)  # 4x^2
    z = ParaComplex(1, 1)
    assert h.evaluate(z) == z * z == ParaComplex(2, 2)


def test_evaluate_agrees_with_direct_horner_random():
    rng = random.Random(101)
    for _ in range(40):
        coeffs = [
            ParaComplex(_rand_fraction(rng), _rand_fraction(rng))
            for _ in range(rng.randint(1, 6))
        ]
        h = ParaFunction.from_z_poly(coeffs)
        for _ in range(250):
            z = ParaComplex(_rand_fraction(rng), _rand_fraction(rng))
            assert h.evaluate(z) == _eval_z_poly(coeffs, z)


def test_wedge_flat_function_vanishes_at_origin():
    h = ParaFunction.wedge(Branch.exp_flat(), Branch.exp_flat())
    assert h.evaluate(ParaComplex(0, 0)) == ParaComplex(0, 0)


def test_wedge_satisfies_para_cauchy_riemann():
    h = ParaFunction.wedge(Branch.exp_flat(), Branch.exp_flat())
    for u, v in [(0.4, 0.1), (0.7, -0.2), (-0.5, 0.3)]:
        assert para_cr_residual(h, u, v, step=1e-4) <= 1e-6


def test_derivative_polynomial_rules():
    z2 = ParaFunction.monomial(2)
    d = z2.derivative()
    # 2z has plus branch 4x
    assert d.plus.poly.coeffs == (0, 4)
    assert d.evaluate(ParaComplex(3, 1)) == ParaComplex(3, 1) * 2

    one = ParaFunction.monomial(1).derivative()
    assert one.evaluate(ParaComplex(5, -2)) == ParaComplex(1, 0)

    z3 = ParaFunction.monomial(3)
    z = ParaComplex(1, 1)
    assert z3.derivative().evaluate(z) == 3 * (z * z) == ParaComplex(6, 6)


def test_derivative_matches_definition_by_finite_differences():
    # dh/dz = (h_u + j h_v)/2 for para-holomorphic h
    rng = random.Random(3)
    coeffs = [ParaComplex(1, 2), ParaComplex(0, 1), ParaComplex(-3, 1)]
    h = ParaFunction.from_z_poly(coeffs)
    dh = h.derivative()
    step = 1e-6
    for _ in range(20):
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        hu = (h.evaluate_uv(u + step, v) - h.evaluate_uv(u - step, v)) * (
            1 / (2 * step)
        )
        hv = (h.evaluate_uv(u, v + step) - h.evaluate_uv(u, v - step)) * (
            1 / (2 * step)
        )
        fd = (hu + ParaComplex(0, 1) * hv) * 0.5
        got = dh.evaluate_uv(u, v)
        assert abs(float(got.re) - fd.re) <= 1e-6
        assert abs(float(got.im) - fd.im) <= 1e-6


def test_derivative_unsupported_without_evaluator():
    b = Branch(fn=lambda t: t * t, taylor=Poly([0, 0, 1]))
    h = ParaFunction(b, b)
    with pytest.raises(UnsupportedBranch):
        h.derivative()


def test_callable_order_is_exact_beside_a_tiny_constant():
    """10^-12 + t + exp_flat has order 0 with coefficient exactly 10^-12:
    no threshold mistakes the constant for round-off."""
    b = Branch.from_poly([Fraction(1, 10**12), 1]) + Branch.exp_flat()
    order = b.order_at_zero(16)
    assert (order.order, order.coeff) == (0, Fraction(1, 10**12))
    assert type(order.coeff) is Fraction
    assert b.jets(2) == [Fraction(1, 10**12), 1, 0]


def test_callable_product_order_has_an_exact_coefficient():
    b = Branch.from_poly([0, 0, 0, 1]) * (Branch.constant(1) + Branch.exp_flat())
    order = b.order_at_zero(16)
    assert order.order == 3 and order.coeff == 1
    assert isinstance(order.coeff, (int, Fraction))


def test_a_constant_beside_a_callable_keeps_its_derivative():
    """A constant's derivative is the zero `Poly`, which is falsy but known:
    1 + exp_flat and 2 exp_flat differentiate."""
    flat = Branch.exp_flat()
    for t in (0.0, 0.5, -0.75):
        assert (Branch.constant(1) + flat).derivative()(t) == flat.dfn(t)
        assert (Branch.constant(2) * flat).derivative()(t) == 2 * flat.dfn(t)


@pytest.mark.parametrize("cap", [8, 16])
def test_flat_product_and_its_derivative_have_no_order(cap):
    b = Branch.from_poly([Fraction(1, 3), 0, 5]) * Branch.exp_flat().compose_scale(2)
    for branch in (b, b.derivative()):
        order = branch.order_at_zero(cap)
        assert order.order is None and not order.exact_infinite
        assert order.label == f">={cap}"


def test_order_of_a_branch_without_taylor_polynomial_is_unsupported():
    primitive = _primitive(Branch.exp_flat())
    assert primitive.taylor is None
    with pytest.raises(UnsupportedBranch):
        primitive.order_at_zero(16)


def test_products():
    z = ParaFunction.monomial(1)
    z2 = ParaFunction.monomial(2)
    assert (z * z).plus.poly == z2.plus.poly
    assert (z * z).minus.poly == z2.minus.poly

    # functions supported on opposite idempotent components annihilate
    e1_func = ParaFunction.from_branches([0, 1], [0])
    em1_func = ParaFunction.from_branches([0], [0, 1])
    prod = e1_func * em1_func
    assert not prod.plus.poly and not prod.minus.poly

    one_plus_g2 = ParaFunction.constant(1) + z2 * z2
    assert one_plus_g2.evaluate(ParaComplex(1, 0)) == ParaComplex(2, 0)


def test_n2_splits_into_branch_product():
    rng = random.Random(5)
    h = ParaFunction.from_z_poly([ParaComplex(1, 1), ParaComplex(2, -1)])
    for _ in range(200):
        u, v = _rand_fraction(rng), _rand_fraction(rng)
        assert h.evaluate_uv(u, v).n2() == h.n2_at(u, v)


def test_split_orders_hopf_of_z2_datum():
    # -2z: both branches vanish to first order with coefficient -4
    q = ParaFunction.from_z_poly([0, -2])
    so = q.split_orders(16)
    assert (so.plus.order, so.plus.coeff) == (1, -4)
    assert (so.minus.order, so.minus.coeff) == (1, -4)


def test_split_orders_idempotent_constant():
    # 2*EPS1: plus branch constant 2, minus branch identically zero
    q = ParaFunction.from_z_poly([ParaComplex(1, 1)])
    so = q.split_orders(16)
    assert so.plus.order == 0 and so.plus.coeff == 2
    assert so.minus.order is None and so.minus.exact_infinite
    assert so.minus.label == "inf"


@pytest.mark.parametrize("cap", [8, 16, 32])
def test_split_orders_flat_branch_reports_cap(cap):
    q = ParaFunction.wedge(Branch.exp_flat(), Branch.exp_flat())
    so = q.split_orders(cap)
    assert so.plus.order is None and not so.plus.exact_infinite
    assert so.plus.label == f">={cap}"
    assert so.minus.label == f">={cap}"


def test_normal_form_z3_hopf():
    q = ParaFunction.from_z_poly([0, 0, -3])  # -3 z^2
    nf = q.normal_form(16)
    assert nf.psi_plus_0 == -12 and nf.psi_minus_0 == -12
    assert nf.psi_plus_0 * nf.psi_minus_0 > 0


def test_normal_form_degenerate_pair():
    # branches -3x^2/2 and -7y^6/2 (Hopf data of the x^3/y^7 generator)
    q = ParaFunction.from_branches(
        [0, 0, Fraction(-3, 2)], [0, 0, 0, 0, 0, 0, Fraction(-7, 2)]
    )
    nf = q.normal_form(16)
    assert (nf.orders.plus.order, nf.orders.minus.order) == (2, 6)


def test_normal_form_leading_norm_identity():
    # Q = R(z) z^m with N2(R(0)) = 2^(-2m) psi_plus(0) psi_minus(0)
    q = ParaFunction.from_z_poly([0, -2])
    nf = q.normal_form(16)
    m = nf.orders.plus.order  # both branches have order 1
    lead = ParaComplex(-2, 0)  # z-polynomial leading coefficient R(0)
    assert lead.n2() == Fraction(1, 2**(2 * m)) * nf.psi_plus_0 * nf.psi_minus_0


def test_split_orders_invariant_under_argument_rescaling():
    q = ParaFunction.from_z_poly([0, 0, Fraction(5, 3)])
    base = q.normal_form(16)
    for lam, mu in [(2, 2), (3, Fraction(1, 2)), (Fraction(2, 5), 5)]:
        scaled = ParaFunction(
            q.plus.compose_scale(lam), q.minus.compose_scale(mu)
        )
        nf = scaled.normal_form(16)
        assert nf.orders.plus.order == base.orders.plus.order
        assert nf.orders.minus.order == base.orders.minus.order
        # leading coefficients scale by lam^m, mu^m
        m = base.orders.plus.order
        assert nf.psi_plus_0 == base.psi_plus_0 * lam**m
        assert nf.psi_minus_0 == base.psi_minus_0 * mu**m
        if lam * mu > 0:
            same_sign = (nf.psi_plus_0 * nf.psi_minus_0 > 0) == (
                base.psi_plus_0 * base.psi_minus_0 > 0
            )
            assert same_sign


def test_evaluate_split_matches_paracomplex_route_bulk():
    """10^4 random rational points: branch-split evaluation equals direct
    paracomplex Horner evaluation, exactly."""
    rng = random.Random(2024)
    coeffs = [ParaComplex(Fraction(1, 3), -2), ParaComplex(0, 1), ParaComplex(5, 7)]
    h = ParaFunction.from_z_poly(coeffs)
    for _ in range(10_000):
        z = ParaComplex(_rand_fraction(rng), _rand_fraction(rng))
        assert h.evaluate(z) == _eval_z_poly(coeffs, z)


def _rational_polys():
    rng = random.Random(7)
    yield Poly([0, 1, Fraction(-1, 3), Fraction(5, 7)])
    yield Poly([Fraction(1, 10**30), 10**20, Fraction(-3, 11)])  # int and tiny
    for degree in (0, 1, 5, 26, 64):
        yield Poly([_rand_fraction(rng, den=10**6, span=10**6) for _ in range(degree + 1)])
    yield Poly()


def _same(a, b) -> bool:
    """Equal and of one type; floats bit for bit (the zero polynomial and a
    constant's derivative give the int 0)."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def test_polynomial_in_a_callable_product_is_float_horner_bitwise():
    """A polynomial entering a callable product evaluates at float points by
    Horner over floats converted once, bit for bit Horner over the exact
    coefficients, and at rational points exactly."""
    rng = random.Random(11)
    floats = [0.0, -0.0, 1.0, -1.0, 1e-300, -3.5e200]
    floats += [rng.uniform(-2, 2) for _ in range(200)]
    rationals = [0, 3, Fraction(-7, 3), Fraction(5, 64), Fraction(-1, 10**9)]
    for p in _rational_polys():
        branch = Branch(poly=p)
        dfn, dp = branch._dfn(), p.derivative()  # the derivative a callable mix forms
        for t in floats + rationals:
            assert _same(branch.fn(t), exact_horner(p, t)), (p, t)
            assert _same(dfn(t), exact_horner(dp, t)), (p, t)


def test_float_horner_overflows_as_poly_call_does():
    p = Poly([1, Fraction(10**400, 3)])
    product = Branch(poly=p)
    for fn in (partial(exact_horner, p), product.fn, product.fn):
        with pytest.raises(OverflowError):  # the second call retries the conversion
            fn(0.5)
    assert product.fn(Fraction(1, 2)) == exact_horner(p, Fraction(1, 2))
