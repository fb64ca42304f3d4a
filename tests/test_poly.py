"""Exact univariate polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from zmcsurf import Poly

from oracles import exact_horner, schoolbook_product


def test_evaluation_exact():
    p = Poly([Fraction(1), Fraction(-2), Fraction(3)])  # 1 - 2t + 3t^2
    assert p(Fraction(1, 2)) == Fraction(3, 4)
    assert p(0) == 1


def test_trailing_zero_trim_and_degree():
    assert Poly([0, 1, 0]).degree == 1
    assert Poly([]).degree == -1
    assert not Poly([0, 0])


def test_arithmetic():
    p, q = Poly([1, 1]), Poly([-1, 1])
    assert p * q == Poly([-1, 0, 1])
    assert p + q == Poly([0, 2])
    assert p - p == Poly()
    assert 2 * p == Poly([2, 2])


def test_derivative_antiderivative_roundtrip():
    p = Poly([Fraction(5), Fraction(0), Fraction(7), Fraction(-2)])
    assert p.antiderivative().derivative() == p
    assert p.antiderivative()(0) == 0
    # antidifferentiation of ints stays exact
    q = Poly([1, 2, 3])
    assert q.antiderivative() == Poly([0, 1, 1, 1])


def test_scale_arg():
    p = Poly([0, 0, 1])  # t^2
    assert p.scale_arg(2) == Poly([0, 0, 4])
    assert p.scale_arg(Fraction(1, 2))(Fraction(2)) == 1


def test_trailing_order_and_deflate():
    p = Poly([0, 0, 0, 5, 1])
    assert p.trailing_order() == 3
    assert p.deflate(3) == Poly([5, 1])
    assert Poly().trailing_order() is None
    with pytest.raises(ValueError):
        Poly([1, 2]).deflate(1)


def test_complex_coefficients_work():
    p = Poly([1, 1j])
    assert p(1j) == 1 + 1j * 1j  # 0j expected via ring rules
    assert p.antiderivative() == Poly([0, 1, 1j / 2])


def _bits(value):
    """Type and value, floats bit for bit."""
    return type(value), value.hex() if isinstance(value, float) else value


FLOAT_POINTS = [0.0, -0.0, 0.5, -1.75, 3e-5, -2.5e100, 1e-300, float("inf"), float("nan")]


@pytest.mark.parametrize(
    "p",
    [
        Poly(),
        Poly([7]),
        Poly([Fraction(-5, 6)]),
        Poly([1, -2, 5, 0, 7]),
        Poly([0, Fraction(1, 3), Fraction(-2, 7), 10**20, Fraction(1, 10**30)]),
        Poly([0.25, -1.5, 3, Fraction(1, 3)]),
    ],
    ids=["zero", "int_constant", "fraction_constant", "int_quartic", "mixed", "float_mixed"],
)
def test_float_path_is_exact_horner_bitwise(p):
    for t in FLOAT_POINTS:
        assert _bits(p(t)) == _bits(exact_horner(p, t)), t


def test_float_coeffs_are_converted_once_and_leave_the_value_alone():
    p = Poly([1, Fraction(1, 3), 2])
    q = Poly([1, Fraction(1, 3), 2])
    assert p.float_coeffs() == (2.0, 1 / 3, 1.0)
    assert p.float_coeffs() is p.float_coeffs()
    assert p == q and hash(p) == hash(q)
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_float_path_overflows_on_every_call():
    p = Poly([1, 10**400])
    for _ in range(2):
        with pytest.raises(OverflowError):
            p(0.5)
        with pytest.raises(OverflowError):
            p.float_coeffs()
    assert p(Fraction(1, 2)) == 1 + Fraction(10**400, 2)


def test_complex_coefficients_keep_the_exact_loop_at_float_points():
    p = Poly([1, 1j, Fraction(1, 3)])
    for t in (0.5, -2.0):
        assert p(t) == exact_horner(p, t)
    with pytest.raises(TypeError):
        p.float_coeffs()


# the README's dense degree-64 g: 0, -1/2, 1/3, ..., 1/65
DENSE = Poly([0] + [Fraction((-1) ** k, k + 1) for k in range(1, 65)])
EXACT_POINTS = [Fraction(-7, 3), Fraction(-1), Fraction(0), Fraction(5, 4), Fraction(511, 512)]
EXACT_POLYS = pytest.mark.parametrize(
    "p", [Poly(), Poly([7]), Poly([Fraction(-5, 6)]), DENSE,
          Poly([0, Fraction(1, 10**40), -(10**30), Fraction(7, 3)])],
    ids=["zero", "int_constant", "fraction_constant", "dense_64", "mixed"],
)


@EXACT_POLYS
def test_numerators_over_one_positive_denominator(p):
    ints, den = p.numerators(EXACT_POINTS)
    assert type(den) is int and den > 0 and all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == [p(t) for t in EXACT_POINTS]


def test_numerators_need_exact_coefficients_and_points():
    assert Poly([1, 0.5]).numerators(EXACT_POINTS) is None
    assert DENSE.numerators([Fraction(1, 2), 0.5]) is None
    assert Poly().numerators([0.5]) is None


def _exact_coeffs(rng, n, kinds):
    out = []
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "zero":
            out.append(rng.choice((0, Fraction(0))))
        elif kind == "int":
            out.append(rng.randint(-10**30, 10**30))
        else:
            out.append(Fraction(rng.randint(-999, 999), rng.randint(1, 10**12)))
    return out + [rng.choice((1, Fraction(-7, 3)))]


@pytest.mark.parametrize("kinds", [("int",), ("fraction",), ("int", "fraction", "zero")])
def test_exact_product_is_the_schoolbook_product(kinds):
    """Value and type (int or Fraction) of every coefficient, for int,
    Fraction and mixed factors with interior zeros, up to degree 64."""
    rng = random.Random(len(kinds))
    for _ in range(40):
        a = _exact_coeffs(rng, rng.randint(0, 64), kinds)
        b = _exact_coeffs(rng, rng.randint(0, 64), kinds)
        got = (Poly(a) * Poly(b)).coeffs
        want = Poly(schoolbook_product(a, b)).coeffs
        assert got == want
        assert [type(c) for c in got] == [type(c) for c in want]


def test_inexact_factors_keep_the_schoolbook_order():
    a = [0.1, Fraction(1, 3), 2]
    b = [3, 1e-17, 0.7]
    for x, y in ((a, b), (b, a), (a, [1j, 2])):
        got = (Poly(x) * Poly(y)).coeffs
        assert [complex(c) for c in got] == [complex(c) for c in schoolbook_product(x, y)]
