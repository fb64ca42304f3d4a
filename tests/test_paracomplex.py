"""Split-complex arithmetic: ring structure, norm form, idempotent split."""

import random
from fractions import Fraction

import pytest

from zmcsurf import (
    EPS1,
    EPSM1,
    J,
    IdempotentPair,
    ParaComplex,
    decompose,
    recompose,
)


def _rand_fraction(rng, den=60, span=120):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def _rand_pc(rng):
    return ParaComplex(_rand_fraction(rng), _rand_fraction(rng))


def test_j_squared_is_one():
    assert J * J == ParaComplex(1, 0)


def test_idempotent_relations():
    assert EPS1 * EPSM1 == ParaComplex(0, 0)
    assert EPS1 * EPS1 == EPS1
    assert EPSM1 * EPSM1 == EPSM1
    assert EPS1.conj() == EPSM1


def test_mul_example_with_norm_check():
    a, b = ParaComplex(1, 2), ParaComplex(3, 1)
    prod = a * b
    assert prod == ParaComplex(5, 7)
    assert a.n2() == -3
    assert b.n2() == 8
    assert prod.n2() == -24 == a.n2() * b.n2()


def test_n2_examples():
    assert ParaComplex(3, 1).n2() == 8
    assert ParaComplex(1, 1).n2() == 0
    z = ParaComplex(2, 3)
    assert z.n2() == -5
    assert z.n2() == z.proj(1) * z.proj(-1) == 5 * (-1)


def test_decompose_examples():
    assert decompose(ParaComplex(2, 3)) == IdempotentPair(5, -1)
    assert decompose(EPS1) == IdempotentPair(1, 0)
    assert recompose(IdempotentPair(5, -1)) == ParaComplex(2, 3)


def test_projection_multiplicativity():
    rng = random.Random(11)
    for _ in range(500):
        a, b = _rand_pc(rng), _rand_pc(rng)
        for s in (1, -1):
            assert (a * b).proj(s) == a.proj(s) * b.proj(s)


def test_roundtrip_exact_random():
    rng = random.Random(7)
    for _ in range(10_000):
        z = _rand_pc(rng)
        assert recompose(decompose(z)) == z


def test_n2_multiplicative_random():
    rng = random.Random(13)
    for _ in range(2000):
        z, w = _rand_pc(rng), _rand_pc(rng)
        assert (z * w).n2() == z.n2() * w.n2()


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(1000):
        a, b, c = _rand_pc(rng), _rand_pc(rng), _rand_pc(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_null_line_criterion():
    rng = random.Random(19)
    for _ in range(1000):
        z = _rand_pc(rng)
        # z on L_s  <=>  u - s v = 0  <=>  the opposite projection vanishes
        on_some_line = z.proj(-1) == 0 or z.proj(1) == 0
        assert on_some_line == (z.n2() == 0)


def test_division():
    z = ParaComplex(Fraction(3), Fraction(1))
    w = ParaComplex(Fraction(1), Fraction(2))
    assert (w * z) / z == w
    with pytest.raises(ZeroDivisionError):
        w / ParaComplex(1, 1)


def test_conjugation_swaps_projections():
    rng = random.Random(23)
    for _ in range(500):
        z = _rand_pc(rng)
        for s in (1, -1):
            assert z.conj().proj(s) == z.proj(-s)


def test_integer_powers():
    z = ParaComplex(Fraction(1, 2), Fraction(1, 3))
    direct = z * z * z * z * z
    assert z**5 == direct
    assert z**0 == ParaComplex(1, 0)
