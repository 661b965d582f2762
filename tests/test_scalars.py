"""Cyclotomic field arithmetic: axioms on random samples plus pinned values."""

import random
from fractions import Fraction

import pytest

from equidouble.scalars import (
    Cyclotomic,
    as_cyclotomic,
    cyclotomic_conjugate,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    scalar_eq,
    scalar_is_zero,
)


def rand_cyclotomic(rng, n):
    d = euler_phi(n)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    return Cyclotomic(n, coeffs)


def test_euler_phi_small():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_pinned():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    # phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_has_right_order():
    for n in [1, 2, 3, 4, 5, 6, 8, 12]:
        z = Cyclotomic.zeta(n)
        p = Cyclotomic.from_rational(Fraction(1), n)
        for k in range(1, n):
            p = p * z
            assert not scalar_eq(p, 1), (n, k)
        assert scalar_eq(p * z, 1)


def test_field_axioms_random():
    rng = random.Random(20260813)
    for n in [1, 3, 4, 5, 8, 12]:
        for _ in range(12):
            a = rand_cyclotomic(rng, n)
            b = rand_cyclotomic(rng, n)
            c = rand_cyclotomic(rng, n)
            assert scalar_eq(a + b, b + a)
            assert scalar_eq(a * b, b * a)
            assert scalar_eq((a + b) + c, a + (b + c))
            assert scalar_eq((a * b) * c, a * (b * c))
            assert scalar_eq(a * (b + c), a * b + a * c)
            assert scalar_eq(a + (-a), 0)
            if not a.is_zero():
                assert scalar_eq(a * a.inverse(), 1)
                assert scalar_eq(a / a, 1)


def test_mixed_conductor_arithmetic():
    z3 = Cyclotomic.zeta(3)
    z4 = Cyclotomic.zeta(4)
    s = z3 + z4
    assert s.n == 12
    # z12^4 = z3 and z12^3 = z4
    z12 = Cyclotomic.zeta(12)
    assert scalar_eq(s, z12 ** 4 + z12 ** 3)
    assert scalar_eq(z3 * (z3 * z3), 1)
    assert scalar_eq(z4 * z4, -1)
    assert scalar_eq(as_cyclotomic(Fraction(2, 3)) + z3 - z3, Fraction(2, 3))


def test_rational_detection():
    z3 = Cyclotomic.zeta(3)
    x = z3 + z3 * z3  # = -1
    assert x.is_rational() and x.rational_value() == Fraction(-1)
    assert scalar_eq(x, -1)
    assert not (z3 + 1).is_rational()


def test_conjugation_pinned():
    assert scalar_eq(cyclotomic_conjugate(Fraction(3, 7)), Fraction(3, 7))
    z4 = Cyclotomic.zeta(4)
    assert scalar_eq(cyclotomic_conjugate(z4), -z4)
    z3 = Cyclotomic.zeta(3)
    assert scalar_eq(cyclotomic_conjugate(z3), -1 - z3)


def test_conjugation_is_multiplicative():
    rng = random.Random(7)
    for n in [3, 4, 5, 8, 12]:
        for _ in range(8):
            a = rand_cyclotomic(rng, n)
            b = rand_cyclotomic(rng, n)
            assert scalar_eq(
                cyclotomic_conjugate(a * b),
                cyclotomic_conjugate(a) * cyclotomic_conjugate(b),
            )
            assert scalar_eq(cyclotomic_conjugate(cyclotomic_conjugate(a)), a)


def test_conjugate_times_self_of_root_is_one():
    for n in [3, 4, 5, 8, 12]:
        z = Cyclotomic.zeta(n)
        assert scalar_eq(z * cyclotomic_conjugate(z), 1)


def test_galois_permutes_roots():
    z5 = Cyclotomic.zeta(5)
    g2 = z5.galois(2)
    assert scalar_eq(g2, z5 * z5)
    with pytest.raises(Exception):
        z5.galois(5)  # not coprime


def test_scalar_helpers():
    assert scalar_is_zero(0)
    assert scalar_is_zero(Fraction(0))
    assert scalar_is_zero(Cyclotomic.zeta(3) - Cyclotomic.zeta(3))
    assert not scalar_is_zero(Cyclotomic.zeta(3))
    assert scalar_eq(as_cyclotomic(2), Fraction(2))


def test_str_round_readability():
    z8 = Cyclotomic.zeta(8)
    text = str(z8 + 2)
    assert "z(8)" in text and "2" in text


def test_sort_key_is_total_order_on_equal_conductor():
    rng = random.Random(99)
    xs = [rand_cyclotomic(rng, 8) for _ in range(10)]
    keys = [x.sort_key() for x in xs]
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable tuples


def test_is_prime():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
