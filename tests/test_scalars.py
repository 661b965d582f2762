"""Cyclotomic field arithmetic: axioms on random samples, pinned values, and
the integer representation against the Fraction-tuple implementation it
replaced, kept here as the oracle."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equidouble
from equidouble.cli import encode_scalar
from equidouble.errors import NonInvertibleError, UsageError
from equidouble.scalars import (
    Cyclotomic,
    _poly_divmod_exact,
    cyclotomic_conjugate,
    cyclotomic_polynomial,
    euler_phi,
    is_prime,
    narrowed,
    sort_key,
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
            assert p != 1, (n, k)
        assert p * z == 1


def test_field_axioms_random():
    rng = random.Random(20260813)
    for n in [1, 3, 4, 5, 8, 12]:
        for _ in range(12):
            a = rand_cyclotomic(rng, n)
            b = rand_cyclotomic(rng, n)
            c = rand_cyclotomic(rng, n)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == 0
            if not a.is_zero():
                assert a * a.inverse() == 1
                assert a / a == 1


def test_mixed_conductor_arithmetic():
    z3 = Cyclotomic.zeta(3)
    z4 = Cyclotomic.zeta(4)
    s = z3 + z4
    assert s.n == 12
    # z12^4 = z3 and z12^3 = z4
    z12 = Cyclotomic.zeta(12)
    assert s == z12 ** 4 + z12 ** 3
    assert z3 * (z3 * z3) == 1
    assert z4 * z4 == -1
    assert Cyclotomic.from_rational(Fraction(2, 3)) + z3 - z3 == Fraction(2, 3)


def test_rational_detection():
    z3 = Cyclotomic.zeta(3)
    x = z3 + z3 * z3  # = -1
    assert x.is_rational() and x.rational_value() == Fraction(-1)
    assert x == -1
    assert not (z3 + 1).is_rational()


def test_conjugation_pinned():
    assert cyclotomic_conjugate(Fraction(3, 7)) == Fraction(3, 7)
    z4 = Cyclotomic.zeta(4)
    assert cyclotomic_conjugate(z4) == -z4
    z3 = Cyclotomic.zeta(3)
    assert cyclotomic_conjugate(z3) == -1 - z3


def test_conjugation_is_multiplicative():
    rng = random.Random(7)
    for n in [3, 4, 5, 8, 12]:
        for _ in range(8):
            a = rand_cyclotomic(rng, n)
            b = rand_cyclotomic(rng, n)
            assert cyclotomic_conjugate(a * b) == cyclotomic_conjugate(a) * cyclotomic_conjugate(b)
            assert cyclotomic_conjugate(cyclotomic_conjugate(a)) == a


def test_conjugate_times_self_of_root_is_one():
    for n in [3, 4, 5, 8, 12]:
        z = Cyclotomic.zeta(n)
        assert z * cyclotomic_conjugate(z) == 1


def test_galois_permutes_roots():
    z5 = Cyclotomic.zeta(5)
    g2 = z5.galois(2)
    assert g2 == z5 * z5
    with pytest.raises(Exception):
        z5.galois(5)  # not coprime


def test_scalar_helpers():
    assert not Cyclotomic.zeta(3) - Cyclotomic.zeta(3)
    assert Cyclotomic.zeta(3)
    assert Cyclotomic.from_rational(2) == Fraction(2)


def test_str_round_readability():
    z8 = Cyclotomic.zeta(8)
    text = str(z8 + 2)
    assert "z(8)" in text and "2" in text


def test_sort_key_is_total_order_on_equal_conductor():
    rng = random.Random(99)
    xs = [rand_cyclotomic(rng, 8) for _ in range(10)]
    keys = [sort_key(x) for x in xs]
    assert sorted(keys) == sorted(keys, key=lambda k: k)  # comparable tuples


def test_narrowed_reads_a_rational_cyclotomic_as_an_int_or_a_fraction():
    """A rational value leaves its conductor as an int, or a Fraction when it
    is not an integer; an irrational value, an int and a Fraction stay as
    they are, and the value never moves."""
    cases = [
        (Cyclotomic.from_rational(-3, 12), int),
        (Cyclotomic.from_rational(0, 4), int),
        (Cyclotomic.from_rational(Fraction(-2, 6), 3), Fraction),
        (Cyclotomic.zeta(4), Cyclotomic),
        (Cyclotomic.zeta(3) + Cyclotomic.zeta(3, 2), int),
        (Fraction(5, 2), Fraction),
        (7, int),
    ]
    for x, kind in cases:
        y = narrowed(x)
        assert type(y) is kind and y == x and bool(y) == bool(x)
    z = Cyclotomic.zeta(12, 5)
    assert narrowed(z) is z
    assert narrowed(Cyclotomic.from_rational(Fraction(-2, 6), 3)) == Fraction(-1, 3)


def test_is_prime():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


# -- the Fraction-tuple oracle ------------------------------------------------


@lru_cache(maxsize=None)
def _fraction_reduction_rows(n):
    """Row e-phi(n) expresses z^e (e in [phi(n), 2*phi(n)-2]) in the power basis."""
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)
    top = [Fraction(-phi[i]) for i in range(d)]
    rows = [tuple(top)]
    for _ in range(d - 2):
        prev = rows[-1]
        nxt = [Fraction(0)] + [prev[i] for i in range(d - 1)]
        lead = prev[d - 1]
        if lead:
            nxt = [nxt[i] + lead * top[i] for i in range(d)]
        rows.append(tuple(nxt))
    return tuple(rows)


def _fraction_reduce(n, conv):
    d = euler_phi(n)
    if len(conv) <= d:
        return tuple(conv + [Fraction(0)] * (d - len(conv)))
    out = conv[:d]
    for e in range(d, len(conv)):
        if conv[e]:
            for i, r in enumerate(_fraction_reduction_rows(n)[e - d]):
                out[i] += conv[e] * r
    return tuple(out)


def _fraction_power(n, e):
    """z^e in the power basis of Q(zeta_n), by repeated multiplication by z."""
    d = euler_phi(n)
    vec = [Fraction(1)] + [Fraction(0)] * (d - 1)
    for _ in range(e % n):
        vec = list(_fraction_reduce(n, [Fraction(0)] + vec))
    return vec


class FractionCyclotomic:
    """Element of Q(zeta_n) as a tuple of Fraction coordinates in the power
    basis, reduced mod Phi_n: the representation the integer one replaced."""

    def __init__(self, n, coeffs):
        assert len(coeffs) == euler_phi(n)
        self.n = n
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def _substitute(self, m, step):
        vec = [Fraction(0)] * euler_phi(m)
        for e, c in enumerate(self.coeffs):
            if c:
                for i, r in enumerate(_fraction_power(m, e * step)):
                    vec[i] += c * r
        return FractionCyclotomic(m, vec)

    def promote(self, m):
        return self if m == self.n else self._substitute(m, m // self.n)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            return self, FractionCyclotomic(self.n, [other] + [0] * (euler_phi(self.n) - 1))
        n = self.n * other.n // gcd(self.n, other.n)
        return self.promote(n), other.promote(n)

    def __add__(self, other):
        a, b = self._pair(other)
        return FractionCyclotomic(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return FractionCyclotomic(self.n, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._pair(other)
        conv = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                conv[i + j] += x * y
        return FractionCyclotomic(a.n, _fraction_reduce(a.n, conv))

    def inverse(self):
        """Extended Euclid against Phi_n over Q."""

        def strip(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        a = strip(list(self.coeffs))
        b = strip([Fraction(c) for c in cyclotomic_polynomial(self.n)])
        s0, s1 = [Fraction(1)], [Fraction(0)]
        while b:
            q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
            r = list(a)
            for k in range(len(q) - 1, -1, -1):
                q[k] = r[k + len(b) - 1] / b[-1]
                for i, d in enumerate(b):
                    r[k + i] -= q[k] * d
            qs1 = [Fraction(0)] * (len(q) + len(s1))
            for i, x in enumerate(q):
                for j, y in enumerate(s1):
                    qs1[i + j] += x * y
            width = max(len(s0), len(qs1))
            s_new = [(s0 + [0] * width)[i] - (qs1 + [0] * width)[i] for i in range(width)]
            a, b = b, strip(r)
            s0, s1 = s1, strip(s_new) or [Fraction(0)]
        assert len(a) == 1 and a[0] != 0
        return FractionCyclotomic(self.n, _fraction_reduce(self.n, [c / a[0] for c in s0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionCyclotomic(self.n, [c / other for c in self.coeffs])
        a, b = self._pair(other)
        return a * b.inverse()

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def galois(self, k):
        return self._substitute(self.n, k)


CONDUCTORS = (1, 3, 4, 5, 8, 12)
coordinates = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def cyclotomic_pairs(draw, conductor=st.sampled_from(CONDUCTORS)):
    """A value in both representations, zero in some draws."""
    n = draw(conductor)
    d = euler_phi(n)
    coeffs = draw(st.one_of(st.just([0] * d), st.lists(coordinates, min_size=d, max_size=d)))
    return Cyclotomic(n, coeffs), FractionCyclotomic(n, coeffs)


@st.composite
def operand_pairs(draw):
    """Two values whose conductors are equal in over half of the draws."""
    x = draw(cyclotomic_pairs())
    same = st.just(x[0].n)
    y = draw(cyclotomic_pairs(st.one_of(same, st.sampled_from(CONDUCTORS))))
    return x, y


def assert_same(x, oracle):
    """Same conductor and value, stored in lowest terms, coordinates read as
    reduced Fractions, so the encoded report bytes are the oracle's, and
    bool() false exactly on zero."""
    assert isinstance(x, Cyclotomic)
    assert x.n == oracle.n
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert all(type(c) is Fraction for c in x.coeffs)
    assert x.coeffs == oracle.coeffs
    assert encode_scalar(x) == {
        "conductor": oracle.n,
        "coeffs": [f"{c.numerator}/{c.denominator}" for c in oracle.coeffs],
    }
    assert bool(x) == any(oracle.coeffs)
    assert x.is_zero() == (not any(oracle.coeffs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(operand_pairs(), st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_integer_cyclotomics_match_the_fraction_oracle(operands, q):
    (a, oa), (b, ob) = operands
    assert_same(a, oa)
    assert_same(a + b, oa + ob)
    assert_same(a - b, oa - ob)
    assert_same(a * b, oa * ob)
    assert_same(-a, -oa)
    assert (a == b) == (oa == ob)
    assert (a + b) - b == a and a * b == b * a
    assert_same(a + q, oa + q)
    assert_same(q - a, -oa + q)
    assert_same(a * q, oa * q)
    assert (a == q) == (oa == q)
    if q:
        assert_same(a / q, oa / q)
    one = Cyclotomic.from_rational(1, b.n)
    assert_same(a * one, oa * FractionCyclotomic(b.n, [1] + [0] * (euler_phi(b.n) - 1)))
    assert a * one == a and a == a * one
    if ob.coeffs != (0,) * len(ob.coeffs):
        assert_same(b.inverse(), ob.inverse())
        assert_same(a / b, oa / ob)
    for k in range(1, a.n + 1):
        if gcd(k, a.n) == 1:
            assert_same(a.galois(k), oa.galois(k))
    assert_same(a.conjugate(), oa.galois(a.n - 1) if a.n > 1 else oa)


def test_scalar_checks_raise_typed_errors():
    cases = [
        (UsageError, lambda: Cyclotomic(4, [1, 2, 3])),
        (UsageError, lambda: Cyclotomic.zeta(4).promote(6)),
        (UsageError, lambda: Cyclotomic.zeta(3).rational_value()),
        (UsageError, lambda: Cyclotomic.zeta(6).galois(3)),
        (UsageError, lambda: euler_phi(0)),
        (UsageError, lambda: cyclotomic_polynomial(0)),
        (NonInvertibleError, lambda: _poly_divmod_exact([1, 0, 1], [1, 1])),
        (NonInvertibleError, lambda: _poly_divmod_exact([1, 2], [1, 2, 1])),
    ]
    for error, case in cases:
        with pytest.raises(error):
            case()


def test_inverse_certification_does_not_depend_on_assert():
    """Under python -O every assert is stripped; a corrupted inverse must
    still raise. Replacing the Galois maps by the identity leaves a norm that
    is not rational (the self-check), and by zero a norm that vanishes (the
    coprimality check)."""
    script = """
from equidouble.errors import NonInvertibleError
from equidouble.scalars import Cyclotomic, _poly_divmod_exact
for corrupt in (lambda self, k: self, lambda self, k: self - self):
    Cyclotomic.galois = corrupt
    try:
        Cyclotomic.zeta(5).inverse()
    except NonInvertibleError as exc:
        print("raised:", exc)
try:
    _poly_divmod_exact([1, 0, 1], [1, 1])
except NonInvertibleError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(equidouble.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3, out.stdout
    assert "not rational" in lines[0]
    assert "not coprime" in lines[1]
    assert "inexact" in lines[2]
