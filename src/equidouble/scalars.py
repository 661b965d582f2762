"""Exact scalars: rationals and cyclotomic numbers of a fixed conductor.

Rational is the stdlib Fraction (always reduced, positive denominator).
Cyclotomic values live in Q(zeta_n) with coordinates in the power basis
1, z, ..., z^(phi(n)-1) reduced modulo the n-th cyclotomic polynomial.
Equality across conductors is decided by promotion to the lcm.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction, "Cyclotomic"]


def euler_phi(n: int) -> int:
    """Euler totient by trial factorization (n is small here)."""
    assert n >= 1
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        assert c % den[-1] == 0
        q[k] = c // den[-1]
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    assert all(c == 0 for c in num)
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed by exact division of x^n - 1."""
    assert n >= 1
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row e-phi(n) expresses z^e (e in [phi(n), 2*phi(n)-2]) in the power basis."""
    d = euler_phi(n)
    phi = cyclotomic_polynomial(n)
    # z^d = -(phi[0] + phi[1] z + ... + phi[d-1] z^(d-1)) since phi[d] = 1
    rows: list[tuple[Fraction, ...]] = []
    top = [Fraction(-phi[i]) for i in range(d)]
    rows.append(tuple(top))
    for _ in range(d - 2):
        prev = rows[-1]
        nxt = [Fraction(0)] + [prev[i] for i in range(d - 1)]
        lead = prev[d - 1]
        if lead:
            nxt = [nxt[i] + lead * top[i] for i in range(d)]
        rows.append(tuple(nxt))
    return tuple(rows)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """z^e in the power basis for every e in [0, n)."""
    d = euler_phi(n)
    rows = _reduction_rows(n)
    out: list[tuple[Fraction, ...]] = []
    for e in range(n):
        if e < d:
            vec = [Fraction(0)] * d
            vec[e] = Fraction(1)
            out.append(tuple(vec))
        elif e < 2 * d - 1:
            out.append(rows[e - d])
        else:
            prev = out[e - 1]
            vec = [Fraction(0)] + [prev[i] for i in range(d - 1)]
            lead = prev[d - 1]
            if lead:
                top = rows[0]
                vec = [vec[i] + lead * top[i] for i in range(d)]
            out.append(tuple(vec))
    return tuple(out)


def _reduce_product(n: int, conv: list[Fraction]) -> tuple[Fraction, ...]:
    d = euler_phi(n)
    if len(conv) <= d:
        return tuple(conv + [Fraction(0)] * (d - len(conv)))
    rows = _reduction_rows(n)
    out = conv[:d]
    for e in range(d, len(conv)):
        c = conv[e]
        if c:
            row = rows[e - d]
            for i in range(d):
                out[i] += c * row[i]
    return tuple(out)


class Cyclotomic:
    """Element of Q(zeta_n) in the power basis, reduced mod Phi_n."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Sequence[Fraction | int]):
        d = euler_phi(n)
        assert len(coeffs) == d, f"need {d} coordinates for conductor {n}"
        self.n = n
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Fraction | int, n: int = 1) -> "Cyclotomic":
        d = euler_phi(n)
        vec = [Fraction(0)] * d
        vec[0] = Fraction(q)
        return Cyclotomic(n, vec)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k."""
        return Cyclotomic(n, _power_table(n)[k % n])

    # -- conductor handling -------------------------------------------

    def promote(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        assert m % self.n == 0, f"{m} not a multiple of conductor {self.n}"
        step = m // self.n
        table = _power_table(m)
        d = euler_phi(m)
        vec = [Fraction(0)] * d
        for e, c in enumerate(self.coeffs):
            if c:
                row = table[(e * step) % m]
                for i in range(d):
                    vec[i] += c * row[i]
        return Cyclotomic(m, vec)

    @staticmethod
    def _pair(a: "Cyclotomic", b: Scalar) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(b, (int, Fraction)):
            return a, Cyclotomic.from_rational(b, a.n)
        n = a.n * b.n // gcd(a.n, b.n)
        return a.promote(n), b.promote(n)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        assert self.is_rational(), f"not rational: {self}"
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclotomic":
        a, b = Cyclotomic._pair(self, other)
        return Cyclotomic(a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.n, [-c for c in self.coeffs])

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, [c * other for c in self.coeffs])
        a, b = Cyclotomic._pair(self, other)
        d = len(a.coeffs)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return Cyclotomic(a.n, _reduce_product(a.n, conv))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via extended Euclid against Phi_n over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0], self.n)
        # extended gcd of a(x) and Phi_n(x): gcd is a nonzero constant
        a = list(self.coeffs)
        b = [Fraction(c) for c in cyclotomic_polynomial(self.n)]
        s0, s1 = [Fraction(1)], [Fraction(0)]

        def strip(p: list[Fraction]) -> list[Fraction]:
            while p and p[-1] == 0:
                p.pop()
            return p

        a, b = strip(a), strip(b)
        while b:
            # divide a by b
            q = [Fraction(0)] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
            r = list(a)
            for k in range(len(q) - 1, -1, -1):
                q[k] = r[k + len(b) - 1] / b[-1]
                if q[k]:
                    for i, d in enumerate(b):
                        r[k + i] -= q[k] * d
            r = strip(r)
            # s update: s_new = s0 - q*s1
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, x in enumerate(q):
                if x:
                    for j, y in enumerate(s1):
                        qs1[i + j] += x * y
            s_new = [
                (s0[i] if i < len(s0) else Fraction(0)) - (qs1[i] if i < len(qs1) else Fraction(0))
                for i in range(max(len(s0), len(qs1)) or 1)
            ]
            a, b = b, r
            s0, s1 = s1, strip(s_new) or [Fraction(0)]
        assert len(a) == 1 and a[0] != 0, "element and Phi_n not coprime"
        inv_poly = [c / a[0] for c in s0]
        result = Cyclotomic(self.n, _reduce_product(self.n, inv_poly))
        assert (result * self) == 1
        return result

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, [c / other for c in self.coeffs])
        a, b = Cyclotomic._pair(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other: Scalar) -> "Cyclotomic":
        return Cyclotomic.from_rational(other, self.n) / self

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._pair(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-conductor values have no cheap canonical hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k (k coprime to n)."""
        assert gcd(k, self.n) == 1
        table = _power_table(self.n)
        d = len(self.coeffs)
        vec = [Fraction(0)] * d
        for e, c in enumerate(self.coeffs):
            if c:
                row = table[(e * k) % self.n]
                for i in range(d):
                    vec[i] += c * row[i]
        return Cyclotomic(self.n, vec)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta_n -> zeta_n^(-1)."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def sort_key(self) -> tuple:
        """Deterministic total-order key among values of equal conductor."""
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.n}, {list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z({self.n})^{e}")
        return " + ".join(parts) if parts else "0"


def as_cyclotomic(x: Scalar, n: int = 1) -> Cyclotomic:
    """Coerce int/Fraction/Cyclotomic into Q(zeta_m), m = lcm of n and x's conductor."""
    if isinstance(x, Cyclotomic):
        m = n * x.n // gcd(n, x.n)
        return x if m == x.n else x.promote(m)
    return Cyclotomic.from_rational(x, n)


def cyclotomic_conjugate(x: Scalar) -> Scalar:
    """Conjugation as the Galois map z -> z^(-1); fixes rationals."""
    if isinstance(x, Cyclotomic):
        return x.conjugate()
    return x


def scalar_is_zero(x: Scalar) -> bool:
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    return x == 0


def scalar_eq(x: Scalar, y: Scalar) -> bool:
    if isinstance(x, Cyclotomic) or isinstance(y, Cyclotomic):
        return as_cyclotomic(x) == (y if isinstance(y, Cyclotomic) else Fraction(y))
    return Fraction(x) == Fraction(y)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True
