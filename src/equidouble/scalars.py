"""Exact scalars: ints, rationals (stdlib Fractions) and cyclotomic numbers,
and every rule the package has for a scalar: its zero and one, its inverse,
its sort key and its text form.

A Cyclotomic in Q(zeta_n) is (num[0] + num[1] z + ... + num[d-1] z^(d-1)) / den
for z = zeta_n and d = phi(n): integer numerators over one denominator
den > 0, in lowest terms, so a value has one representation at its conductor.
Phi_n is monic with integer coefficients, so every operation stays in the
integers: a product is an integer convolution reduced by Phi_n, a sum
cross-multiplies the denominators, promotion and the Galois maps substitute
integer rows of the power table, and the inverse is the product of the other
Galois conjugates over the norm. coeffs reads the coordinates as reduced
Fractions, which reports encode. Values of different conductors meet at the
lcm; a value keeps the conductor it was computed at, which reports show. A
sum with the int 0 is the value itself, and a product or comparison of two
values of one conductor skips the promotion (in Q, phi(n) = 1, a product is
one integer product); each shortcut gives the value and conductor of the
general path.

A scalar with an integer value is a Python int in every layer: the Hopf
tables (`hopf`, `doubles`, `orbifold`), the matrices (`linalg`, `modular`)
and the characters (`chartable`, `groupoids`) are built from ZERO and ONE
below, the package's only zero and one. That stays exact:

- Every integer is an int. A non-integer rational only comes from an
  explicit Fraction(p, q) or from `reciprocal`, the one inverse; this module
  holds the package's only division, so no int is divided into a float.
- An int mixed with a Fraction or a Cyclotomic gives the exact result, and
  bool() and == agree across the types (Fraction(1) == 1, and
  Cyclotomic.__eq__ takes ints). So a table or a matrix given a Fraction
  entry, by a caller or a corruption, gets the same verdicts and witnesses
  as one written with Fractions throughout.
- Reports write every rational through Fraction(x) (`cli.encode_scalar`,
  `cli.scalar_string`), so an int prints exactly as a Fraction did.

The module layer holds this too. `chartable` writes every character value
and irrep entry as a Cyclotomic at conductor exponent(G), which its pinned
tables print; `modular` takes each simple's entries through `narrowed` once,
where it builds the simple, so a rational entry is an int or a Fraction and
an irrational one keeps that conductor. The verdicts do not move:

- bool() and == agree across int, Fraction and Cyclotomic: a Cyclotomic is
  zero, or equal to a rational, exactly when its value is. Every diagram and
  matrix comparison is decided by them, so it is decided on values alone.
- A product or a sum of a rational and a Cyclotomic keeps the Cyclotomic's
  conductor (the rational is read at it), and a product or sum of two
  rationals is the exact rational. So each entry the suite computes has the
  value the conductor-form simples give; only its type or conductor may
  differ, and only `modular.s_matrix` prints such entries, at the conductor
  it fixes for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .errors import NonInvertibleError, UsageError

Scalar = Union[int, Fraction, "Cyclotomic"]

ZERO = 0
ONE = 1


def euler_phi(n: int) -> int:
    """Euler's totient phi(n), the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials known to divide exactly (ascending coeffs)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1]:
            raise NonInvertibleError(f"leading coefficient {den[-1]} does not divide {c}")
        q[k] = c // den[-1]
        for i, d in enumerate(den):
            num[k + i] -= q[k] * d
    if any(num):
        raise NonInvertibleError(f"inexact polynomial division: remainder {num}")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, computed by exact division of x^n - 1."""
    if n < 1:
        raise UsageError(f"a conductor must be at least 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divmod_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _modulus(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero lower terms (i, c) of Phi_n, so that
    z^phi(n) = -(sum of c z^i)."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    return d, tuple((i, c) for i, c in enumerate(phi[:d]) if c)


def _reduce(n: int, poly: list[int]) -> list[int]:
    """The coordinates of an integer polynomial in z (ascending, reduced in
    place) modulo Phi_n."""
    d, tail = _modulus(n)
    for e in range(len(poly) - 1, d - 1, -1):
        c = poly[e]
        if c:
            base = e - d
            for i, t in tail:
                poly[base + i] -= c * t
    return poly[:d] + [0] * (d - len(poly))


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """z^e in the power basis for every e in [0, n)."""
    return tuple(tuple(_reduce(n, [0] * e + [1])) for e in range(n))


def _make(n: int, num: Sequence[int], den: int) -> "Cyclotomic":
    """The value num/den of conductor n (den > 0), brought to lowest terms."""
    g = gcd(den, *num)
    x = object.__new__(Cyclotomic)
    x.n = n
    x.num = tuple(num) if g == 1 else tuple(c // g for c in num)
    x.den = den // g
    return x


class Cyclotomic:
    """Element of Q(zeta_n): integer power-basis numerators over one positive
    denominator, reduced mod Phi_n and in lowest terms."""

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Sequence[Fraction | int]):
        d = euler_phi(n)
        if len(coeffs) != d:
            raise UsageError(f"need {d} coordinates for conductor {n}, got {len(coeffs)}")
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        self.n = n
        self.num = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q: Fraction | int, n: int = 1) -> "Cyclotomic":
        return _make(n, [q.numerator] + [0] * (euler_phi(n) - 1), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """zeta_n^k."""
        return _make(n, _power_table(n)[k % n], 1)

    # -- conductor handling -------------------------------------------

    def _substitute(self, m: int, step: int) -> "Cyclotomic":
        """The value with z = zeta_n replaced by zeta_m^step."""
        table = _power_table(m)
        vec = [0] * len(table[0])
        for e, c in enumerate(self.num):
            if c:
                for i, t in enumerate(table[e * step % m]):
                    if t:
                        vec[i] += c * t
        return _make(m, vec, self.den)

    def promote(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m); m must be a multiple of the conductor."""
        if m == self.n:
            return self
        if m % self.n:
            raise UsageError(f"{m} not a multiple of conductor {self.n}")
        return self._substitute(m, m // self.n)

    @staticmethod
    def _pair(a: "Cyclotomic", b: Scalar) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(b, (int, Fraction)):
            return a, Cyclotomic.from_rational(b, a.n)
        if a.n == b.n:
            return a, b
        n = a.n * b.n // gcd(a.n, b.n)
        return a.promote(n), b.promote(n)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise UsageError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: Scalar) -> "Cyclotomic":
        if other.__class__ is int and not other:
            return self
        a, b = Cyclotomic._pair(self, other)
        if a.den == b.den:
            return _make(a.n, [x + y for x, y in zip(a.num, b.num)], a.den)
        return _make(a.n, [x * b.den + y * a.den for x, y in zip(a.num, b.num)], a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return _make(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other: Scalar) -> "Cyclotomic":
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "Cyclotomic":
        if other.__class__ is Cyclotomic and other.n == self.n:
            a, b = self, other
        elif isinstance(other, (int, Fraction)):
            return _make(self.n, [c * other.numerator for c in self.num], self.den * other.denominator)
        else:
            a, b = Cyclotomic._pair(self, other)
        if len(a.num) == 1:
            return _make(a.n, [a.num[0] * b.num[0]], a.den * b.den)
        conv = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num, i):
                    conv[j] += x * y
        return _make(a.n, _reduce(a.n, conv), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product P of the Galois conjugates
        zeta_n -> zeta_n^k (1 < k < n, k coprime to n), divided by the norm
        N = self * P.

        N is the resultant of Phi_n and the element's polynomial: it vanishes
        exactly when the two are not coprime, and it is rational exactly when
        the result r = P / N satisfies r * self = 1. Both are checked, and
        either failure raises NonInvertibleError.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        if self.is_rational():
            return Cyclotomic.from_rational(Fraction(self.den, self.num[0]), self.n)
        conjugates = Cyclotomic.from_rational(1, self.n)
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                conjugates = conjugates * self.galois(k)
        norm = self * conjugates
        if not norm.is_rational():
            raise NonInvertibleError(f"inverse self-check failed: norm {norm} of {self} is not rational")
        if norm.is_zero():
            raise NonInvertibleError(f"{self} and Phi_{self.n} are not coprime")
        return conjugates / norm.rational_value()

    def __truediv__(self, other: Scalar) -> "Cyclotomic":
        return self * reciprocal(other)

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
        if other.__class__ is Cyclotomic and other.n == self.n:
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] * other.denominator == other.numerator * self.den
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._pair(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # mixed-conductor values have no cheap canonical hash

    def __bool__(self) -> bool:
        return any(self.num)

    def galois(self, k: int) -> "Cyclotomic":
        """Apply zeta_n -> zeta_n^k (k coprime to n)."""
        if gcd(k, self.n) != 1:
            raise UsageError(f"galois exponent {k} is not coprime to the conductor {self.n}")
        return self._substitute(self.n, k)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta_n -> zeta_n^(-1)."""
        if self.n == 1:
            return self
        return self.galois(self.n - 1)

    def __repr__(self) -> str:
        return f"Cyclotomic({self.n}, {list(self.coeffs)})"

    def __str__(self) -> str:
        """c0 + c1*z(n)^1 + ...: the constant term, then every nonzero one."""
        c = self.coeffs
        return " + ".join([str(c[0])] + [f"{x}*z({self.n})^{e}" for e, x in enumerate(c) if e and x])


def reciprocal(x: Scalar) -> Scalar:
    """The exact inverse: a Cyclotomic's own, or Fraction(1, x) for a
    rational, so an int is never divided into a float."""
    return x.inverse() if isinstance(x, Cyclotomic) else Fraction(1, x)


def narrowed(x: Scalar) -> Scalar:
    """A rational Cyclotomic as an int, or as a Fraction when it is not an
    integer; any other value as it is, so an irrational Cyclotomic keeps its
    conductor."""
    if x.__class__ is not Cyclotomic or not x.is_rational():
        return x
    return x.num[0] if x.den == 1 else Fraction(x.num[0], x.den)


def sort_key(x: Scalar) -> tuple:
    """Deterministic total-order key: the conductor, then the power-basis
    coordinates as (numerator, denominator) pairs; a rational has conductor 1."""
    c = x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)
    return (c.n,) + tuple((q.numerator, q.denominator) for q in c.coeffs)


def cyclotomic_conjugate(x: Scalar) -> Scalar:
    """Conjugation as the Galois map z -> z^(-1); fixes rationals."""
    if isinstance(x, Cyclotomic):
        return x.conjugate()
    return x


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            return False
    return True
