"""Exact Gaussian-rational scalars.

All coefficient arithmetic in the package happens in Q(i).  A value
(a + b*i)/d is stored as three Python ints with d > 0 and
gcd(a, b, d) = 1, in the manner of FLINT's integer-numerator `fmpq`.
That form is unique, so `==` and `hash` compare the triples, and every
operation is integer arithmetic plus at most one gcd.  Nothing here
ever rounds.

`decimal` and `from_decimal` convert ints of any length: Python caps its
own conversion (`sys.set_int_max_str_digits`), so they split a longer
number at a power of ten, and change no process-wide setting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_alloc = object.__new__


class Frozen:
    """Base of the package's immutable value classes, in every layer.
    Each subclass writes its own `__init__`, which stores the fields with
    `object.__setattr__`; any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# below the least cap Python allows, so `str` and `int` never meet it
_CHUNK = 600
_SMALL = 10 ** _CHUNK


def decimal(n: int) -> str:
    """The decimal digits of `n`, with a sign if negative, of any length."""
    if -_SMALL < n < _SMALL:
        return str(n)
    if n < 0:
        return "-" + decimal(-n)
    # about half the digits: log10(2) is just over 3/10
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, 10 ** k)
    return decimal(high) + decimal(low).zfill(k)


def from_decimal(digits: str) -> int:
    """The int of a string of decimal digits, of any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    k = len(digits) // 2
    return from_decimal(digits[:-k]) * 10 ** k + from_decimal(digits[-k:])


def _raw(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for a triple already in normal form."""
    z = _alloc(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


class GaussianRational:
    """A number (a + b*i)/d with integers a, b, d; d > 0, gcd(a, b, d) = 1.

    `GaussianRational(re, im)` takes ints, Fractions or Gaussian
    rationals and means re + im*i.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self.a, self.b, self.d = re, im, 1
            return
        a1, b1, d1 = _triple(re)
        a2, b2, d2 = _triple(im)
        a, b, d = a1 * d2 - b2 * d1, b1 * d2 + a2 * d1, d1 * d2
        g = gcd(a, b, d)
        self.a = a // g
        self.b = b // g
        self.d = d // g

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def is_one(self) -> bool:
        return self.a == 1 and self.d == 1 and not self.b

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d, f = self.d, other.d
        if d == f:
            if d == 1:
                return _raw(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            if other.__class__ is int:
                # n (a + b*i)/d, with one gcd
                return _reduced(self.a * other, self.b * other, self.d)
            other = GaussianRational.of(other)
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        if b or e:
            return _reduced(a * c - b * e, a * e + b * c, d * f)
        if d == 1 and f == 1:
            return _raw(a * c, 0, 1)
        return _reduced(a * c, 0, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, d = self.a, self.b, self.d
        c, e, f = other.a, other.b, other.d
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        if e:
            return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * (c * c + e * e))
        if not c:
            raise ZeroDivisionError("division by zero in Q(i)")
        if c < 0:
            return _reduced(-a * f, -b * f, -c * d)
        return _reduced(a * f, b * f, c * d)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.a == other and self.d == 1 and not self.b
        if isinstance(other, Fraction):
            return self.a == other.numerator and self.d == other.denominator and not self.b
        return NotImplemented

    def __hash__(self):
        # real values hash like the equal int or Fraction
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __bool__(self):
        return bool(self.a or self.b)

    def __str__(self):
        def frac(x: Fraction) -> str:
            num = decimal(x.numerator)
            return num if x.denominator == 1 else f"{num}/{decimal(x.denominator)}"

        re, im = self.re, self.im
        if im == 0:
            return frac(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{frac(im)}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{frac(mag)}*i"
        return f"{frac(re)}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _triple(x) -> tuple[int, int, int]:
    """(a, b, d) with x = (a + b*i)/d, for an int, Fraction or Gaussian rational."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, GaussianRational):
        return x.a, x.b, x.d
    f = Fraction(x)
    return f.numerator, 0, f.denominator


ONE = GaussianRational(1)


def content(values) -> GaussianRational:
    """gcd of the real and imaginary parts of `values` (positive, 0 if all are 0).

    (a + b*i)/d contributes gcd(a, b)/d, already in lowest terms, and the
    gcd of reduced fractions is the gcd of the numerators over the lcm of
    the denominators.
    """
    num = 0
    den = 1
    for v in values:
        num = gcd(num, v.a, v.b)
        den = lcm(den, v.d)
    return _raw(num, 0, den if num else 1)
