import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from poissonlab.rational import GaussianRational, content, decimal, from_decimal


class PairRef:
    """Reference Q(i) arithmetic on a pair of Fractions."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairRef(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return PairRef((self.re * o.re + self.im * o.im) / n,
                       (self.im * o.re - self.re * o.im) / n)

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)


fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
pairs = st.tuples(fractions, fractions | st.just(Fraction(0)))


def check_normal(z):
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    rx, ry = PairRef(*x), PairRef(*y)
    check_normal(gx)
    results = [(gx + gy, rx + ry), (gx - gy, rx - ry), (gx * gy, rx * ry)]
    if ry.re or ry.im:
        results.append((gx / gy, rx / ry))
    for got, want in results:
        check_normal(got)
        assert (got.re, got.im) == (want.re, want.im)
    assert (gx == gy) == (rx == ry)
    if gx == gy:
        assert hash(gx) == hash(gy)
    assert GaussianRational(x[0] + y[0], x[1] + y[1]) == gx + gy
    assert hash(GaussianRational(x[0] + y[0], x[1] + y[1])) == hash(gx + gy)
    assert bool(gx.im) == (x[1] != 0)


def test_normal_form():
    z = GaussianRational(Fraction(6, 4), Fraction(-9, 6))
    assert (z.a, z.b, z.d) == (3, -3, 2)
    assert (GaussianRational(0).a, GaussianRational(0).b, GaussianRational(0).d) == (0, 0, 1)
    w = GaussianRational(1, 1) / GaussianRational(-2, 0)
    assert (w.a, w.b, w.d) == (-1, -1, 2)
    v = GaussianRational(1) / GaussianRational(0, -3)
    assert (v.a, v.b, v.d) == (0, 1, 3)
    assert GaussianRational(GaussianRational(1, 2), GaussianRational(0, 1)) == GaussianRational(0, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(3, 1) / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / 0
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0, 0)


def test_equality_with_int_and_fraction():
    assert GaussianRational(2) == 2 and 2 == GaussianRational(2)
    assert GaussianRational(Fraction(4, 2)) == 2
    assert GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
    assert GaussianRational(Fraction(3, 2), 1) != Fraction(3, 2)
    assert GaussianRational(0, 1) != 0 and GaussianRational(3) != 2
    assert hash(GaussianRational(7)) == hash(7)
    assert hash(GaussianRational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert GaussianRational(0, 1).re == 0 and GaussianRational(0, 1).im == 1


@pytest.mark.parametrize("value,text", [
    (GaussianRational(0), "0"),
    (GaussianRational(5), "5"),
    (GaussianRational(-7), "-7"),
    (GaussianRational(Fraction(3, 2)), "3/2"),
    (GaussianRational(Fraction(-3, 2)), "-3/2"),
    (GaussianRational(0, 1), "i"),
    (GaussianRational(0, -1), "-i"),
    (GaussianRational(0, 2), "2*i"),
    (GaussianRational(0, Fraction(-1, 2)), "-1/2*i"),
    (GaussianRational(1, 1), "1+i"),
    (GaussianRational(2, -1), "2-i"),
    (GaussianRational(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
    (GaussianRational(Fraction(-5, 3), Fraction(7, 6)), "-5/3+7/6*i"),
])
def test_str(value, text):
    assert str(value) == text


def test_content():
    assert content([]) == 0
    assert content([GaussianRational(0)]) == 0
    vals = [GaussianRational(Fraction(4, 3), Fraction(2, 9)), GaussianRational(6)]
    assert content(vals) == Fraction(2, 9)
    assert content([GaussianRational(Fraction(-3, 2))]) == Fraction(3, 2)


@settings(max_examples=300, deadline=None)
@given(pairs, st.integers(-40, 40) | st.sampled_from((0, -1, 1, 10**30, -(10**30))))
def test_products_by_ints_match_products_by_their_values(x, n):
    g = GaussianRational(*x)
    want = g * GaussianRational(n)
    for got in (g * n, n * g):
        check_normal(got)
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d)


# decimal digits of any length, under any cap Python sets on its own conversion

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12_000), st.integers(-5, 5))
def test_decimal_round_trip_of_any_length(digits, low):
    n = 10 ** digits + low
    for v in (n, -n):
        text = decimal(v)
        digits_only = text.removeprefix("-")
        assert text.startswith("-") == (v < 0)
        assert from_decimal(digits_only) == abs(v)
        assert v == 0 or not digits_only.startswith("0")


def test_decimal_matches_str_under_the_least_cap():
    before = sys.get_int_max_str_digits()
    n = 7 ** 20_000  # odd, so n / 2^40 is in lowest terms
    sys.set_int_max_str_digits(0)
    try:
        want = str(n)
        # the least cap Python allows; the helpers must not meet it
        sys.set_int_max_str_digits(640)
        assert decimal(n) == want and decimal(-n) == "-" + want
        assert from_decimal(want) == n
        big = GaussianRational(Fraction(n, 2 ** 40), -n)
        assert str(big) == f"{want}/{2 ** 40}-{want}*i"
    finally:
        sys.set_int_max_str_digits(before)
