"""Extended-range float arithmetic against exact Fraction references."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthantwalks.xfloat import XFloat

positive_ints = st.integers(min_value=1, max_value=10 ** 40)


def test_zero_and_normalization():
    z = XFloat(0.0)
    assert z.is_zero()
    assert float(z) == 0.0
    x = XFloat(48.0, 2)
    assert math.isclose(float(x), 192.0)
    assert 1.0 <= x.man < 2.0


def test_huge_values_survive():
    x = XFloat(1.0)
    for _ in range(200):
        x = x * XFloat(4.0) * XFloat(4.0) * XFloat(4.0)  # 4**600 overall
    assert math.isclose(x.log2(), 1200.0)
    assert float(x) == math.inf
    y = x / XFloat.exp2(1199.0)
    assert math.isclose(float(y), 2.0)


@given(positive_ints, positive_ints)
@settings(max_examples=200)
def test_mul_matches_fractions(p, q):
    x, y = XFloat.from_int(p), XFloat.from_int(q)
    expected = Fraction(p) * Fraction(q)
    got = (x * y).log2()
    assert math.isclose(got, math.log2(expected.numerator), rel_tol=1e-12)


@given(positive_ints, positive_ints)
@settings(max_examples=200)
def test_div_and_ratio(p, q):
    x, y = XFloat.from_int(p), XFloat.from_int(q)
    assert math.isclose(float(x / y), p / q, rel_tol=1e-12)


@given(positive_ints, positive_ints)
@settings(max_examples=200)
def test_add_matches_fractions(p, q):
    got = XFloat.from_int(p) + XFloat.from_int(q)
    assert math.isclose(got.log2(), math.log2(p + q), rel_tol=1e-12)


@given(positive_ints, positive_ints)
@settings(max_examples=200)
@example(9_999_999_999_999_998_490_397_299_005_059_904_831_488,
         9_999_999_999_999_998_490_397_299_005_059_904_831_489)
def test_ordering(p, q):
    # from_int keeps 53 significant bits: order is kept, ties may merge
    x, y = XFloat.from_int(p), XFloat.from_int(q)
    if p < q:
        assert x <= y
    if p > q:
        assert y <= x
    if p == q:
        assert x == y


def test_add_with_extreme_exponent_gap():
    big = XFloat.exp2(1000.0)
    small = XFloat.exp2(-1000.0)
    assert (big + small) == big


def test_from_fraction():
    x = XFloat.from_fraction(Fraction(7, 3))
    assert math.isclose(float(x), 7 / 3, rel_tol=1e-14)
    huge = Fraction(4) ** 2000
    assert math.isclose(XFloat.from_fraction(huge).log2(), 4000.0)
