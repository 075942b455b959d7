"""The extended-range float value type: normalization, range and quotients."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
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
        x = x / XFloat.exp2(-6.0)  # 4**600 overall
    assert math.isclose(x.log2(), 1200.0)
    assert float(x) == math.inf
    y = x / XFloat.exp2(1199.0)
    assert math.isclose(float(y), 2.0)
    assert float(XFloat(1.0) / x) == 0.0


@given(positive_ints, positive_ints)
@settings(max_examples=200)
def test_div_and_ratio(p, q):
    # exponents far outside the float range cancel in the quotient
    x, y = XFloat(float(p), 2000), XFloat(float(q), 1990)
    assert math.isclose(float(x / y), 1024 * p / q, rel_tol=1e-12)
    assert math.isclose((x / y).log2(), 10 + math.log2(p / q), abs_tol=1e-12)


@pytest.mark.parametrize("call,error,message", [
    (lambda: XFloat(-1.0), ValueError, "XFloat is restricted to nonnegative values"),
    (lambda: XFloat(0.0).log2(), ValueError, "log2 of zero"),
    (lambda: XFloat(1.0) / XFloat(0.0), ZeroDivisionError, "XFloat division by zero"),
    (lambda: XFloat(math.inf), ValueError, "XFloat mantissa must be finite"),
    (lambda: XFloat(math.nan), ValueError, "XFloat mantissa must be finite"),
    (lambda: XFloat(2.0) / math.inf, ValueError, "XFloat mantissa must be finite"),
    (lambda: XFloat(2.0) / math.nan, ValueError, "XFloat mantissa must be finite"),
], ids=["negative", "log2-zero", "divide-zero", "inf", "nan", "divide-inf", "divide-nan"])
def test_rejected_operation(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_division_by_a_float_and_of_zero():
    x = XFloat(3.0, 1) / 4.0
    assert (x.man, x.exp) == (1.5, 0)
    for divisor in (2.5, 3, F(2, 3), XFloat(5.0, 900)):
        assert (XFloat(0.0) / divisor).is_zero()


def test_equality_hash_and_repr():
    assert XFloat(3.0, 1) == 6.0 and XFloat(3.0, 1) != 5.0 and XFloat(0.0) == 0.0
    assert XFloat(3.0, 1) == XFloat(6.0) and hash(XFloat(3.0, 1)) == hash(XFloat(6.0))
    assert XFloat(0.0) == XFloat(0.0, 7) and hash(XFloat(0.0)) == hash(XFloat(0.0, 7))
    assert repr(XFloat(0.0)) == "XFloat(0)"
    assert repr(XFloat(6.0, 10)) == "XFloat(1.5*2**12)"


@pytest.mark.parametrize("x,other,equal", [
    (XFloat(1.0, 2000), math.inf, False),
    (XFloat(1.0, 2000), 2 ** 2000, True),
    (XFloat(1.0, 2000), 2 ** 2000 + 1, False),
    (XFloat(1.5, 2000), 3 * 2 ** 1999, True),
    (XFloat(1.0, -2000), 0, False),
    (XFloat(1.0, -2000), 0.0, False),
    (XFloat(1.0, -2000), F(1, 2 ** 2000), True),
    (XFloat(1.5, -2000), F(3, 2 ** 2001), True),
    (XFloat(1.5, -2000), F(1, 3 * 2 ** 2000), False),
    (XFloat(0.0), 0, True),
    (XFloat(0.0), -0.0, True),
    (XFloat(0.0), F(1, 2 ** 2000), False),
    (XFloat(3.0, 1), 6, True),
    (XFloat(1.0, -1074), 5e-324, True),
    (XFloat(1.0), math.nan, False),
    (XFloat(1.0), -1, False),
    (XFloat(1.0), "1", False),
    (XFloat(3.0, 1), np.int64(6), True),
    (XFloat(3.0, 1), np.float32(6.0), True),
], ids=["inf", "2**2000", "2**2000+1", "3*2**1999", "tiny-vs-0", "tiny-vs-0.0", "2**-2000",
        "3*2**-2001", "third", "zero", "minus-zero", "zero-vs-tiny", "int", "subnormal", "nan",
        "negative", "str", "numpy-int", "numpy-float32"])
def test_exact_equality_beyond_the_float_range(x, other, equal):
    assert (x == other) is equal and (x != other) is not equal and (other == x) is equal
    if equal:
        assert hash(x) == hash(other)


@given(st.integers(min_value=0, max_value=2 ** 60), st.integers(min_value=-3000, max_value=3000))
@settings(max_examples=200)
def test_hash_is_the_numeric_hash(mantissa, exp):
    # every XFloat is the rational mantissa * 2**exp, and hashes as that Fraction does
    x = XFloat(float(mantissa), exp)
    value = F(x.man) * F(2) ** x.exp if mantissa else F(0)
    assert x == value and hash(x) == hash(value)
    assert len({x, value}) == 1 and {x: "a"}.get(value) == "a"
    if -1074 <= x.exp <= 1023 and float(value) == value:  # a float holds the value
        assert x == float(value) and hash(x) == hash(float(value))


@pytest.mark.parametrize("divisor", [10 ** 400, F(1, 10 ** 400), F(10 ** 400, 7), 3, F(2, 3),
                                     np.int64(3)],
                         ids=["int", "small-fraction", "large-fraction", "small-int", "fraction",
                              "numpy-int"])
def test_division_beyond_the_float_range(divisor):
    got = XFloat(1.5, 2000) / divisor
    want = F(3 * 2 ** 1999) / F(divisor)
    # the divisor and the quotient of the mantissas are each rounded once
    assert abs(F(got.man) * F(2) ** got.exp / want - 1) <= F(1, 2 ** 51)
