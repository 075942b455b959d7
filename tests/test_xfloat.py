"""The extended-range float value type: normalization, range and quotients."""

import math

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
], ids=["negative", "log2-zero", "divide-zero"])
def test_rejected_operation(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_equality_hash_and_repr():
    assert XFloat(3.0, 1) == 6.0 and XFloat(3.0, 1) != 5.0 and XFloat(0.0) == 0.0
    assert XFloat(3.0, 1) == XFloat(6.0) and hash(XFloat(3.0, 1)) == hash(XFloat(6.0))
    assert XFloat(0.0) == XFloat(0.0, 7) and hash(XFloat(0.0)) == hash(XFloat(0.0, 7))
    assert repr(XFloat(0.0)) == "XFloat(0)"
    assert repr(XFloat(6.0, 10)) == "XFloat(1.5*2**12)"
