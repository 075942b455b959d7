"""Extended-range floating point: a float64 mantissa with a separate binary exponent.

Walk counts grow like rho**n; at n = 2000 with rho = 4 that is ~10**1204, far
past the float64 range, while exact big rationals over ~10**6 lattice points
are too slow.  An XFloat carries the value as ``mantissa * 2**exponent`` with
the mantissa normalized into [1, 2), so the scaled counting tables and the GB
estimates can hand out astronomically large positive numbers with full double
precision relative accuracy.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction


class XFloat:
    """A nonnegative number stored as mantissa * 2**exponent.

    Zero is represented as mantissa 0.0 with exponent 0.  It is a value type:
    scaled tables and estimates return it, and callers read it through log2,
    float() or the quotient of two of them.
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: float, exp: int = 0):
        if man < 0.0:
            raise ValueError("XFloat is restricted to nonnegative values")
        if not math.isfinite(man):
            raise ValueError("XFloat mantissa must be finite")
        if man == 0.0:
            self.man = 0.0
            self.exp = 0
            return
        m, e = math.frexp(man)  # m in [0.5, 1)
        self.man = 2.0 * m
        self.exp = exp + e - 1

    @classmethod
    def exp2(cls, log2_value: float) -> "XFloat":
        """The value 2**log2_value for an arbitrary (possibly huge) float argument."""
        e = math.floor(log2_value)
        return cls(2.0 ** (log2_value - e), int(e))

    def is_zero(self) -> bool:
        return self.man == 0.0

    def log2(self) -> float:
        if self.man == 0.0:
            raise ValueError("log2 of zero")
        return math.log2(self.man) + self.exp

    def __float__(self) -> float:
        if self.man == 0.0:
            return 0.0
        if self.exp > 1023:
            return math.inf
        if self.exp < -1074:
            return 0.0
        return math.ldexp(self.man, self.exp)

    def __truediv__(self, other) -> "XFloat":
        if isinstance(other, numbers.Rational) and other:
            # ints and Fractions past the float range too: n / d over 2**b lies in (1/2, 2)
            n, d = int(other.numerator), int(other.denominator)
            b = n.bit_length() - d.bit_length()
            other = XFloat(float(Fraction(n, d << b) if b >= 0 else Fraction(n << -b, d)), b)
        elif not isinstance(other, XFloat):
            other = XFloat(float(other))
        if other.man == 0.0:
            raise ZeroDivisionError("XFloat division by zero")
        if self.man == 0.0:
            return XFloat(0.0)
        return XFloat(self.man / other.man, self.exp - other.exp)

    def __eq__(self, other) -> bool:
        """Exact equality with an XFloat, int, Fraction or float; inf and nan equal nothing."""
        if isinstance(other, XFloat):
            return self.man == other.man and (self.man == 0.0 or self.exp == other.exp)
        if isinstance(other, float):
            if not math.isfinite(other):
                return False
            other = Fraction(other)
        elif not isinstance(other, numbers.Rational):
            return NotImplemented
        if self.man == 0.0 or other <= 0:
            return self.man == 0.0 and other == 0
        n, d = int(other.numerator), int(other.denominator)
        # n / d lies in (2**(b - 1), 2**(b + 1)) for b = bits(n) - bits(d), self in [2**exp, 2**(exp + 1))
        if not 0 <= n.bit_length() - d.bit_length() - self.exp <= 1:
            return False
        m, k = self.man.as_integer_ratio()  # man = m / k
        if self.exp >= 0:
            return (m * d) << self.exp == n * k
        return m * d == (n * k) << -self.exp

    def __hash__(self) -> int:
        """Python's numeric hash of the value: equal numbers of every type hash alike.
        The modulus is a Mersenne prime 2**b - 1, so 2**e reduces to 2**(e mod b)."""
        m, k = self.man.as_integer_ratio()  # k is a power of two
        modulus = sys.hash_info.modulus
        e = (self.exp - k.bit_length() + 1) % modulus.bit_length()
        return m % modulus * pow(2, e, modulus) % modulus

    def __repr__(self) -> str:
        if self.man == 0.0:
            return "XFloat(0)"
        return f"XFloat({self.man!r}*2**{self.exp})"
