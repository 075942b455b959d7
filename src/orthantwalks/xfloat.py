"""Extended-range floating point: a float64 mantissa with a separate binary exponent.

Walk counts grow like rho**n; at n = 2000 with rho = 4 that is ~10**1204, far
past the float64 range, while exact big rationals over ~10**6 lattice points
are too slow.  An XFloat carries the value as ``mantissa * 2**exponent`` with
the mantissa normalized into [1, 2), so products and quotients of
astronomically large positive numbers stay representable and keep full double
precision relative accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction


class XFloat:
    """A nonnegative number stored as mantissa * 2**exponent.

    Zero is represented as mantissa 0.0 with exponent 0.  Only the operations
    the counting tables need are provided (mul, add, div, comparison, log).
    """

    __slots__ = ("man", "exp")

    def __init__(self, man: float, exp: int = 0):
        if man < 0.0:
            raise ValueError("XFloat is restricted to nonnegative values")
        if man == 0.0:
            self.man = 0.0
            self.exp = 0
            return
        m, e = math.frexp(man)  # m in [0.5, 1)
        self.man = 2.0 * m
        self.exp = exp + e - 1

    @classmethod
    def _raw(cls, man: float, exp: int) -> "XFloat":
        out = object.__new__(cls)
        out.man = man
        out.exp = exp
        return out

    @classmethod
    def from_int(cls, value: int) -> "XFloat":
        if value < 0:
            raise ValueError("XFloat is restricted to nonnegative values")
        if value == 0:
            return cls(0.0)
        shift = max(0, value.bit_length() - 54)
        return cls(float(value >> shift), shift)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "XFloat":
        if value < 0:
            raise ValueError("XFloat is restricted to nonnegative values")
        if value == 0:
            return cls(0.0)
        num, den = value.numerator, value.denominator
        # Shift so the integer quotient keeps ~60 significant bits.
        shift = den.bit_length() - num.bit_length() + 60
        if shift > 0:
            q = (num << shift) // den
        else:
            q = num // (den << -shift)
        return cls(float(q), -shift)

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

    def log(self) -> float:
        return self.log2() * math.log(2.0)

    def __float__(self) -> float:
        if self.man == 0.0:
            return 0.0
        if self.exp > 1023:
            return math.inf
        if self.exp < -1074:
            return 0.0
        return math.ldexp(self.man, self.exp)

    def __mul__(self, other):
        if isinstance(other, XFloat):
            if self.man == 0.0 or other.man == 0.0:
                return XFloat(0.0)
            return XFloat(self.man * other.man, self.exp + other.exp)
        return XFloat(self.man * float(other), self.exp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "XFloat":
        if not isinstance(other, XFloat):
            other = XFloat(float(other))
        if other.man == 0.0:
            raise ZeroDivisionError("XFloat division by zero")
        if self.man == 0.0:
            return XFloat(0.0)
        return XFloat(self.man / other.man, self.exp - other.exp)

    def __add__(self, other) -> "XFloat":
        if not isinstance(other, XFloat):
            other = XFloat(float(other))
        if self.man == 0.0:
            return other
        if other.man == 0.0:
            return self
        hi, lo = (self, other) if self.exp >= other.exp else (other, self)
        shift = hi.exp - lo.exp
        if shift > 64:
            return XFloat._raw(hi.man, hi.exp)
        return XFloat(hi.man + math.ldexp(lo.man, -shift), hi.exp)

    __radd__ = __add__

    def _cmp_key(self):
        # man in [1,2) makes (is_positive, exp, man) monotone in the value.
        return (self.man > 0.0, self.exp if self.man else 0, self.man)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XFloat):
            return float(self) == other
        return self.man == other.man and (self.man == 0.0 or self.exp == other.exp)

    def __lt__(self, other) -> bool:
        if not isinstance(other, XFloat):
            other = XFloat(float(other))
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __hash__(self):
        return hash((self.man, self.exp))

    def __repr__(self) -> str:
        if self.man == 0.0:
            return "XFloat(0)"
        return f"XFloat({self.man!r}*2**{self.exp})"

