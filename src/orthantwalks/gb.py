"""Closed-form asymptotics for the weighted Gouyou-Beauchamps model.

The GB step set {(1,0), (-1,0), (-1,1), (1,-1)} with product weights
(a, 1/a, b/a, a/b) splits into six universality classes depending on (a, b).
This module stores the class conditions, the exponential growth rho, the
critical exponent, and the per-class constant kappa and harmonic function V,
and evaluates the resulting estimate kappa * V * rho**n * n**-alpha.

Values of V may depend on the parity of n + i; they are handled as an
(even, odd) pair throughout.  The weights are converted once to Fractions (a
float by its exact binary value); rho, V and the critical points are then
exact in Q(sqrt(b)), as a Fraction or a Surd p + q*sqrt(b), so harmonicity is
decided with zero residual for every weighting.  kappa is sqrt(K) / pi**e
with K exact; estimates take log2 kappa from K, so they stay finite in log2
space for any weights.  Only kappa itself and the final log2 of the
estimates are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction
from typing import Callable, Optional, Union

from .linalg import _rational_root
from .stepset import StepSet, builtin_model
from .xfloat import XFloat

Real = Union[int, Fraction, float]
Exact = Union[Fraction, "Surd"]


def _weights(a: Real, b: Real) -> tuple[Fraction, Fraction]:
    """a and b as exact Fractions; both must be finite and positive, and neither a bool."""
    if isinstance(a, bool) or isinstance(b, bool):
        raise ValueError("weights a, b must be numbers, not bools")
    try:
        a, b = Fraction(a), Fraction(b)
    except (ValueError, OverflowError):
        raise ValueError("weights a, b must be finite") from None
    if a <= 0 or b <= 0:
        raise ValueError("weights a, b must be positive")
    return a, b


def _log2(x: Fraction) -> float:
    # x = 2**e * m with m in (1/2, 2) rounded once: log2(p) - log2(q) would
    # cancel for the large p, q of a float weight's exact binary value
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = (x.numerator / (x.denominator << e) if e >= 0
         else (x.numerator << -e) / x.denominator)
    return e + math.log2(m)


@total_ordering
class Surd:
    """p + q*sqrt(b) in Q(sqrt(b)), for Fractions p, q != 0 and a non-square b > 0.

    Operands are Surds over the same b, ints or Fractions; a result with q = 0
    comes back as a Fraction, so a Surd is never rational.  Order is exact.
    """

    __slots__ = ("p", "q", "b")

    def __init__(self, p: Fraction, q: Fraction, b: Fraction):
        self.p, self.q, self.b = p, q, b

    def _parts(self, other) -> tuple:
        if isinstance(other, Surd) and other.b == self.b:
            return other.p, other.q
        if isinstance(other, (int, Fraction)):
            return other, 0
        raise TypeError(f"unsupported operand for {self!r}: {other!r}")

    def _new(self, p: Fraction, q: Fraction) -> Union[Fraction, Surd]:
        return p if q == 0 else Surd(p, q, self.b)

    def __add__(self, other):
        p, q = self._parts(other)
        return self._new(self.p + p, self.q + q)

    __radd__ = __add__
    def __neg__(self) -> Surd:
        return Surd(-self.p, -self.q, self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        p, q = self._parts(other)
        return self._new(self.p * p + self.q * q * self.b, self.p * q + self.q * p)

    __rmul__ = __mul__
    def _inverse(self) -> Surd:
        # 1/(p + q sqrt b) = (p - q sqrt b)/(p**2 - q**2 b); the norm is nonzero
        norm = self.p * self.p - self.q * self.q * self.b
        return Surd(self.p / norm, -self.q / norm, self.b)

    def __truediv__(self, other):
        return self * (other._inverse() if isinstance(other, Surd) else Fraction(1) / other)

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self._inverse() ** -n
        # square and multiply; the square may be rational
        half = (self * self) ** (n // 2) if n > 1 else Fraction(1)
        return half * self if n % 2 else half

    def _sign(self, other=0) -> int:
        # the sign of self - other: that of the larger of p and q sqrt(b) in size
        p, q = self._parts(other)
        p, q = self.p - p, self.q - q
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp * sq >= 0:
            return sp or sq
        return sp if p * p > q * q * self.b else sq

    def __eq__(self, other):
        return (isinstance(other, Surd)
                and (self.p, self.q, self.b) == (other.p, other.q, other.b))

    def __hash__(self):
        return hash((self.p, self.q, self.b))

    def __lt__(self, other):
        return self._sign(other) < 0

    def __abs__(self) -> Surd:
        return -self if self._sign() < 0 else self

    def _floor(self, scale: Fraction) -> int:
        """floor(x * scale) for a rational scale > 0, from exact integers."""
        # x scale = (a + c sqrt(r)) / e with r no square, so |c| sqrt(r) lies
        # strictly between root and root + 1
        p, q, b = self.p * scale, self.q * scale, self.b
        a, c = p.numerator * q.denominator * b.denominator, q.numerator * p.denominator
        e, r = p.denominator * q.denominator * b.denominator, b.numerator * b.denominator
        root = math.isqrt(c * c * r)
        return (a + (root if c > 0 else -root - 1)) // e

    def __float__(self) -> float:
        # floats near x and the midpoints between them are multiples of 10**-k, and x
        # is irrational: it rounds as the middle of its cell (N, N + 1) 10**-k does
        k = max(0, 56 - math.floor(Surd.log2(abs(self))))
        return float(Fraction(2 * self._floor(Fraction(10) ** k) + 1, 2 * 10 ** k))

    def __round__(self, ndigits: Optional[int] = None):
        # x 10**d is irrational, never a tie: it rounds to floor(2 x 10**d + 1) // 2
        scale = Fraction(10) ** (ndigits or 0)
        n = (self._floor(2 * scale) + 1) // 2
        return n if ndigits is None else n / scale

    @staticmethod
    def log2(x: Union[Fraction, Surd]) -> float:
        """log2 of a positive Fraction or Surd, free of cancellation and overflow."""
        if not isinstance(x, Surd):
            return _log2(x)
        # log2(|p| + |q| sqrt b) from the log2 of each term
        total = _log2(abs(x.q)) + _log2(x.b) / 2
        if x.p:
            lp = _log2(abs(x.p))
            total = max(lp, total) + math.log1p(2.0 ** -abs(lp - total)) / math.log(2)
        if x.p * x.q >= 0:
            return total
        return _log2(abs(x.p * x.p - x.q * x.q * x.b)) - total

    def __str__(self) -> str:
        sign = "-" if self.q < 0 else "+" if self.p else ""
        return f"{self.p or ''}{sign}{abs(self.q)}*sqrt({self.b})"

    def __repr__(self) -> str:
        return f"Surd({self})"


def _root(b: Fraction, c: Fraction = Fraction(1)) -> Exact:
    # c sqrt(b): a Fraction when b is a square, else c times the generator of Q(sqrt(b))
    root = _rational_root(b, 2)
    return c * root if root is not None else Surd(Fraction(0), c, b)


@dataclass(frozen=True)
class GBParams:
    """Weight parameters and starting point of a GB walk; a, b are kept as Fractions."""

    a: Real
    b: Real
    i: int = 0
    j: int = 0

    def __post_init__(self):
        a, b = _weights(self.a, self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if isinstance(self.i, bool) or isinstance(self.j, bool):
            raise ValueError("start point coordinates must be ints, not bools")
        if self.i < 0 or self.j < 0:
            raise ValueError("start point must lie in the quarter plane")

    def model(self) -> StepSet:
        return builtin_model("gb", self.a, self.b)


@dataclass(frozen=True)
class GBClassification:
    label: str        # one of the nine sub-case labels
    family: str       # one of the six universality classes
    rho: Exact
    alpha: Fraction


def gb_classify(a: Real, b: Real) -> GBClassification:
    """Resolve the universality class of the weighting (a, b).

    Conditions are checked in the order balanced, axial-1, axial-2, free,
    directed-1, directed-2, transitional-1, transitional-2, reluctant; they
    partition the positive quadrant, with sqrt(b) comparisons rewritten as
    exact comparisons against b.
    """
    a, b = _weights(a, b)
    if a == 1 and b == 1:
        return GBClassification("balanced", "balanced", Fraction(4), Fraction(2))
    if a == b and a > 1:
        return GBClassification("axial1", "axial", _e12(a), Fraction(1, 2))
    if b == a * a and a > 1:
        return GBClassification("axial2", "axial", _e13(b), Fraction(1, 2))
    if b < a * a and a < b:
        return GBClassification("free", "free", _e123(a, b), Fraction(0))
    if b > 1 and b > a * a:
        return GBClassification("directed1", "directed", _e13(b), Fraction(3, 2))
    if a > 1 and a > b:
        return GBClassification("directed2", "directed", _e12(a), Fraction(3, 2))
    if a == 1 and b < 1:
        return GBClassification("transitional1", "transitional", Fraction(4), Fraction(3))
    if b == 1 and a < 1:
        return GBClassification("transitional2", "transitional", Fraction(4), Fraction(3))
    if a < 1 and b < 1:
        return GBClassification("reluctant", "reluctant", Fraction(4), Fraction(5))
    raise AssertionError(f"class conditions failed to match (a, b) = ({a}, {b})")


def _e12(a: Fraction) -> Fraction:
    # (1 + a)**2 / a from integers, for a = p/q
    p, q = a.numerator, a.denominator
    return Fraction((p + q) ** 2, p * q)


def _e13(b: Fraction) -> Exact:
    # 2 (b + 1) / sqrt(b) = (2 (b + 1) / b) sqrt(b)
    return _root(b, Fraction(2 * (b.numerator + b.denominator), b.numerator))


def _e123(a: Fraction, b: Fraction) -> Fraction:
    # (1 + b) (a**2 + b) / (a b), for b = r/s
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    return Fraction((r + s) * (p * p * s + r * q * q), p * q * r * s)


def gb_kappa_V(params: GBParams) -> tuple[Optional[float], Exact, Exact]:
    """(kappa, V_even, V_odd) at the start: V_even applies when n + i is even.

    Classes without a parity term return equal values.  kappa is a float (it
    involves pi), or None where it leaves the float range; gb_estimate uses
    its log2.  V is exact, a Fraction or a Surd.
    """
    a, b = params.a, params.b
    label = gb_classify(a, b).label
    k, e = _KAPPA[label]
    # sqrt(K) = sqrt(K / 4**s) * 2**s, with K / 4**s in [1/4, 4) and no
    # rounding from the power of two, so an in-range kappa is not changed
    big_k = k(a, b)
    s = (big_k.numerator.bit_length() - big_k.denominator.bit_length()) // 2
    try:  # out of range: an OverflowError, or an underflow to 0
        kappa = math.ldexp(math.sqrt(big_k / Fraction(4) ** s) / math.pi ** e, s) or None
    except OverflowError:
        kappa = None
    lam, mu, r, plus, minus = _form(label, a, b)
    v = lam ** params.i * mu ** params.j * r(params.i, params.j)
    return kappa, v * (plus + minus), v * (plus - minus)


def _form(label: str, a: Fraction, b: Fraction) -> tuple:
    """V as (lam, mu, R, plus, minus), with R rational:

    V^[n](i, j) = lam**i mu**j R(i, j) (plus + (-1)**(n+i) minus), and plus != 0.
    """
    return _V[label](a, b, _root(b))


_1 = Fraction(1)

# (lam, mu, R, plus, minus) per class from a, b and sqrt(b)
_V = {
    "balanced": lambda a, b, rb: (_1, _1, universal_harmonic, _1, 0),
    "free": lambda a, b, rb: (1 / a ** 2, 1 / (a ** 2 * b ** 2), lambda i, j: (
        (a ** (2 + 2 * j) - 1) * (a ** (4 + 2 * i + 2 * j) - b ** (4 + 2 * i + 2 * j))
        / b ** (i + 1) - (a ** (4 + 2 * i + 2 * j) - 1) * (a ** (2 + 2 * j) - b ** (2 + 2 * j))),
        1 / (a ** 4 * b ** 2), 0),
    "reluctant": lambda a, b, rb: (
        1 / a, 1 / b, universal_harmonic,
        6 * (a * a * b * b + a * a * b - 4 * a * b + b + 1) / (a - 1) ** 4,
        6 * (a * a * b * b + a * a * b + 4 * a * b + b + 1) / (a + 1) ** 4),
    # lam = 1 / (a sqrt(b)) takes every sqrt(b) out of R
    "directed1": lambda a, b, rb: (1 / (a * rb), 1 / b ** 2, lambda i, j: (
        b ** (3 + i + 2 * j) * (1 + i) + (b ** (1 + j) - b ** (2 + i + j)) * (3 + i + 2 * j)
        - i - 1),
        1 / (rb - a) ** 2, 1 / (rb + a) ** 2),
    "directed2": lambda a, b, rb: (1 / a, 1 / b, lambda i, j: (
        (2 + i + j) * (a ** (-3 - j) - a ** (j - 1))
        + (1 + j) * (a ** (i + j) - a ** (-4 - i - j))), _1, 0),
    "axial1": lambda a, b, rb: (_1, _1, lambda i, j: (
        (j + 1) * (1 - b ** (-4 - 2 * i - 2 * j))
        + b ** (-1 - i) * (i + 2 + j) * (b ** (-2 - 2 * j) - 1)), _1, 0),
    "axial2": lambda a, b, rb: (_1, _1, lambda i, j: (
        (a ** 6 - a ** (-2 * i - 4 * j)) * (1 + i)
        + (a ** (2 - 2 * i - 2 * j) - a ** (4 - 2 * j)) * (3 + i + 2 * j)), _1, 0),
    "transitional1": lambda a, b, rb: (_1, 1 / b, universal_harmonic, 6 * _1, 0),
    "transitional2": lambda a, b, rb: (
        1 / a, _1, universal_harmonic, 6 / (1 - a) ** 2, 6 / (1 + a) ** 2),
}

# kappa = sqrt(K) / pi**e per class, with K exact: (K(a, b), e)
_KAPPA = {
    "balanced": (lambda a, b: Fraction(64), 1.0),
    "free": (lambda a, b: Fraction(1), 0.0),
    "reluctant": (lambda a, b: 4096 / (b - 1) ** 8, 1.0),
    "directed1": (lambda a, b: 2 / b ** 4, 0.5),
    "directed2": (lambda a, b: (a + 1) ** 6 * a / (4 * (a - b) ** 4), 0.5),
    "axial1": (lambda a, b: (b + 1) ** 2 / b, 0.5),
    "axial2": (lambda a, b: 2 / a ** 12, 0.5),
    "transitional1": (lambda a, b: Fraction(256, 9) / (1 - b) ** 4, 1.0),
    "transitional2": (lambda a, b: Fraction(64, 9), 1.0),
}


def _log2_kappa(label: str, a: Fraction, b: Fraction) -> float:
    """log2 kappa from the exact K, finite for any weights."""
    k, e = _KAPPA[label]
    return _log2(k(a, b)) / 2 - e * math.log2(math.pi)


def universal_harmonic(i: int, j: int) -> Fraction:
    """The zero-drift harmonic function, the common limit of V/V(0,0) at (a,b)->(1,1)."""
    return Fraction((i + 1) * (j + 1) * (i + j + 2) * (i + 2 * j + 3), 6)


def gb_estimate(params: GBParams, n: int) -> XFloat:
    """The leading-term estimate kappa * V^[n](i,j) * rho**n / n**alpha as an XFloat.

    Evaluated in log2 space so that rho**n survives any n.
    """
    return _estimator(params)(n)


def _estimator(params: GBParams) -> Callable[[int], XFloat]:
    """n -> gb_estimate(params, n), with the class, V, kappa and rho taken once."""
    cls = gb_classify(params.a, params.b)
    _, *vs = gb_kappa_V(params)
    log2_v = [Surd.log2(v) if v > 0 else None for v in vs]
    log2_kappa, log2_rho = _log2_kappa(cls.label, params.a, params.b), Surd.log2(cls.rho)
    alpha = float(cls.alpha)

    def estimate(n: int) -> XFloat:
        if n < 1:
            raise ValueError("estimates require n >= 1")
        parity = (n + params.i) % 2
        if vs[parity] == 0:
            return XFloat(0.0)
        if vs[parity] < 0:
            raise ValueError("harmonic value must be nonnegative")
        return XFloat.exp2(log2_kappa + log2_v[parity] + n * log2_rho
                           - alpha * math.log2(n))

    return estimate


def _excursion_factor(params: GBParams) -> Fraction:
    # the excursion constant times pi: 128 (j+1)(1+i)(3+i+2j)(2+i+j) / (a**i b**j)
    i, j = params.i, params.j
    return (128 * (j + 1) * (1 + i) * (3 + i + 2 * j) * (2 + i + j)
            / (params.a ** i * params.b ** j))


def gb_excursion_estimate(params: GBParams, n: int) -> XFloat:
    """Leading term of the excursion count from (i, j) back to the origin.

    Zero when n + i is odd; otherwise 4**n / n**5 * _excursion_factor / pi.
    """
    if n < 1:
        raise ValueError("estimates require n >= 1")
    if (n + params.i) % 2 == 1:
        return XFloat(0.0)
    return XFloat.exp2(_log2(_excursion_factor(params)) - math.log2(math.pi)
                       + 2.0 * n - 5.0 * math.log2(n))


def check_harmonicity(params: GBParams, grid_size: int = 4) -> bool:
    """Verify rho * V^[n+1](i,j) = sum_s w_s V^[n]((i,j)+s) for 0 <= i, j <= grid_size.

    V is extended by zero outside the quarter plane.  A GB step keeps n + i's
    parity, so both sides share the factor plus +- minus of V (see _form).
    Divided by it and by lam**i mu**j, the identity is f(i, j) = 0 for
    f = rho R(i,j) - sum_s w_s lam**dx mu**dy R((i,j)+s), compared exactly in
    Q(sqrt(b)) on [0, min(grid_size, 4)]**2 only.  That decides every cell:
    each R is a sum of c x**i y**j P(i, j) of order at most 4 in i and in j
    (tests/test_gb.py checks _V with sympy), and an exponential polynomial of
    order r that vanishes at r consecutive integers vanishes everywhere
    (Everest, van der Poorten, Shparlinski & Ward, "Recurrence Sequences",
    AMS 2003).  For i, j >= 1 every neighbour lies in the quarter plane, so f
    has that order in each coordinate there and [1, 4]**2 decides the
    interior.  On an axis the neighbour off the plane is a zero, so i = 1..4
    decides j = 0 and j = 1..4 decides i = 0; (0, 0) is compared itself.
    This holds for any rho and R of that order, right or wrong.
    """
    if grid_size < 0:
        raise ValueError(f"grid size must be nonnegative, got {grid_size}")
    a, b = params.a, params.b
    cls = gb_classify(a, b)
    lam, mu, r, *_ = _form(cls.label, a, b)
    moves = [(dx, dy, w * lam ** dx * mu ** dy)
             for dx, dy, w in ((1, 0, a), (-1, 0, 1 / a), (-1, 1, b / a), (1, -1, a / b))]
    cells = range(min(grid_size, 4) + 1)
    # R on [0, 5]**2 at most: each cell and its neighbours, zero off the quarter plane
    values = {(i, j): r(i, j) for i in range(len(cells) + 1) for j in range(len(cells) + 1)}
    return all(cls.rho * values[i, j]
               == sum(w * values.get((i + dx, j + dy), 0) for dx, dy, w in moves)
               for i in cells for j in cells)


@dataclass(frozen=True)
class CriticalPoint:
    label: str
    stratum: str
    xy: tuple[Exact, Exact]
    t: Exact
    growth: Exact


def gb_critical_points(a: Real, b: Real) -> list[CriticalPoint]:
    """The critical points of the singular variety by stratum, with growths.

    Six points across the four strata that can carry them, each with
    t = 1/(x y S(1/x, 1/y)); all values are exact in Q(sqrt(b)), and every t
    is rational, in closed form.
    """
    a, b = _weights(a, b)
    # a = p/q and b = r/s; S(1/x, 1/y) = sign(x) * growth, so t = 1/(|x| y growth)
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    one, four, x13, e13, e123 = Fraction(1), Fraction(4), _root(b, a / b), _e13(b), _e123(a, b)
    t1, t13 = Fraction(q * s, 4 * p * r), Fraction(q * r, 2 * p * (r + s))
    points = (("c1+", "V1", a, b, four, t1), ("c1-", "V1", -a, b, four, t1),
              ("c12", "V12", one, b / a, _e12(a), Fraction(p * p * s, r * (p + q) ** 2)),
              ("c13+", "V13", x13, one, e13, t13), ("c13-", "V13", -x13, one, e13, t13),
              ("c123", "V123", one, one, e123, 1 / e123))
    return [CriticalPoint(label, stratum, (x, y), t, growth)
            for label, stratum, x, y, growth, t in points]


_CONTRIBUTING = {
    **dict.fromkeys(("balanced", "transitional1", "transitional2", "reluctant"),
                    frozenset({"c1+", "c1-"})),
    **dict.fromkeys(("axial1", "directed2"), frozenset({"c12"})),
    **dict.fromkeys(("axial2", "directed1"), frozenset({"c13+", "c13-"})),
    "free": frozenset({"c123"}),
}


def gb_contributing(a: Real, b: Real) -> frozenset[str]:
    """Labels of the contributing critical points for the weighting (a, b)."""
    return _CONTRIBUTING[gb_classify(a, b).label]
