"""Closed-form asymptotics for the weighted Gouyou-Beauchamps model.

The GB step set {(1,0), (-1,0), (-1,1), (1,-1)} with product weights
(a, 1/a, b/a, a/b) splits into six universality classes depending on (a, b).
This module stores the class conditions, the exponential growth rho, the
critical exponent, and the per-class constant kappa and harmonic function V,
and evaluates the resulting estimate kappa * V * rho**n * n**-alpha.

Values of V may depend on the parity of n + i; they are handled as an
(even, odd) pair throughout.  Formulas are evaluated in exact rational
arithmetic whenever the inputs (including sqrt(b) where it appears) are
rational, so the harmonicity identity can be checked with zero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .stepset import StepSet, builtin_model
from .xfloat import XFloat

Number = Union[int, Fraction, float]

GB_FAMILIES = ("balanced", "free", "reluctant", "directed", "axial", "transitional")


def _exact(value: Number) -> Optional[Fraction]:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return None


def sqrt_exact(value: Fraction) -> Optional[Fraction]:
    """The exact rational square root, or None when b is not a perfect square."""
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


@dataclass(frozen=True)
class GBParams:
    """Weight parameters and starting point of a GB walk."""

    a: Number
    b: Number
    i: int = 0
    j: int = 0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("weights a, b must be positive")
        if self.i < 0 or self.j < 0:
            raise ValueError("start point must lie in the quarter plane")

    def model(self) -> StepSet:
        return builtin_model("gb", Fraction(self.a), Fraction(self.b))


@dataclass(frozen=True)
class GBClassification:
    label: str        # one of the nine sub-case labels
    family: str       # one of the six universality classes
    rho: Number
    alpha: Fraction


def gb_classify(a: Number, b: Number) -> GBClassification:
    """Resolve the universality class of the weighting (a, b).

    Conditions are checked in the order balanced, axial-1, axial-2, free,
    directed-1, directed-2, transitional-1, transitional-2, reluctant; they
    partition the positive quadrant, with sqrt(b) comparisons rewritten as
    exact comparisons against b.
    """
    if a <= 0 or b <= 0:
        raise ValueError("weights a, b must be positive")
    if a == 1 and b == 1:
        return GBClassification("balanced", "balanced", Fraction(4), Fraction(2))
    if a == b and a > 1:
        return GBClassification("axial1", "axial", _e12(a), Fraction(1, 2))
    if b == a * a and a > 1:
        return GBClassification("axial2", "axial", _e13(a, b), Fraction(1, 2))
    if b < a * a and a < b:
        return GBClassification("free", "free", _e123(a, b), Fraction(0))
    if b > 1 and b > a * a:
        return GBClassification("directed1", "directed", _e13(a, b), Fraction(3, 2))
    if a > 1 and a > b:
        return GBClassification("directed2", "directed", _e12(a), Fraction(3, 2))
    if a == 1 and b < 1:
        return GBClassification("transitional1", "transitional", Fraction(4), Fraction(3))
    if b == 1 and a < 1:
        return GBClassification("transitional2", "transitional", Fraction(4), Fraction(3))
    if a < 1 and b < 1:
        return GBClassification("reluctant", "reluctant", Fraction(4), Fraction(5))
    raise AssertionError(f"class conditions failed to match (a, b) = ({a}, {b})")


def _e12(a: Number) -> Number:
    return (1 + a) ** 2 / _as_div(a)


def _e13(a: Number, b: Number) -> Number:
    # 2(b+1)/sqrt(b); exact when b is a perfect square (in particular b = a**2)
    eb = _exact(b)
    if eb is not None:
        if _exact(a) is not None and eb == Fraction(a) ** 2:
            return 2 * (eb + 1) / Fraction(a)
        root = sqrt_exact(eb)
        if root is not None:
            return 2 * (eb + 1) / root
    return 2.0 * (float(b) + 1.0) / math.sqrt(float(b))


def _e123(a: Number, b: Number) -> Number:
    return (1 + b) * (a * a + b) / _as_div(a * b)


def _as_div(x: Number) -> Number:
    return Fraction(x) if isinstance(x, int) else x


def _numbers(params: GBParams) -> tuple[Number, Number, Optional[Number]]:
    """(a, b, sqrt_b) with everything exact when possible, floats otherwise."""
    a, b = params.a, params.b
    ea, eb = _exact(a), _exact(b)
    if ea is not None and eb is not None:
        rb = sqrt_exact(eb)
        if rb is not None:
            return ea, eb, rb
        return ea, eb, None
    return float(a), float(b), math.sqrt(float(b))


def gb_kappa_V(params: GBParams) -> tuple[float, Number, Number]:
    """(kappa, V_even, V_odd) at the starting point of params.

    V_even is the harmonic value when n + i is even, V_odd when odd; classes
    without a parity term return them equal.  kappa is always a float (it
    involves pi); V is exact whenever a, b and any needed sqrt(b) are rational.
    """
    label = gb_classify(params.a, params.b).label
    a, b, rb = _numbers(params)
    i, j = params.i, params.j
    if label in ("directed1",) and rb is None:
        a, b, rb = float(params.a), float(params.b), math.sqrt(float(params.b))
    if label == "axial2" and rb is None:
        # b = a**2 exactly, so the root is a itself
        rb = a
    return _KAPPA_V[label](a, b, rb, i, j)


def _poly(i: int, j: int) -> int:
    # the degree-4 polynomial common to several classes
    return (j + 1) * (i + 1) * (i + 3 + 2 * j) * (i + 2 + j)


def _kv_balanced(a, b, rb, i, j):
    v = Fraction((i + 1) * (j + 1) * (i + j + 2) * (i + 2 * j + 3), 6)
    return 8.0 / math.pi, v, v


def _kv_free(a, b, rb, i, j):
    one = Fraction(1) if isinstance(a, Fraction) else 1.0
    a4 = a ** (4 + 2 * i + 2 * j)
    b2 = b ** (2 + 2 * j)
    first = (a ** (2 * (1 + j)) - one) * (a ** (2 * (2 + i + j)) - b ** (2 * (2 + i + j)))
    second = (a ** (2 * (2 + i + j)) - one) * (a ** (2 * (1 + j)) - b ** (2 * (1 + j)))
    v = (first / b ** (i + 1) - second) / (a4 * b2)
    return 1.0, v, v


def _kv_reluctant(a, b, rb, i, j):
    base = _poly(i, j) / (a ** i * b ** j)
    even_part = (a * a * b * b + a * a * b - 4 * a * b + b + 1) / (a - 1) ** 4
    odd_part = (a * a * b * b + a * a * b + 4 * a * b + b + 1) / (a + 1) ** 4
    kappa = 64.0 / (math.pi * float(b - 1) ** 4)
    return kappa, base * (even_part + odd_part), base * (even_part - odd_part)


def _kv_directed1(a, b, rb, i, j):
    numer = (b ** (3 + i + 2 * j) * (1 + i)
             + (b ** (1 + j) - b ** (2 + i + j)) * (3 + i + 2 * j) - i - 1)
    base = numer / (a ** i * rb ** i * b ** (2 * j))
    plus = 1 / ((rb - a) ** 2 if isinstance(a, Fraction) else float(rb - a) ** 2)
    minus = 1 / ((rb + a) ** 2 if isinstance(a, Fraction) else float(rb + a) ** 2)
    kappa = math.sqrt(2.0) / (math.sqrt(math.pi) * float(b) ** 2)
    return kappa, base * (plus + minus), base * (plus - minus)


def _kv_directed2(a, b, rb, i, j):
    v = ((2 + i + j) * (a ** (-2 - j) - a ** j) * b ** (-j) * a ** (-1 - i)
         + (1 + j) * (1 - a ** (-4 - 2 * i - 2 * j)) * b ** (-j) * a ** j)
    kappa = (float(a) + 1.0) ** 3 * math.sqrt(float(a)) / (
        2.0 * math.sqrt(math.pi) * float(a - b) ** 2)
    return kappa, v, v


def _kv_axial1(a, b, rb, i, j):
    v = ((j + 1) * (1 - b ** (-2 * (2 + i + j)))
         + b ** (-i - 1) * (i + 2 + j) * (b ** (-2 * (1 + j)) - 1))
    kappa = (float(b) + 1.0) / math.sqrt(float(b) * math.pi)
    return kappa, v, v


def _kv_axial2(a, b, rb, i, j):
    v = ((a ** 6 - a ** (-2 * i - 4 * j)) * (1 + i)
         + (a ** (2 - 2 * i - 2 * j) - a ** (4 - 2 * j)) * (3 + i + 2 * j))
    kappa = math.sqrt(2.0) / (float(a) ** 6 * math.sqrt(math.pi))
    return kappa, v, v


def _kv_transitional1(a, b, rb, i, j):
    v = _poly(i, j) * b ** (-j)
    kappa = 16.0 / (3.0 * math.pi * float(1 - b) ** 2)
    return kappa, v, v


def _kv_transitional2(a, b, rb, i, j):
    base = _poly(i, j) * a ** (-i)
    plus = 1 / (1 - a) ** 2
    minus = 1 / (1 + a) ** 2
    kappa = 8.0 / (3.0 * math.pi)
    return kappa, base * (plus + minus), base * (plus - minus)


_KAPPA_V = {
    "balanced": _kv_balanced,
    "free": _kv_free,
    "reluctant": _kv_reluctant,
    "directed1": _kv_directed1,
    "directed2": _kv_directed2,
    "axial1": _kv_axial1,
    "axial2": _kv_axial2,
    "transitional1": _kv_transitional1,
    "transitional2": _kv_transitional2,
}


def universal_harmonic(i: int, j: int) -> Fraction:
    """The zero-drift harmonic function, the common limit of V/V(0,0) at (a,b)->(1,1)."""
    return Fraction((i + 1) * (j + 1) * (i + j + 2) * (i + 2 * j + 3), 6)


def gb_estimate(params: GBParams, n: int) -> XFloat:
    """The leading-term estimate kappa * V^[n](i,j) * rho**n / n**alpha.

    Evaluated in log2 space so that rho**n survives any n; returns an
    extended-range float.
    """
    if n < 1:
        raise ValueError("estimates require n >= 1")
    cls = gb_classify(params.a, params.b)
    kappa, v_even, v_odd = gb_kappa_V(params)
    v = v_even if (n + params.i) % 2 == 0 else v_odd
    if v == 0:
        return XFloat(0.0)
    if v < 0:
        raise ValueError("harmonic value must be nonnegative")
    log2 = (math.log2(kappa) + _log2(v)
            + n * _log2(cls.rho) - float(cls.alpha) * math.log2(n))
    return XFloat.exp2(log2)


def _log2(x: Number) -> float:
    if isinstance(x, Fraction):
        # exact split keeps precision for huge numerators/denominators
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def gb_excursion_estimate(params: GBParams, n: int) -> XFloat:
    """Leading term of the excursion count from (i, j) back to the origin.

    Zero when n + i is odd; otherwise
    4**n / n**5 * 128 (j+1)(1+i)(3+i+2j)(2+i+j) / (a**i b**j pi).
    """
    if n < 1:
        raise ValueError("estimates require n >= 1")
    if (n + params.i) % 2 == 1:
        return XFloat(0.0)
    return XFloat.exp2(math.log2(excursion_constant(params)) + 2.0 * n - 5.0 * math.log2(n))


def excursion_constant(params: GBParams) -> float:
    """The constant multiplying 4**n/n**5 in the even-parity excursion term."""
    i, j = params.i, params.j
    return 128.0 * (j + 1) * (1 + i) * (3 + i + 2 * j) * (2 + i + j) / (
        float(params.a) ** i * float(params.b) ** j * math.pi)


def check_harmonicity(params: GBParams, grid_size: int) -> bool:
    """Verify rho * V^[n+1](i,j) = sum_s w_s V^[n]((i,j)+s) on a grid.

    V is extended by zero outside the quarter plane.  In parity-dependent
    classes the check couples the two parity values (the recurrence swaps
    them, since every GB step flips the parity of i).  Exact rational inputs
    give an exact check; floats are compared at relative tolerance 1e-10.
    """
    cls = gb_classify(params.a, params.b)
    a, b, rb = _numbers(GBParams(params.a, params.b))
    exact = isinstance(a, Fraction) and (
        cls.label not in ("directed1", "axial2") or isinstance(rb, Fraction))
    if not exact:
        a, b = float(params.a), float(params.b)
        rb = math.sqrt(b)
    rho = cls.rho
    if not exact:
        rho = float(rho)
    weights = ((1, 0, a), (-1, 0, 1 / a), (-1, 1, b / a), (1, -1, a / b))
    cache: dict[tuple[int, int], tuple[Number, Number]] = {}

    def v_pair(i: int, j: int) -> tuple[Number, Number]:
        # (value when n+i even, value when n+i odd); zero outside the quadrant
        if i < 0 or j < 0:
            return 0, 0
        if (i, j) not in cache:
            _, ve, vo = _KAPPA_V[cls.label](a, b, rb, i, j)
            cache[(i, j)] = (ve, vo)
        return cache[(i, j)]

    def w_layer(parity: int, i: int, j: int) -> Number:
        # V^[n](i, j) for n of the given parity
        ve, vo = v_pair(i, j)
        return ve if (parity + i) % 2 == 0 else vo

    for i in range(grid_size + 1):
        for j in range(grid_size + 1):
            for parity in (0, 1):
                lhs = rho * w_layer(1 - parity, i, j)
                rhs = sum(w * w_layer(parity, i + dx, j + dy)
                          for dx, dy, w in weights)
                if exact:
                    if lhs != rhs:
                        return False
                elif abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), 1e-300):
                    return False
    return True


@dataclass(frozen=True)
class CriticalPoint:
    label: str
    stratum: str
    xy: tuple[Number, Number]
    t: Number
    growth: Number


def _gb_inventory_signed(a: Number, b: Number, x: Number, y: Number) -> Number:
    # the weighted Laurent polynomial, evaluated off the positive quadrant too
    return a * x + 1 / (a * x) + b * y / (a * x) + a * x / (b * y)


def gb_critical_points(a: Number, b: Number) -> list[CriticalPoint]:
    """The critical points of the singular variety by stratum, with growths.

    Six points across the four strata that can carry them; each entry also
    records t = 1/(x y S(1/x, 1/y)).  Exact rationals wherever possible,
    floats where sqrt(b) is irrational.
    """
    if a <= 0 or b <= 0:
        raise ValueError("weights a, b must be positive")
    ea, eb = _exact(a), _exact(b)
    if ea is not None and eb is not None:
        a, b = ea, eb
        rb = sqrt_exact(eb)
        if rb is None:
            rb = math.sqrt(float(eb))
    else:
        a, b = float(a), float(b)
        rb = math.sqrt(b)
    out = []

    def entry(label, stratum, x, y, growth):
        if isinstance(x, float) or isinstance(y, float) or isinstance(a, float):
            xf, yf = float(x), float(y)
            s_val = _gb_inventory_signed(float(a), float(b), 1.0 / xf, 1.0 / yf)
            t = 1.0 / (xf * yf * s_val)
        else:
            s_val = _gb_inventory_signed(a, b, 1 / Fraction(x), 1 / Fraction(y))
            t = 1 / (Fraction(x) * Fraction(y) * s_val)
        out.append(CriticalPoint(label, stratum, (x, y), t, growth))

    e1 = Fraction(4) if isinstance(a, Fraction) else 4.0
    entry("c1+", "V1", a, b, e1)
    entry("c1-", "V1", -a, b, e1)
    entry("c12", "V12", 1 if isinstance(a, Fraction) else 1.0, b / a, _e12(a))
    e13 = _e13(a, b)
    entry("c13+", "V13", a / rb, 1 if isinstance(rb, Fraction) else 1.0, e13)
    entry("c13-", "V13", -a / rb, 1 if isinstance(rb, Fraction) else 1.0, e13)
    entry("c123", "V123", 1 if isinstance(a, Fraction) else 1.0,
          1 if isinstance(a, Fraction) else 1.0, _e123(a, b))
    return out


def gb_contributing(a: Number, b: Number) -> frozenset[str]:
    """Labels of the contributing critical points for the weighting (a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("weights a, b must be positive")
    labels = set()
    if a <= 1 and b <= 1:
        labels.update({"c1+", "c1-"})
    if a > 1 and a >= b:
        labels.add("c12")
    if b > 1 and b >= a * a:
        labels.update({"c13+", "c13-"})
    if b > a and a * a > b and b > 1:
        labels.add("c123")
    return frozenset(labels)
