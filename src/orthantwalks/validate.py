"""Cross-checks of exact counts against the closed-form leading terms.

A validation run counts walks in scaled mode, evaluates the closed-form
estimate at each length, and measures the ratio count/estimate.  The leading
term carries a relative error O(1/n), so a run passes when the final ratio is
within tolerance of 1 and the log-log slope of |ratio - 1| against n is at
most -0.8.  The fit needs ratios at two lengths n >= 50 at least, so a run
with fewer raises ValueError.

Ratios below the scaled-arithmetic noise floor (~1e-11) are excluded from the
slope fit: classes whose relative error decays exponentially bottom out at
the arithmetic noise long before n_max, and a flat noise plateau says nothing
about the 1/n behaviour the fit is after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .counting import DEFAULT_GUARD, count_walks
from .gb import GBParams, _estimator, gb_excursion_estimate
from .xfloat import XFloat

FIT_MIN_N = 50
ORIGIN = (0, 0)
NOISE_FLOOR = 1e-11


@dataclass(frozen=True)
class ValidationReport:
    """Measured agreement between exact counts and a closed-form estimate."""

    params: GBParams
    what: str
    n_max: int
    tolerance: float
    ns: tuple[int, ...]
    ratios: tuple[float, ...]
    final_ratio: float
    error_slope: Optional[float]
    passed: bool

    def summary(self) -> dict:
        return {
            "what": self.what,
            "a": str(self.params.a),
            "b": str(self.params.b),
            "start": [self.params.i, self.params.j],
            "n_max": self.n_max,
            "tolerance": self.tolerance,
            "final_ratio": self.final_ratio,
            "error_slope": self.error_slope,
            "passed": self.passed,
        }


def _fit_slope(ns, errors) -> Optional[float]:
    points = [(math.log(n), math.log(e)) for n, e in zip(ns, errors)
              if n >= FIT_MIN_N and e > NOISE_FLOOR]
    if len(points) < 2:
        return None  # fewer than two ratios above the noise floor: decay faster than any fit
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    return sxy / sxx  # the lengths differ, so sxx > 0


def _ratio(count: XFloat, estimate: XFloat) -> Optional[float]:
    if estimate.is_zero() or count.is_zero():
        return None
    return float(count / estimate)


def validate_totals(params: GBParams, n_max: int, tolerance: float,
                    guard: int = DEFAULT_GUARD) -> ValidationReport:
    """Compare total confined-walk counts against kappa * V * rho**n / n**alpha."""
    return _validate(params, "totals", n_max, tolerance, guard)


def validate_excursions(params: GBParams, n_max: int, tolerance: float,
                        guard: int = DEFAULT_GUARD) -> ValidationReport:
    """Compare excursion counts to the origin against their closed-form leading term.

    Odd-parity lengths must give exactly zero on both sides; they are checked
    and excluded from the ratio sequence.
    """
    return _validate(params, "excursions", n_max, tolerance, guard)


def _validate(params: GBParams, what: str, n_max: int, tolerance: float,
              guard: int) -> ValidationReport:
    if n_max < 50:
        raise ValueError("validation needs n_max >= 50 to clear the transient regime")
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    excursions = what == "excursions"
    table = count_walks(params.model(), (params.i, params.j), n_max, mode="scaled",
                        track=[ORIGIN] if excursions else (), guard=guard)
    total_estimate = _estimator(params)  # class, V, kappa and rho once per run
    ns, ratios = [], []
    for n in range(1, n_max + 1):
        if not excursions:
            count, estimate = table.total(n), total_estimate(n)
        else:
            count, estimate = table.endpoint(ORIGIN, n), gb_excursion_estimate(params, n)
            if (n + params.i) % 2 == 1:
                if not (count.is_zero() and estimate.is_zero()):
                    raise AssertionError(f"parity violation at n={n}")
                continue
        r = _ratio(count, estimate)
        if r is not None:
            ns.append(n)
            ratios.append(r)
    if sum(n >= FIT_MIN_N for n in ns) < 2:
        raise ValueError(f"validation needs ratios at two lengths n >= {FIT_MIN_N} "
                         "for the slope fit")
    final = ratios[-1]
    slope = _fit_slope(ns, [abs(r - 1.0) for r in ratios])
    passed = abs(final - 1.0) <= tolerance and (slope is None or slope <= -0.8)
    return ValidationReport(params=params, what=what, n_max=n_max,
                            tolerance=tolerance, ns=tuple(ns), ratios=tuple(ratios),
                            final_ratio=final, error_slope=slope, passed=passed)
