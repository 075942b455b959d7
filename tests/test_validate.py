"""Validation runs: ratio sequences, parity handling, slope fits."""

import math
from fractions import Fraction as F

import pytest

from orthantwalks import GBParams, gb_estimate, validate_excursions, validate_totals
from orthantwalks import validate
from orthantwalks.validate import _fit_slope
from orthantwalks.xfloat import XFloat
from tests.conftest import CLASS_REPS


class TestTotals:
    def test_balanced_short_run(self):
        report = validate_totals(GBParams(1, 1), 200, 0.05)
        assert report.passed
        assert abs(report.final_ratio - 1) <= 0.02
        assert -1.5 <= report.error_slope <= -0.7

    def test_free_fast_decay(self):
        report = validate_totals(GBParams(2, 3), 400, 0.01)
        assert report.passed
        # error decays exponentially, far steeper than the 1/n reference
        assert report.error_slope is None or report.error_slope <= -1.5

    def test_impossible_tolerance_fails(self):
        report = validate_totals(GBParams(1, 1), 60, 1e-9)
        assert not report.passed

    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            validate_totals(GBParams(1, 1), 40, 0.05)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        for runner in (validate_totals, validate_excursions):
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                runner(GBParams(1, 1), 60, tolerance)

    def test_slope_needs_two_fitted_lengths(self):
        # one ratio at n >= 50 fits no slope, so the run raises rather than pass untested;
        # from two on the slope test decides (+11.06 from n = 50 and 51 fails)
        with pytest.raises(ValueError, match="two lengths"):
            validate_totals(GBParams(1, 1), 50, 0.5)
        with pytest.raises(ValueError, match="two lengths"):
            validate_excursions(GBParams(1, 1), 51, 0.5)
        report = validate_totals(GBParams(1, 1), 51, 0.5)
        assert report.error_slope == pytest.approx(11.06, abs=0.01) and not report.passed

    def test_slope_below_noise_floor_passes(self, monkeypatch):
        monkeypatch.setattr(validate, "NOISE_FLOOR", 1.0)
        report = validate_totals(GBParams(1, 1), 60, 0.5)
        assert report.error_slope is None and report.passed

    def test_report_summary_shape(self):
        report = validate_totals(GBParams(1, 1), 60, 0.5)
        summary = report.summary()
        assert summary["what"] == "totals"
        assert summary["passed"] == report.passed
        assert len(report.ns) == len(report.ratios)


class TestEstimateOncePerRun:
    # the directed-1 weighting (1, 2) has V in Q(sqrt 2); start (1, 2) splits V by parity
    CASES = [(label, a, b, 0, 0) for label, a, b in CLASS_REPS] + [
        ("directed1", 1, 2, 0, 0), ("directed1", 1, 2, 1, 2), ("reluctant", F(1, 2), F(1, 3), 1, 2)]

    @pytest.mark.parametrize("label,a,b,i,j", CASES,
                             ids=[f"{c[0]}({c[1]},{c[2]})-({c[3]},{c[4]})" for c in CASES])
    def test_hoisted_estimate_equals_gb_estimate(self, monkeypatch, label, a, b, i, j):
        params, seen, real = GBParams(a, b, i, j), {}, validate._estimator

        def recording(p):
            estimate = real(p)
            return lambda n: seen.setdefault(n, estimate(n))

        monkeypatch.setattr(validate, "_estimator", recording)
        validate_totals(params, 100, 1.0)
        assert sorted(seen) == list(range(1, 101))
        for n, got in seen.items():
            want = gb_estimate(params, n)
            assert (got.man, got.exp) == (want.man, want.exp), n


class TestSlopeInvariant:
    # measured log-log error slopes over n in [50, 800] for each representative;
    # classes with a genuine 1/n first correction sit in [-1.5, -0.7], the free
    # class decays exponentially (far steeper), and the reluctant representative
    # has a first-order constant ~123 so its fit is still climbing out of the
    # transient at n=800 (slope approaches -1 from above on longer windows)
    IN_RANGE = {"balanced", "directed1", "directed2", "axial1", "axial2",
                "transitional1", "transitional2"}

    def test_error_slopes_by_class(self, totals_reports):
        for label, report in totals_reports.items():
            slope = report.error_slope
            if label in self.IN_RANGE:
                assert -1.5 <= slope <= -0.7, (label, slope)
            elif label == "free":
                assert slope is None or slope <= -1.5, (label, slope)
            else:  # reluctant
                assert slope <= -0.6, (label, slope)


class TestExcursions:
    def test_balanced_origin(self):
        report = validate_excursions(GBParams(1, 1), 240, 0.1)
        assert report.passed
        assert all(n % 2 == 0 for n in report.ns)

    def test_weighted_from_interior_start(self):
        # start (1,1), weights (2,3): only odd lengths return to the origin;
        # the measured first-order correction is ~31/n, within 10% at n=601
        report = validate_excursions(GBParams(2, 3, 1, 1), 601, 0.1)
        assert report.passed
        assert all(n % 2 == 1 for n in report.ns)

    def test_parity_violation_raises(self, monkeypatch):
        # an estimate at a length of the wrong parity, where no walk returns, is a fault
        real = validate.gb_excursion_estimate
        monkeypatch.setattr(validate, "gb_excursion_estimate",
                            lambda params, n: XFloat(1.0) if n % 2 else real(params, n))
        with pytest.raises(AssertionError, match="parity violation at n=1"):
            validate_excursions(GBParams(1, 1), 60, 0.5)

    def test_ratio_positive_finite(self):
        report = validate_excursions(GBParams(1, 1), 120, 0.5)
        assert all(r > 0 and math.isfinite(r) for r in report.ratios)


class TestSlopeFit:
    def test_pure_power_law(self):
        ns = list(range(50, 400))
        errors = [3.0 / n for n in ns]
        assert _fit_slope(ns, errors) == pytest.approx(-1.0, abs=1e-9)

    def test_noise_floor_excluded(self):
        ns = list(range(50, 200))
        errors = [1e-13 for _ in ns]
        assert _fit_slope(ns, errors) is None

    def test_small_n_discarded(self):
        ns = [10, 20, 30, 100, 200]
        errors = [1.0, 1.0, 1.0, 0.03, 0.015]
        slope = _fit_slope(ns, errors)
        assert slope == pytest.approx(-1.0, abs=1e-9)
