"""Closed-form GB asymptotics: classes, harmonic values, estimates, critical points."""

import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from orthantwalks import (GBParams, check_harmonicity,
                          gb_classify, gb_contributing, gb_critical_points,
                          gb_estimate, gb_excursion_estimate, gb_kappa_V,
                          universal_harmonic)
from orthantwalks import gb
from orthantwalks.gb import Surd
from orthantwalks.linalg import _rational_root
from tests.conftest import CLASS_REPS

ROOT2 = Surd(F(0), F(1), F(2))


def inventory_signed(a, b, x, y):
    # the weighted Laurent polynomial S, evaluated off the positive quadrant too
    return a * x + 1 / (a * x) + b * y / (a * x) + a * x / (b * y)


ENTRY_POINTS = {
    "GBParams": GBParams,
    "gb_classify": gb_classify,
    "gb_critical_points": gb_critical_points,
    "gb_contributing": gb_contributing,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_finite_weight_rejected(entry, value):
    for a, b in [(value, 1), (1, value)]:
        with pytest.raises(ValueError):
            ENTRY_POINTS[entry](a, b)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bool_weight_rejected(entry):
    # Fraction(True) is 1, so a bool would pass for a weight
    for a, b in [(True, 1), (1, False)]:
        with pytest.raises(ValueError, match="weights a, b must be numbers, not bools"):
            ENTRY_POINTS[entry](a, b)


@pytest.mark.parametrize("call,message", [
    (lambda: GBParams(1, 1, -1, 0), "start point must lie in the quarter plane"),
    (lambda: GBParams(1, 1, True, 0), "start point coordinates must be ints, not bools"),
    (lambda: GBParams(1, 1, 0, False), "start point coordinates must be ints, not bools"),
    (lambda: gb_excursion_estimate(GBParams(1, 1), 0), "estimates require n >= 1"),
], ids=["start", "start-bool-i", "start-bool-j", "excursion-length"])
def test_rejected_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_float_weights_taken_at_exact_value():
    params = GBParams(0.1, 2.5)
    assert (params.a, params.b) == (F(0.1), F(5, 2)) and type(params.a) is F
    assert gb_classify(0.5, 0.5) == gb_classify(F(1, 2), F(1, 2))


class TestSurd:
    def test_rational_results_collapse(self):
        assert ROOT2 * ROOT2 == 2 and type(ROOT2 * ROOT2) is F
        assert ROOT2 ** -2 == F(1, 2) and type(ROOT2 ** 0) is F
        assert (1 + ROOT2) - ROOT2 == 1
        x, y = F(3, 7) - 2 * ROOT2, 5 + ROOT2 / 3
        assert x / y * y == x and y / x * x == y
        assert hash(ROOT2 + 1) == hash(1 + ROOT2)

    def test_order_is_exact(self):
        # Pell numbers: (1 + sqrt 2)**40 = p + q sqrt 2 with p**2 - 2 q**2 = 1
        big = (1 + ROOT2) ** 40
        tiny = big.p - big.q * ROOT2          # (sqrt 2 - 1)**40, about 5e-16
        assert 0 < tiny < F(1, 10 ** 15)
        assert F(141421356, 10 ** 8) < ROOT2 < F(141421357, 10 ** 8)
        assert -ROOT2 < 0 <= tiny <= tiny and abs(-ROOT2) == ROOT2

    def test_float_and_log2_do_not_cancel(self):
        big = (1 + ROOT2) ** 40
        tiny = big.p - big.q * ROOT2
        expected = (math.sqrt(2) - 1) ** 40
        assert float(tiny) == pytest.approx(expected, rel=1e-12)
        assert Surd.log2(tiny) == pytest.approx(40 * math.log2(math.sqrt(2) - 1), rel=1e-13)
        huge = F(10) ** 400 * ROOT2                 # beyond the float range
        assert Surd.log2(huge) == pytest.approx(400 * math.log2(10) + 0.5, rel=1e-15)

    @pytest.mark.parametrize("x", [
        ROOT2, -ROOT2 / 7, F(3, 7) - 2 * ROOT2, (1 + ROOT2) ** 40,
        (ROOT2 - 1) ** 40,                                           # p, q cancel to 5e-16
        Surd(F(0), F(1, 10 ** 200), F(2)),
        Surd(F(1, 10 ** 310), F(1, 10 ** 310), F(3)),               # subnormal
        Surd(F(0), F(1, 10 ** 400 + 1), F(10 ** 400 + 1)),          # b beyond float
        Surd(F(10 ** 300), F(-1), F(10 ** 599)),
        Surd(F(-10 ** 17 - 1), F(10 ** 8), F(10 ** 18 + 1)),        # cancelling terms
        Surd(F(7, 3), F(22, 9), F(5, 11)),
    ], ids=lambda x: str(x)[:24])
    def test_float_is_correctly_rounded(self, x):
        f = float(x)
        assert math.isfinite(f) and f != 0
        down, up = (F(math.nextafter(f, t)) for t in (-math.inf, math.inf))
        assert (F(f) + down) / 2 < x < (F(f) + up) / 2

    def test_float_beyond_range_raises(self):
        with pytest.raises(OverflowError):
            float(F(10) ** 400 * ROOT2)
        assert float(F(1, 10) ** 400 * ROOT2) == 0.0

    def test_round_to_digits(self):
        assert round(ROOT2, 5) == F(141421, 10 ** 5) and round(-ROOT2) == -1
        assert round(100 * ROOT2, -1) == 140
        assert round(F(1, 2) + ROOT2 / 10 ** 9, 9) == F(500000001, 10 ** 9)

    def test_mixed_fields_rejected(self):
        with pytest.raises(TypeError):
            ROOT2 + Surd(F(0), F(1), F(3))
        with pytest.raises(TypeError):
            ROOT2 * 1.5


class TestClassify:
    def test_balanced(self):
        cls = gb_classify(1, 1)
        assert (cls.label, cls.rho, cls.alpha) == ("balanced", 4, 2)

    def test_free_23(self):
        cls = gb_classify(2, 3)
        assert (cls.label, cls.rho, cls.alpha) == ("free", F(14, 3), 0)

    def test_reluctant(self):
        cls = gb_classify(F(1, 2), F(1, 2))
        assert (cls.label, cls.rho, cls.alpha) == ("reluctant", 4, 5)

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_representatives(self, label, a, b):
        assert gb_classify(a, b).label == label

    def test_rho_values(self):
        assert gb_classify(1, 4).rho == 5          # 2(b+1)/sqrt(b), sqrt(4)=2
        assert gb_classify(3, 2).rho == F(16, 3)   # (1+a)^2/a
        assert gb_classify(2, 2).rho == F(9, 2)
        assert gb_classify(2, 4).rho == 5
        assert gb_classify(1, F(1, 2)).rho == 4
        assert gb_classify(F(1, 2), 1).rho == 4

    def test_partition_of_parameter_space(self):
        values = [F(k, 8) for k in range(1, 25)]
        for a in values:
            for b in values:
                gb_classify(a, b)  # exactly one row must match; raises otherwise

    def test_irrational_rho_float_path(self):
        cls = gb_classify(1.0, 2.0)
        assert cls.label == "directed1"
        assert cls.rho == 3 * ROOT2 and cls.rho * cls.rho == 18
        assert float(cls.rho) == pytest.approx(2 * 3 / math.sqrt(2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            gb_classify(0, 1)


class TestKappaV:
    def test_balanced_origin(self):
        kappa, v_even, v_odd = gb_kappa_V(GBParams(1, 1))
        assert kappa == pytest.approx(8 / math.pi)
        assert v_even == v_odd == 1

    def test_balanced_10(self):
        _, v_even, _ = gb_kappa_V(GBParams(1, 1, 1, 0))
        assert v_even == 4  # (2)(1)(3)(4)/6

    def test_transitional2_parity_values(self):
        kappa, v_even, v_odd = gb_kappa_V(GBParams(F(1, 2), 1))
        assert kappa == pytest.approx(8 / (3 * math.pi))
        # polynomial factor 6 times (4 +- 4/9)
        assert v_even == F(80, 3)
        assert v_odd == F(64, 3)

    def test_free_origin_value(self):
        _, v_even, v_odd = gb_kappa_V(GBParams(2, 3))
        assert v_even == v_odd == F(5, 72)

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_kappa_is_the_float_formula_in_range(self, label, a, b):
        k, e = gb._KAPPA[label]
        kappa, _, _ = gb_kappa_V(GBParams(a, b))
        assert kappa == math.sqrt(float(k(F(a), F(b)))) / math.pi ** e

    @pytest.mark.parametrize("a,b,want", [
        (10 ** 200, 1, 10 ** 300 / (2 * math.sqrt(math.pi))),    # K ~ a**3 / 4 overflows
        (10 ** 30, 10 ** 60, math.sqrt(2) * 1e-180 / math.sqrt(math.pi)),  # K = 2 / a**12 underflows
        (10 ** 300, 1, None), (10 ** 60, 10 ** 120, None),     # kappa itself out of range
    ], ids=["directed2-1e200", "axial2-1e30", "directed2-1e300", "axial2-1e60"])
    def test_kappa_beyond_float_k(self, a, b, want):
        kappa, _, _ = gb_kappa_V(GBParams(a, b))
        assert kappa == (None if want is None else pytest.approx(want, rel=1e-12))

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_parity_dependence_matches_class(self, label, a, b):
        parity_classes = {"reluctant", "directed1", "transitional2"}
        _, v_even, v_odd = gb_kappa_V(GBParams(a, b, 1, 2))
        if label in parity_classes:
            assert v_even != v_odd
        else:
            assert v_even == v_odd

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_exact_values_for_rational_inputs(self, label, a, b):
        _, v_even, v_odd = gb_kappa_V(GBParams(a, b, 2, 1))
        assert isinstance(v_even, F) and isinstance(v_odd, F)
        assert v_even > 0 and v_odd > 0


class TestEstimates:
    def test_balanced_formula(self):
        est = gb_estimate(GBParams(1, 1), 100)
        expected = 8 / math.pi * 4.0 ** 100 / 100 ** 2
        assert float(est) == pytest.approx(expected, rel=1e-12)

    def test_positive_and_finite_at_n1(self):
        for label, a, b in CLASS_REPS:
            est = gb_estimate(GBParams(a, b), 1)
            assert not est.is_zero() and est.log2() < 64

    def test_no_overflow_at_large_n(self):
        est = gb_estimate(GBParams(1, 1), 5000)
        assert est.log2() == pytest.approx(math.log2(8 / math.pi) + 10000 - 2 * math.log2(5000))

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            gb_estimate(GBParams(1, 1), 0)

    @pytest.mark.parametrize("minus", [1, 2], ids=["zero", "negative"])
    def test_harmonic_value_at_one_parity(self, monkeypatch, minus):
        # V_odd = v * (plus - minus * plus) through the _form seam: 0 gives a zero
        # estimate at odd lengths, a negative V raises; even lengths are untouched
        form = gb._form

        def parity_term(label, a, b):
            lam, mu, r, plus, _ = form(label, a, b)
            return lam, mu, r, plus, minus * plus

        monkeypatch.setattr(gb, "_form", parity_term)
        params = GBParams(1, 1)
        assert not gb_estimate(params, 100).is_zero()
        if minus == 1:
            assert gb_estimate(params, 101).is_zero()
        else:
            with pytest.raises(ValueError, match="harmonic value must be nonnegative"):
                gb_estimate(params, 101)

    def test_excursion_origin_even(self):
        est = gb_excursion_estimate(GBParams(1, 1), 100)
        assert float(est) == pytest.approx(768 / math.pi * 4.0 ** 100 / 100 ** 5, rel=1e-12)

    def test_excursion_odd_zero(self):
        assert gb_excursion_estimate(GBParams(1, 1), 101).is_zero()
        # from (1, 1) the parity flips: even lengths are impossible
        assert gb_excursion_estimate(GBParams(2, 3, 1, 1), 100).is_zero()
        assert not gb_excursion_estimate(GBParams(2, 3, 1, 1), 101).is_zero()

    def test_excursion_constant_11_23(self):
        # 128 (j+1)(1+i)(3+i+2j)(2+i+j) / (a**i b**j pi) = 2048/pi at (1, 1), weights (2, 3)
        est = gb_excursion_estimate(GBParams(2, 3, 1, 1), 101)
        assert float(est) == pytest.approx(2048 / math.pi * 4.0 ** 101 / 101 ** 5, rel=1e-12)

    @pytest.mark.parametrize("a,sign", [(F(1, 10 ** 200), 1), (10 ** 200, -1)])
    def test_excursion_extreme_weights(self, a, sign):
        # the factor 128*1*3*5*4 / a**2 lies far outside the float range
        est = gb_excursion_estimate(GBParams(a, 1, 2, 0), 100)
        expected = (math.log2(7680) + sign * 400 * math.log2(10) - math.log2(math.pi)
                    + 200 - 5 * math.log2(100))
        assert est.log2() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("b", [1, 10 ** 100], ids=["1", "1e100"])
    def test_directed2_extreme_weights(self, b):
        # kappa ~ a**1.5 / (2 sqrt(pi)), V ~ 1, rho ~ a at a = 10**200: float(a) overflows
        est = gb_estimate(GBParams(10 ** 200, b), 10)
        expected = (11.5 * 200 * math.log2(10) - 1 - math.log2(math.pi) / 2
                    - 1.5 * math.log2(10))
        assert est.log2() == pytest.approx(expected, rel=1e-12)


def harmonic_on_grid(params, grid_size):
    """The reference harmonicity check: every cell of [0, grid_size]**2, cleared to integers.

    The identity rho R = sum_s w_s lam**dx mu**dy R((i,j)+s), divided by the
    first move's coefficient and scaled by the lcm of the rational ones, on a
    numpy object grid of R cleared to integers and zero off the quarter plane.
    """
    a, b = params.a, params.b
    cls = gb.gb_classify(a, b)
    lam, mu, r, *_ = gb._form(cls.label, a, b)
    moves = ((1, 0, a), (-1, 0, 1 / a), (-1, 1, b / a), (1, -1, a / b))
    coeffs = [cls.rho] + [w * lam ** dx * mu ** dy for dx, dy, w in moves]
    coeffs = [c / coeffs[1] for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs if isinstance(c, F)))
    rho, *weights = [c * scale if isinstance(c, Surd) else (c * scale).numerator
                     for c in coeffs]
    # R on [-1, grid_size + 1]**2, zero off the quarter plane, at index (i+1, j+1)
    size = grid_size + 2
    values = [r(i, j) for i in range(size) for j in range(size)]
    den = math.lcm(*(v.denominator for v in values))
    grid = np.zeros((size + 1, size + 1), dtype=object)
    grid[1:, 1:] = np.array([v.numerator * (den // v.denominator) for v in values],
                            dtype=object).reshape(size, size)
    total = sum(grid[1 + dx:size + dx, 1 + dy:size + dy] * w for (dx, dy, _), w
                in zip(moves, weights))
    return bool((grid[1:size, 1:size] * rho == total).all())


def seeded_weighting(label, rng):
    """A random rational weighting of class `label`; sqrt(b) is often irrational."""
    f, g, h = (F(rng.randint(1, 30), rng.randint(1, 9)),
               F(rng.randint(1, 98), 99), F(rng.randint(1, 98), 99))
    a = 1 + f
    return {"balanced": (1, 1), "free": (a, a * (1 + f * g)), "reluctant": (g, h),
            "directed1": (f, max(1, f * f) * (1 + g)), "directed2": (a, a * g),
            "axial1": (a, a), "axial2": (a, a * a), "transitional1": (1, g),
            "transitional2": (g, 1)}[label]


class TestHarmonicity:
    def test_balanced_corner_identity(self):
        _, v00, _ = gb_kappa_V(GBParams(1, 1, 0, 0))
        _, v10, _ = gb_kappa_V(GBParams(1, 1, 1, 0))
        assert 4 * v00 == v10  # neighbors (-1,0), (-1,1), (1,-1) fall outside

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_exact_on_grid(self, label, a, b):
        assert check_harmonicity(GBParams(a, b), 12)

    def test_float_path(self):
        # float weights are taken at their exact value: (1, 5/2) is directed-1 with
        # an irrational sqrt(b), checked exactly
        assert gb_classify(1.0, 2.5).label == "directed1"
        assert check_harmonicity(GBParams(1.0, 2.5), 6)

    def test_detects_wrong_rho(self, monkeypatch):
        # rho off by 1e-30 breaks the identity; a 1e-10 float tolerance could not see it
        classify = gb.gb_classify

        def perturbed(a, b):
            cls = classify(a, b)
            return dataclasses.replace(cls, rho=cls.rho + F(1, 10 ** 30))

        # (1, 2) and (7/5, 11/3) are directed-1 with a non-square b: V has powers of sqrt(b)
        for a, b in [(1, 1), (1, 2), (F(7, 5), F(11, 3))]:
            assert check_harmonicity(GBParams(a, b), 30)
            with monkeypatch.context() as patch:
                patch.setattr(gb, "gb_classify", perturbed)
                assert not check_harmonicity(GBParams(a, b), 30), (a, b)

    def test_exact_for_irrational_sqrt_b(self):
        # seeded rational directed-1 weightings whose sqrt(b) is irrational
        rng = random.Random(2016)
        checked = 0
        while checked < 6:
            a = F(rng.randint(1, 9), rng.randint(1, 9))
            b = F(rng.randint(1, 40), rng.randint(1, 9))
            if b > 1 and b > a * a and _rational_root(b, 2) is None:
                cls = gb_classify(a, b)
                assert cls.label == "directed1" and isinstance(cls.rho, Surd)
                assert check_harmonicity(GBParams(a, b), 10), (a, b)
                checked += 1

    def test_extreme_weights(self):
        # directed-2 with weights far beyond the float range; kappa is never computed
        assert check_harmonicity(GBParams(10 ** 200, 10 ** 100), 3)

    @pytest.mark.parametrize("label", [c[0] for c in CLASS_REPS])
    def test_agrees_with_every_cell_of_the_grid(self, label, monkeypatch):
        # ten seeded weightings per class (balanced is the one point (1, 1), so it takes
        # every other class's R that has no pole there), each with rho as given,
        # rho + 1e-30 and another class's R: the 5x5 decision equals the whole grid's
        rng, labels = random.Random(f"harmonic {label}"), [c[0] for c in CLASS_REPS]
        weightings = {seeded_weighting(label, rng) for _ in range(40)}
        weightings = sorted(weightings)[:10]
        assert len(weightings) == (1 if label == "balanced" else 10)
        classify, form, verdicts = gb.gb_classify, gb._form, []

        def perturbed(a, b):
            cls = classify(a, b)
            return dataclasses.replace(cls, rho=cls.rho + F(1, 10 ** 30))

        def pole(other, a, b):
            # whether the other class's plus or minus divides by zero at (a, b)
            try:
                form(other, F(a), F(b))
            except ZeroDivisionError:
                return True
            return False

        def borrowed(other):
            def patched(lbl, a, b):
                lam, mu, _, *rest = form(lbl, a, b)
                return (lam, mu, form(other, a, b)[2], *rest)
            return patched

        for a, b in weightings:
            assert classify(a, b).label == label
            k = labels.index(label)
            others = [other for other in labels[k + 1:] + labels[:k] if not pole(other, a, b)]
            variants = [(gb, "_form", form), (gb, "gb_classify", perturbed)] + [
                (gb, "_form", borrowed(other))
                for other in (others if label == "balanced" else others[:1])]
            for variant in variants:
                with monkeypatch.context() as patch:
                    patch.setattr(*variant)
                    params = GBParams(a, b)
                    for grid in (30, 0, 1, 2, 3):
                        want = harmonic_on_grid(params, grid)
                        assert check_harmonicity(params, grid) == want, (a, b, variant, grid)
                    verdicts.append(want)
        assert len(verdicts) >= 3 * len(weightings) and False in verdicts

    def test_grid_400_stays_small(self, monkeypatch):
        # the 5x5 decision does not grow with the grid: at most 6x6 values of R
        tracemalloc.start()
        try:
            assert check_harmonicity(GBParams(2, 3), 400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        form, reads = gb._form, []

        def counted(label, a, b):
            lam, mu, r, *rest = form(label, a, b)
            return (lam, mu, lambda i, j: reads.append((i, j)) or r(i, j), *rest)

        monkeypatch.setattr(gb, "_form", counted)
        assert check_harmonicity(GBParams(2, 3), 400)
        assert 0 < len(reads) <= 36 and max(map(max, reads)) <= 5
        # and from below: grids 4 and up read all of [0, 5]**2, grid 2 all of [0, 3]**2
        for grid, side in ((4, 6), (400, 6), (2, 4)):
            reads.clear()
            assert check_harmonicity(GBParams(2, 3), grid)
            assert sorted(reads) == [(i, j) for i in range(side) for j in range(side)], grid

    def test_every_R_has_order_at_most_four_in_each_coordinate(self):
        # the premise of the 5x5 decision: each R is a sum of c x**i y**j i**d j**e
        # whose shift-invariant span, sum over bases of (top degree + 1), is <= 4
        # in i and in j
        sympy = pytest.importorskip("sympy")
        i, j = sympy.symbols("i j", integer=True)
        a, b = sympy.symbols("a b", positive=True)
        for label, entry in gb._V.items():
            r = entry(a, b, sympy.sqrt(b))[2]
            if r is universal_harmonic:
                r = (i + 1) * (j + 1) * (i + j + 2) * (i + 2 * j + 3) / sympy.Integer(6)
                assert all(r.subs({i: x, j: y}) == universal_harmonic(x, y)
                           for x in range(6) for y in range(6))
            else:
                r = r(i, j)
            terms = sympy.Add.make_args(sympy.expand(r))
            for var in (i, j):
                top = {}
                for term in terms:
                    powers = term.as_powers_dict()
                    base = sympy.Mul(*(x ** sympy.diff(e, var) for x, e in powers.items()
                                       if x not in (i, j)))
                    assert not base.free_symbols & {i, j}, (label, term)
                    top[base] = max(top.get(base, 0), int(powers.get(var, 0)))
                assert sum(d + 1 for d in top.values()) <= 4, (label, var, top)

    def test_negative_grid_rejected(self):
        # a negative grid holds no cell, so the identity would hold vacuously
        assert check_harmonicity(GBParams(1, 1), 0)
        for grid in (-1, -5):
            with pytest.raises(ValueError, match="grid size"):
                check_harmonicity(GBParams(1, 1), grid)


class TestUniversalLimit:
    APPROACHES = {
        "free": lambda e: (1 + 2 * e, 1 + 3 * e),
        "reluctant": lambda e: (1 - e, 1 - e),
        "directed1": lambda e: (1 + e, (1 + 2 * e) ** 2),
        "directed2": lambda e: (1 + 2 * e, 1 + e),
        "axial1": lambda e: (1 + e, 1 + e),
        "axial2": lambda e: (1 + e, (1 + e) ** 2),
        "transitional1": lambda e: (F(1), 1 - e),
        "transitional2": lambda e: (1 - e, F(1)),
    }

    @pytest.mark.parametrize("label", sorted(APPROACHES))
    def test_converges_to_universal_harmonic(self, label):
        # V(i,j)/V(0,0) -> the zero-drift harmonic function as (a,b) -> (1,1);
        # the deviation is first order in the distance, so the 1e-6 tolerance
        # is checked at rational distance ~3e-8 and monotone shrinking is
        # checked across three decades
        deviations = []
        for eps in (F(1, 100), F(1, 10 ** 5), F(1, 10 ** 8)):
            a, b = self.APPROACHES[label](eps)
            assert gb_classify(a, b).label == label
            worst = 0.0
            for i in range(4):
                for j in range(4):
                    _, v_even, _ = gb_kappa_V(GBParams(a, b, i, j))
                    _, v0, _ = gb_kappa_V(GBParams(a, b, 0, 0))
                    target = universal_harmonic(i, j)
                    worst = max(worst, abs(float(v_even / v0 - target)) / float(target))
            deviations.append(worst)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] <= 1e-6


class TestCriticalPoints:
    def test_uniform_all_growths_four(self):
        points = gb_critical_points(1, 1)
        assert [p.label for p in points] == ["c1+", "c1-", "c12", "c13+", "c13-", "c123"]
        assert all(p.growth == 4 for p in points)
        assert all(p.t == F(1, 4) for p in points)

    def test_growths_23(self):
        points = {p.label: p for p in gb_critical_points(2, 3)}
        assert points["c123"].growth == F(14, 3)
        assert points["c12"].growth == F(9, 2)
        assert points["c1+"].growth == 4
        assert points["c1+"].xy == (2, 3)
        assert points["c12"].xy == (1, F(3, 2))

    def test_sqrt_b_exact_when_square(self):
        points = {p.label: p for p in gb_critical_points(3, 4)}
        assert points["c13+"].xy == (F(3, 2), 1)
        assert points["c13+"].growth == 5

    @pytest.mark.parametrize("a", [F(1, 3), F(4, 5), 1, 2, F(7, 2)])
    @pytest.mark.parametrize("b", [F(1, 4), 1, F(9, 4), 4])
    def test_amgm_growth_ordering(self, a, b):
        points = {p.label: p for p in gb_critical_points(a, b)}
        e1, e12 = points["c1+"].growth, points["c12"].growth
        e13, e123 = points["c13+"].growth, points["c123"].growth
        assert e1 <= e12 <= e123 and e1 <= e13 <= e123


class TestContributing:
    def test_reluctant_region(self):
        assert gb_contributing(F(1, 2), F(1, 2)) == {"c1+", "c1-"}

    def test_directed2_region(self):
        assert gb_contributing(3, 2) == {"c12"}

    def test_free_region(self):
        assert gb_contributing(2, 3) == {"c123"}

    def test_boundaries(self):
        assert gb_contributing(1, 1) == {"c1+", "c1-"}
        assert gb_contributing(2, 2) == {"c12"}
        assert gb_contributing(2, 4) == {"c13+", "c13-"}

    @pytest.mark.parametrize("a", [F(1, 3), F(3, 4), 1, F(3, 2), 2, 3])
    @pytest.mark.parametrize("b", [F(1, 4), F(2, 3), 1, 2, F(7, 2), 5])
    def test_rho_equals_contributing_growth(self, a, b):
        # Table-1 rho must equal the growth attached to the contributing points
        rho = gb_classify(a, b).rho
        points = {p.label: p for p in gb_critical_points(a, b)}
        growths = {points[lbl].growth for lbl in gb_contributing(a, b)}
        assert growths == {rho}

    @pytest.mark.parametrize("a", [F(1, 3), F(3, 4), 1, F(3, 2), 2, 3])
    @pytest.mark.parametrize("b", [F(1, 4), F(2, 3), 1, 2, F(7, 2), 5])
    def test_inventory_at_critical_points(self, a, b):
        # S(1/x, 1/y) = sign(x) * growth, so t = 1/(x y S(1/x, 1/y)) = 1/(|x| y growth)
        for p in gb_critical_points(a, b):
            x, y = p.xy
            s_val = inventory_signed(a, b, 1 / x, 1 / y)
            assert s_val == (1 if x > 0 else -1) * p.growth, p.label
            assert p.t == 1 / (x * y * s_val), p.label


    @pytest.mark.parametrize("a,b", [(F(2, 7), F(10 ** 40 + 1, 3)), (F(10 ** 30, 7), F(5, 3)),
                                     (3, 4), (F(1, 3), 2)])
    def test_t_is_rational_in_closed_form(self, a, b):
        for p in gb_critical_points(a, b):
            x, y = p.xy
            assert type(p.t) is F and p.t == 1 / (abs(x) * y * p.growth), p.label


class TestSqrtExact:
    def test_perfect_squares(self):
        assert _rational_root(F(9, 4), 2) == F(3, 2)
        assert _rational_root(F(4), 2) == 2

    def test_non_squares(self):
        assert _rational_root(F(3), 2) is None
        assert _rational_root(F(1, 3), 2) is None

    def test_agrees_with_isqrt_and_higher_roots(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 10 ** 40)
            square = math.isqrt(n) ** 2 == n
            assert (_rational_root(F(n), 2) is not None) == square
            q, r = F(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 20)), rng.randint(1, 7)
            assert _rational_root(q ** r, r) == q
            # n**r < n**r + 1 < (n + 1)**r
            assert r == 1 or _rational_root(F(q.numerator ** r + 1), r) is None
