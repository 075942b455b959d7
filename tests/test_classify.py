"""Convex-minimization classification: critical points, covariance, Q-minimizer, classes."""

import importlib
import math
import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthantwalks import (AmbiguousClassError, ClassifyError, builtin_model,
                          central_weights, classify, drift, drift_diagram,
                          inventory_eval, is_singular, make_stepset)
from orthantwalks.gb import gb_classify
from tests.conftest import CLASS_REPS

SQRT2_HALF = math.sqrt(2) / 2
# the module itself: the package re-exports `classify` under the module's name
CLASSIFY_MODULE = importlib.import_module("orthantwalks.classify")
DIAGONAL = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def tilted_diagonal(a, b, w=2):
    """The product weighting (a, b) of DIAGONAL with both diagonal weights times w.

    Not central for w != 1; S(x, y) = S_w(a x, b y) for a symmetric S_w of
    zero drift, so the critical point is (1/a, 1/b).
    """
    weights = central_weights(DIAGONAL, (a, b))
    return make_stepset(DIAGONAL, [x * w if s[0] == s[1] else x
                                   for s, x in zip(DIAGONAL, weights)])


def solved(model):
    """The classification of a model with any band hits reported, not raised."""
    return classify(model, on_ambiguity="report")


def grid_minimum(model, lo=0.02, hi=4.0, steps=260):
    """Independent oracle: fine-grid search for the inventory minimum."""
    best, arg = math.inf, None
    for i in range(1, steps + 1):
        x = lo + (hi - lo) * i / steps
        for j in range(1, steps + 1):
            y = lo + (hi - lo) * j / steps
            val = inventory_eval(model, (x, y))
            if val < best:
                best, arg = val, (x, y)
    return arg, best


class TestCriticalPoint:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (F(1, 2), F(1, 2)), (3, 2)])
    def test_gb_inverse_weights(self, a, b):
        xs, ys = solved(builtin_model("gb", a, b)).critical_point
        assert xs == pytest.approx(1 / float(a), rel=1e-12)
        assert ys == pytest.approx(1 / float(b), rel=1e-12)

    def test_tandem_uniform(self):
        xs, ys = solved(builtin_model("tandem", 1, 1)).critical_point
        assert (xs, ys) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_tandem_against_grid_search(self):
        model = builtin_model("tandem", F(3, 2), F(4, 5))
        xs, ys = solved(model).critical_point
        (gx, gy), _ = grid_minimum(model)
        assert xs == pytest.approx(gx, abs=0.05)
        assert ys == pytest.approx(gy, abs=0.05)

    def test_gradient_residual(self):
        model = builtin_model("gessel", F(5, 4), F(2, 3))
        xs, ys = solved(model).critical_point
        h = 1e-6
        val = inventory_eval(model, (xs, ys))
        gx = (inventory_eval(model, (xs + h, ys)) - inventory_eval(model, (xs - h, ys))) / (2 * h)
        gy = (inventory_eval(model, (xs, ys + h)) - inventory_eval(model, (xs, ys - h))) / (2 * h)
        assert abs(gx) <= 1e-5 * val and abs(gy) <= 1e-5 * val

    def test_singular_rejected(self):
        with pytest.raises(ClassifyError):
            classify(make_stepset([(1, 0), (0, 1)], [1, 1]))


class TestCovariance:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (F(1, 2), F(5, 7)), (4, 4)])
    def test_gb_constant(self, a, b):
        covariance = solved(builtin_model("gb", a, b)).covariance
        assert covariance == pytest.approx(-SQRT2_HALF, abs=1e-12)

    def test_gb_p1_is_four(self):
        assert solved(builtin_model("gb", 2, 3)).p1 == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("name", ["gb", "tandem", "gessel", "simple"])
    def test_invariant_under_equivalent_weightings(self, name):
        rng = random.Random(7)
        steps = builtin_model(name, 1, 1).steps
        values = []
        for _ in range(10):
            a = F(rng.randrange(1, 40), rng.randrange(1, 40))
            b = F(rng.randrange(1, 40), rng.randrange(1, 40))
            beta = F(rng.randrange(1, 9), rng.randrange(1, 9))
            model = make_stepset(steps, central_weights(steps, (a, b), beta=beta))
            values.append(solved(model).covariance)
        spread = max(values) - min(values)
        assert spread <= 1e-10


KING = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]


def king_models(count, seed=5):
    """Seeded non-singular subsets of the king steps with rational weights."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        steps = rng.sample(KING, rng.randrange(3, 9))
        weights = [F(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in steps]
        model = make_stepset(steps, weights)
        if not is_singular(model):
            models.append(model)
    return models


def x_space_covariance(model, x, y):
    """S_xy / sqrt(S_xx S_yy) from the second derivatives of S in x and y."""
    sxx = sxy = syy = 0.0
    for (s1, s2), w in zip(model.steps, model.weights):
        term = float(w) * x ** s1 * y ** s2
        sxx += term * s1 * (s1 - 1) / (x * x)
        syy += term * s2 * (s2 - 1) / (y * y)
        sxy += term * s1 * s2 / (x * y)
    return sxy / math.sqrt(sxx * syy)


ORACLE_MODELS = king_models(50) + [
    builtin_model(name, a, b) for name in ("gb", "tandem", "gessel", "simple")
    for a, b in [(1, 1), (F(3, 2), F(2, 3)), (F(1, 3), F(5, 2))]]


class TestCovarianceOracle:
    """The log-Hessian covariance and the Q-minimizer against x-space formulas."""

    @pytest.mark.parametrize("model", ORACLE_MODELS)
    def test_covariance_minimizer_and_rho(self, model):
        result = solved(model)
        want = x_space_covariance(model, *result.critical_point)
        assert result.covariance == pytest.approx(want, abs=1e-10)
        x, y = result.minimizer
        assert x >= 1.0 and y >= 1.0
        assert result.rho == pytest.approx(inventory_eval(model, (x, y)), rel=1e-12)

    def test_skewed_king_set_against_high_precision(self):
        # reference: the Hessian ratio at the critical point solved to 50 digits
        model = make_stepset([(0, -1), (-1, -1), (1, 1), (0, 1)],
                             [24, F(4, 5), F(5, 28), 29])
        assert solved(model).covariance == pytest.approx(0.1188459126253145954, rel=1e-14)


king_weights = st.builds(F, st.integers(1, 9), st.integers(1, 9))


@st.composite
def king_sets(draw):
    """A non-singular subset of the king steps with weights p/q, 1 <= p, q <= 9."""
    steps = draw(st.lists(st.sampled_from(KING), min_size=3, max_size=8, unique=True))
    model = make_stepset(steps, draw(st.lists(king_weights, min_size=len(steps),
                                              max_size=len(steps))))
    assume(not is_singular(model))
    return model


def log_gradient(model, x, y):
    """(x S_x, y S_y) / S, from the terms of S."""
    terms = [float(w) * x ** s1 * y ** s2 for (s1, s2), w in zip(model.steps, model.weights)]
    return [sum(t * s[k] for t, s in zip(terms, model.steps)) / sum(terms) for k in (0, 1)]


# u, v in [0, 3] in steps of 1/8: a grid of Q in log coordinates
LOG_GRID = [math.exp(k / 8) for k in range(25)]


class TestKingSetSolve:
    """The solve on random king sets, judged with inventory_eval as the oracle."""

    @given(king_sets())
    @settings(max_examples=100, deadline=None)
    def test_solution_against_the_inventory(self, model):
        result = solved(model)
        x, y = result.minimizer
        assert x >= 1.0 and y >= 1.0
        assert result.rho == pytest.approx(inventory_eval(model, (x, y)), rel=1e-12)
        lowest = min(inventory_eval(model, (gx, gy)) for gx in LOG_GRID for gy in LOG_GRID)
        assert result.rho <= lowest * (1 + 1e-9)
        assert math.hypot(*log_gradient(model, *result.critical_point)) <= 1e-9
        # KKT at the minimizer: S is stationary along a free coordinate and
        # does not decrease into Q along a coordinate at 1
        for coordinate, slope in zip((x, y), log_gradient(model, x, y)):
            assert slope >= -1e-9 and (coordinate == 1.0 or abs(slope) <= 1e-9)
        dx, dy = drift(model)
        assert (result.family in ("free", "axial", "balanced")) == (dx >= 0 and dy >= 0)


def minimize_on_q(model):
    """(x, y, S(x, y)) at the minimizer of the inventory on Q."""
    result = solved(model)
    return (*result.minimizer, result.rho)


class TestMinimizeOnQ:
    def test_reluctant_interior(self):
        x, y, val = minimize_on_q(builtin_model("gb", F(1, 2), F(1, 2)))
        assert (x, y) == (pytest.approx(2.0, rel=1e-10), pytest.approx(2.0, rel=1e-10))
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_free_corner(self):
        x, y, val = minimize_on_q(builtin_model("gb", 2, 3))
        assert (x, y) == (1.0, 1.0)
        assert val == pytest.approx(14 / 3, rel=1e-12)

    def test_balanced_corner(self):
        x, y, val = minimize_on_q(builtin_model("gb", 1, 1))
        assert (x, y, val) == (1.0, 1.0, 4.0)

    def test_directed_edge(self):
        x, y, val = minimize_on_q(builtin_model("gb", 3, 2))
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(1.5, rel=1e-10)
        assert val == pytest.approx(16 / 3, rel=1e-10)

    def test_against_constrained_grid_search(self):
        model = builtin_model("tandem", F(1, 3), F(2, 5))
        _, _, val = minimize_on_q(model)
        best = math.inf
        for i in range(400):
            for j in range(400):
                x, y = 1 + i / 100, 1 + j / 100
                best = min(best, inventory_eval(model, (x, y)))
        assert val <= best + 1e-9


class TestBoundaryMinimizers:
    def test_gb_32(self):
        x1, y1 = solved(builtin_model("gb", 3, 2)).boundary
        assert x1 == pytest.approx(math.sqrt(2) / 3, rel=1e-10)
        assert y1 == pytest.approx(1.5, rel=1e-10)

    def test_balanced_symmetric(self):
        x1, y1 = solved(builtin_model("gb", 1, 1)).boundary
        assert x1 == pytest.approx(1.0, abs=1e-10)
        assert y1 == pytest.approx(1.0, abs=1e-10)

    def test_tandem_grid_refinement(self):
        model = builtin_model("tandem", 1, 1)
        x1, y1 = solved(model).boundary
        xs = [0.2 + k / 500 for k in range(2000)]
        gx = min(xs, key=lambda x: inventory_eval(model, (x, 1.0)))
        gy = min(xs, key=lambda y: inventory_eval(model, (1.0, y)))
        assert x1 == pytest.approx(gx, abs=0.01)
        assert y1 == pytest.approx(gy, abs=0.01)


class TestClassify:
    def test_unknown_ambiguity_policy_rejected(self):
        with pytest.raises(ValueError) as info:
            classify(builtin_model("gb", 1, 1), on_ambiguity="ignore")
        assert str(info.value) == "on_ambiguity must be 'raise' or 'report'"

    def test_balanced(self):
        result = classify(builtin_model("gb", 1, 1))
        assert result.family == "balanced"
        assert result.rho_exact == 4
        assert result.alpha == pytest.approx(2.0, abs=1e-9)

    def test_reluctant(self):
        result = classify(builtin_model("gb", F(1, 2), F(1, 2)))
        assert result.family == "reluctant"
        assert result.rho == pytest.approx(4.0, rel=1e-10)
        assert result.alpha == pytest.approx(5.0, abs=1e-9)

    def test_free(self):
        result = classify(builtin_model("gb", 2, 3))
        assert result.family == "free"
        assert result.rho_exact == F(14, 3)
        assert result.alpha == 0

    @pytest.mark.parametrize("label,a,b", CLASS_REPS)
    def test_agrees_with_closed_forms(self, label, a, b):
        got = classify(builtin_model("gb", a, b))
        expected = gb_classify(a, b)
        assert got.family == expected.family
        assert got.rho == pytest.approx(float(expected.rho), rel=1e-8)
        assert got.alpha == pytest.approx(float(expected.alpha), abs=1e-9)

    def test_midpoint_convexity_in_log_coordinates(self):
        rng = random.Random(11)
        for name in ("gb", "tandem", "gessel", "simple"):
            model = builtin_model(name, F(3, 2), F(2, 3))
            for _ in range(25):
                u0 = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                u1 = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                mid = ((u0[0] + u1[0]) / 2, (u0[1] + u1[1]) / 2)
                f = lambda u: inventory_eval(model, (math.exp(u[0]), math.exp(u[1])))
                assert f(mid) <= (f(u0) + f(u1)) / 2 + 1e-10 * (f(u0) + f(u1))

    def test_ambiguity_raises_and_reports(self):
        # log x_s = -5e-8 falls in the band, and the weighting is not central
        model = tilted_diagonal(1 + F(5, 10 ** 8), F(1, 2))
        with pytest.raises(AmbiguousClassError):
            classify(model)
        result = classify(model, on_ambiguity="report")
        assert result.ambiguities
        assert result.family == "directed"

    @pytest.mark.parametrize("name,a,b,family", [
        ("tandem", 1 - F(1, 10 ** 9), F(1, 2), "reluctant"),
        ("gb", 1 + F(5, 10 ** 8), 2, "directed"), ("gb", 1 + F(5, 10 ** 8), F(1, 3), "directed")])
    def test_central_weighting_decided_exactly(self, name, a, b, family):
        # the critical point (1/a, 1/b) is within 1e-7 of an edge of Q in log scale
        assert classify(builtin_model(name, a, b)).family == family
        row, = drift_diagram(lambda a, b: builtin_model(name, a, b), [a], [b])
        assert row["class"] == family
        if name == "gb":
            assert gb_classify(a, b).family == family

    def test_far_central_cell_in_the_diagram(self):
        # the Hessian at u = 0 is numerically singular, but no solve is needed
        model = builtin_model("tandem", F(1, 10 ** 90), 1)
        with pytest.raises(ClassifyError, match="singular Hessian"):
            classify(model)
        row, = drift_diagram(lambda a, b: builtin_model("tandem", a, b), [F(1, 10 ** 90)], [1])
        assert row["class"] == "transitional"

    @pytest.mark.parametrize("name,p1", [("gb", 4), ("tandem", 3), ("gessel", F(4, 3)),
                                         ("simple", 2)])
    def test_exact_p1_by_niven(self, name, p1):
        # balanced at (1, 1), reluctant at (1/2, 1/3), transitional at (1, 1/2)
        for (a, b), alpha in [((1, 1), p1 / 2), ((F(1, 2), F(1, 3)), p1 + 1),
                              ((1, F(1, 2)), p1 / 2 + 1)]:
            result = classify(builtin_model(name, a, b))
            assert result.alpha_exact == alpha
            assert result.alpha == float(alpha)
            assert result.p1 == pytest.approx(float(p1), abs=1e-9)

    def test_irrational_p1_leaves_alpha_inexact(self):
        # balanced for every w; c = w / (1 + w) is in Niven's set only at w = 1
        for w in (F(1, 3), 2, F(5, 7)):
            result = classify(tilted_diagonal(1, 1, w))
            assert result.family == "balanced" and result.alpha_exact is None
            assert result.covariance == pytest.approx(float(w / (1 + w)), abs=1e-12)
        assert classify(tilted_diagonal(1, 1, 1)).alpha_exact == F(3, 4)

    def test_alpha_exact_matches_closed_forms(self):
        # the grid holds points of the boundary curves a = 1, b = 1, a = b and b = a**2
        values = [F(1, 3), F(1, 2), 1, F(3, 2), 2, 4]
        for a in values:
            for b in values + [a * a]:
                got, want = classify(builtin_model("gb", a, b)), gb_classify(a, b)
                assert (got.family, got.alpha_exact) == (want.family, want.alpha)

    def test_weight_beyond_float_range_rejected(self):
        with pytest.raises(ClassifyError, match="float range"):
            classify(builtin_model("gb", 10 ** 400, 1))

    def test_weight_below_float_range_rejected(self):
        # as 0.0, the two tiny weights would drop their steps from the solve
        with pytest.raises(ClassifyError, match="a weight lies outside the float range"):
            classify(TINY)
        with pytest.raises(ClassifyError, match="a weight lies outside the float range"):
            drift_diagram(lambda a, b: TINY, [1], [1])

    @pytest.mark.parametrize("a", [F(1, 10 ** 400), F(10 ** 400)], ids=["1e-400", "1e400"])
    def test_diagram_decides_float_range_cells_exactly(self, a):
        # the exact drift and the central rule decide these cells with no float;
        # classify always solves, so it still rejects the weights
        rows = drift_diagram(lambda a, b: builtin_model("gb", a, b), [a], [F(1)])
        assert [row["class"] for row in rows] == [gb_classify(a, 1).family]
        assert rows[0]["class"] == ("transitional" if a < 1 else "directed")
        with pytest.raises(ClassifyError, match="a weight lies outside the float range"):
            classify(builtin_model("gb", a, 1))

    @pytest.mark.parametrize("a,family", [(10 ** 90, "directed"), (10 ** 150, "directed"),
                                          (F(1, 10 ** 90), "transitional")],
                             ids=["1e90", "1e150", "1e-90"])
    def test_far_critical_point(self, a, family):
        # 200 damped Newton steps of about one log unit each do not reach these
        assert classify(builtin_model("gb", a, 1)).family == family == gb_classify(a, 1).family

    def test_extreme_weights_without_float_warnings(self):
        # the gradient residual is tested relative to S, so no square of S can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-300, 301, 5):
                a = F(10) ** k
                assert classify(builtin_model("gb", a, 1)).family == gb_classify(a, 1).family, k

    def test_inventory_beyond_float_range_rejected(self):
        # GB(10**308, 1) has the subnormal weight 10**-308, so the weight check
        # rejects it; the GB steps weighted (10**308, 1, 1, 10**308) have normal
        # weights, but S(1, 1) = 2 * 10**308 + 2 and its x-moment leave the range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ClassifyError, match="float range"):
                classify(builtin_model("gb", F(10) ** 308, 1))
            big = make_stepset(builtin_model("gb").steps, [10 ** 308, 1, 1, 10 ** 308])
            with pytest.raises(ClassifyError, match="the inventory leaves the float range"):
                classify(big)

    def test_inventory_overflow_with_cancelling_moments_rejected(self):
        # the simple walk weighted (10**308, 10**308, 1, 1): S(1, 1) overflows
        # while its first moments cancel, so the relative gradient reads 0
        big = make_stepset(builtin_model("simple").steps, [10 ** 308, 10 ** 308, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ClassifyError, match="the inventory leaves the float range"):
                classify(big)

    def test_halving_line_search(self):
        # from u = 0 the full Newton step along x overshoots the steep x**-10 / 1000
        # term, so the line search halves it; S_x = 0 at x**11 = 1/100
        model = make_stepset([(1, 0), (-10, 0), (0, 1), (0, -1)], [1, F(1, 1000), 1, 1])
        result = classify(model)
        assert result.family == "axial"
        assert result.critical_point == pytest.approx((0.01 ** (1 / 11), 1.0), rel=1e-12)

    def test_non_2d_rejected(self):
        model = make_stepset([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                              (0, 0, 1), (0, 0, -1)], [1] * 6)
        with pytest.raises(ClassifyError):
            classify(model)


def padded_newton(log_weights, steps, cap):
    """`_newton` with its edge problems solved as 2-D problems, kept as the reference.

    An edge problem zeroes the other axis's step coordinates, and a unit pad on
    that axis's Hessian entry gives it a zero step; each problem starts with its
    own evaluation at u = 0.
    """
    moments_at, grad_tol = CLASSIFY_MODULE._moments, CLASSIFY_MODULE.GRAD_TOL
    solutions = []
    for keep0, keep1 in ((1, 1), (1, 0), (0, 1)):
        kept = [(s1 * keep0, s2 * keep1) for s1, s2 in steps]
        u = v = 0.0
        log_l, moments = moments_at(log_weights, kept, u, v)
        for iteration in range(cap + 1):
            g0, g1, h00, h01, h11 = moments
            h00, h11 = h00 + (1 - keep0), h11 + (1 - keep1)
            residual, det = math.hypot(g0, g1), h00 * h11 - h01 * h01
            if residual <= grad_tol:
                break
            if not det > 0:
                raise ClassifyError(f"singular Hessian at u = ({u}, {v})")
            if iteration == cap:
                raise ClassifyError("Newton iteration failed to converge "
                                    f"(relative residual {residual})")
            step0, step1 = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
            t = 2.0
            for _ in range(61):
                t *= 0.5
                trial = moments_at(log_weights, kept, u + t * step0, v + t * step1)
                if trial[0] <= log_l + 1e-12:
                    break
            u, v, (log_l, moments) = u + t * step0, v + t * step1, trial
        solutions.append((u, v, moments[2:]))
    return solutions


def seeded_models(count, seed, vectors, weight):
    """Seeded non-singular sets of 3 to 8 of `vectors`, each weight drawn by weight(rng)."""
    rng = random.Random(seed)
    models = []
    while len(models) < count:
        steps = rng.sample(vectors, rng.randrange(3, 9))
        model = make_stepset(steps, [weight(rng) for _ in steps])
        if not is_singular(model):
            models.append(model)
    return models


LONG = [(i, j) for i in range(-3, 4) for j in range(-3, 4) if (i, j) != (0, 0)]


class TestEdgeSolves:
    """The one-axis edge solves against the padded 2-D solves they replace, bit for bit."""

    @staticmethod
    def outcome(newton, model, cap=None):
        log_weights = [math.log(w) for w in CLASSIFY_MODULE._float_weights(model.weights)]
        spread = max(abs(math.log(w.numerator) - math.log(w.denominator)) for w in model.weights)
        try:
            return newton(log_weights, model.steps, cap or 200 + math.ceil(2 * spread))
        except ClassifyError as exc:
            return str(exc)

    @pytest.mark.parametrize("models", [
        king_models(300, seed=33),
        seeded_models(20, 33, KING, lambda rng: F(10) ** rng.randint(-250, 250)),
        seeded_models(20, 35, LONG, lambda rng: F(rng.randrange(1, 10), rng.randrange(1, 10)))],
        ids=["king p/q", "king 10^k", "steps up to 3"])
    def test_every_float_equals_the_padded_solve(self, models):
        for model in models:
            got = self.outcome(CLASSIFY_MODULE._newton, model)
            want = self.outcome(padded_newton, model)
            assert got == want and repr(got) == repr(want), model

    def test_capped_solves_fail_as_the_padded_solve(self):
        # small caps stop the interior problem or an edge problem, whichever fails first;
        # the two weighted sets take (11, 4, 16) and (12, 17, 1) iterations (interior,
        # x-edge, y-edge), so caps 11 to 15 and 12 to 16 fail an edge after the interior
        # converged
        models = king_models(40, seed=34) + [
            make_stepset([(1, 1), (1, -1), (1, 0), (-1, 0)],
                         [F(1, 10 ** 6), 10 ** 6, 1, 10 ** 7]),
            make_stepset([(1, 0), (0, -1), (1, -1), (-1, -1), (0, 1), (1, 1)],
                         [F(1, 10 ** 6), F(1, 100), 10 ** 5, F(1, 10 ** 8), 10 ** 5, F(1, 10)])]
        for model in models:
            for cap in range(1, 21):
                assert (self.outcome(CLASSIFY_MODULE._newton, model, cap)
                        == self.outcome(padded_newton, model, cap)), (model, cap)


class TestFailureGuards:
    """Each ClassifyError of the solve, reached where public inputs reach it."""

    def test_degenerate_hessian(self):
        # the gradient vanishes at u = 0 by symmetry, where the x-terms are 10**-600 of S
        model = make_stepset([(1, 0), (-1, 0), (0, 1), (0, -1)],
                             [F(1, 10 ** 300)] * 2 + [10 ** 300] * 2)
        with pytest.raises(ClassifyError, match="degenerate Hessian at the critical point"):
            classify(model)

    def test_covariance_outside_the_open_interval(self):
        # the steps (1, 1) and (-1, -1) carry all but 10**-600 of S at the critical point u = 0
        model = make_stepset([(1, 1), (-1, -1), (1, 0), (0, -1), (-1, 0), (0, 1)],
                             [10 ** 300] * 2 + [F(1, 10 ** 300)] * 4)
        with pytest.raises(ClassifyError, match=r"covariance factor 1\.0 outside \(-1, 1\)"):
            classify(model)

    def test_critical_point_outside_the_float_range(self):
        # S is finite at u = 0, but its critical point lies beyond e**709.8 on one axis
        model = make_stepset([(-1, -1), (0, -1), (0, 1), (1, 1)],
                             [25 * 10 ** 244, F(3, 35 * 10 ** 21), F(10 ** 286, 7),
                              F(3, 35 * 10 ** 68)])
        with pytest.raises(ClassifyError, match="a critical point leaves the float range"):
            classify(model)

    def test_iteration_cap(self):
        # the simple walk with weight 2 on (-1, 0) has its critical point at x = sqrt(2)
        steps, log_weights = [(1, 0), (-1, 0), (0, 1), (0, -1)], [0.0, math.log(2), 0.0, 0.0]
        (u, v, _), _, _ = CLASSIFY_MODULE._newton(log_weights, steps, 10)
        assert (u, v) == (pytest.approx(math.log(2) / 2, abs=1e-12), 0.0)
        with pytest.raises(ClassifyError, match="Newton iteration failed to converge"):
            CLASSIFY_MODULE._newton(log_weights, steps, 1)

    def test_no_kkt_point(self, monkeypatch):
        # a float safety net: the minimizer on Q of a strictly convex S meets the KKT
        # test exactly, so only edge minimizers off by more than the tolerances fail it
        hessian = (1.0, 0.0, 1.0)
        monkeypatch.setattr(CLASSIFY_MODULE, "_newton", lambda *args: [
            (-1.0, -1.0, hessian), (-1.0, 0.0, hessian), (0.0, -1.0, hessian)])
        with pytest.raises(ClassifyError, match="no KKT point found on the boundary of Q"):
            classify(builtin_model("simple", F(1, 2), F(1, 2)))


class TestRegionGeometry:
    def test_tandem_drift_formula_exact(self):
        for a, b in [(F(1, 3), F(5, 2)), (2, 3), (F(7, 4), F(7, 4))]:
            a, b = F(a), F(b)
            dx, dy = drift(builtin_model("tandem", a, b))
            assert (dx, dy) == (a - b / a, b / a - 1 / b)

    def test_gessel_reluctant_iff_both_below_one(self):
        values = [F(1, 4), F(1, 2), F(4, 5), F(7, 6), 2, 3]
        for a in values:
            for b in values:
                family = classify(builtin_model("gessel", a, b)).family
                assert (family == "reluctant") == (a < 1 and b < 1)

    def test_diagram_rows(self):
        rows = drift_diagram(lambda a, b: builtin_model("tandem", a, b),
                             [F(1, 2), 1, 2], [F(1, 2), 1, 2])
        assert len(rows) == 9
        cell = {(r["a"], r["b"]): r for r in rows}
        assert cell[(1, 1)]["class"] == "balanced"
        assert cell[(F(1, 2), F(1, 2))]["class"] == "reluctant"
        assert cell[(1, 1)]["dx"] == 0 and cell[(1, 1)]["dy"] == 0


def seeded_values(rng, count):
    return sorted({F(rng.randrange(1, 40), rng.randrange(1, 16)) for _ in range(count)})


def classify_row(model, a, b):
    """The diagram row of one cell, built by classify."""
    result = classify(model, on_ambiguity="report")
    dx, dy = result.drift
    family = "ambiguous" if result.ambiguities else result.family
    return {"a": a, "b": b, "dx": dx, "dy": dy, "class": family}


def grid_rows(factory, a_values, b_values):
    return [classify_row(factory(a, b), a, b) for a in a_values for b in b_values]


NOT_2D = make_stepset([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                      [1] * 6)
SINGULAR = make_stepset([(1, 0), (0, 1)], [1, 1])
# a non-central weighting with two weights below the float range: only a solve decides it
TINY = make_stepset([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)],
                    [F(1, 10 ** 400), 1, 1, 1, F(1, 10 ** 400)])


class TestDiagramBatch:
    """drift_diagram classifies its grid cell by cell; every row equals classify's."""

    @pytest.mark.parametrize("name,size", [("tandem", 17), ("gb", 9), ("gessel", 9),
                                           ("simple", 9)])
    def test_rows_equal_classify(self, name, size):
        rng = random.Random(sum(map(ord, name)))
        a_values, b_values = seeded_values(rng, size), seeded_values(rng, size)
        factory = lambda a, b: builtin_model(name, a, b)
        rows = drift_diagram(factory, a_values, b_values)
        assert rows == grid_rows(factory, a_values, b_values)

    def test_ambiguous_cell(self):
        a_values, b_values = [F(1, 2), 1 + F(5, 10 ** 8), 2], [F(1, 3), F(1, 2), 3]
        rows = drift_diagram(tilted_diagonal, a_values, b_values)
        assert rows == grid_rows(tilted_diagonal, a_values, b_values)
        cell = {(r["a"], r["b"]): r["class"] for r in rows}
        assert cell[(1 + F(5, 10 ** 8), F(1, 2))] == "ambiguous"

    def test_solves_only_what_exact_rules_leave_open(self, monkeypatch):
        calls = []
        newton = CLASSIFY_MODULE._newton
        monkeypatch.setattr(CLASSIFY_MODULE, "_newton",
                            lambda *args: calls.append(args) or newton(*args))
        values = [F(k, 4) for k in range(1, 13)]
        for name in ("gb", "tandem", "gessel", "simple"):
            drift_diagram(lambda a, b: builtin_model(name, a, b), values, values)
        assert not calls
        rows = drift_diagram(tilted_diagonal, values, values)
        # a cell is solved iff its drift leaves the corner
        assert len(calls) == sum(min(drift(tilted_diagonal(a, b))) < 0
                                 for a in values for b in values) > 0
        assert rows == grid_rows(tilted_diagonal, values, values)

    def test_alternating_step_sets(self):
        values = [F(k, 7) for k in range(1, 19)]
        factory = lambda a, b: builtin_model("tandem" if (7 * (a + b)) % 2 else "gessel", a, b)
        rows = drift_diagram(factory, values, values)
        assert {len(factory(a, b).steps) for a, b in [(values[0], values[0]),
                                                       (values[0], values[1])]} == {3, 4}
        assert len(rows) == len(values) ** 2
        assert rows == grid_rows(factory, values, values)

    @pytest.mark.parametrize("bad,message", [
        (SINGULAR, "non-singular"), (NOT_2D, "d = 2"),
        (TINY, "float range")], ids=["singular", "not-2d", "float"])
    def test_first_failing_cell_raises(self, bad, message):
        # the bad cell lies deep in the grid, and a cell failing differently follows it
        values = [F(k, 3) for k in range(1, 21)]
        first, later = (values[15], values[4]), (values[17], values[1])
        other = NOT_2D if bad is not NOT_2D else SINGULAR
        calls = []

        def factory(a, b):
            calls.append((a, b))
            return bad if (a, b) == first else other if (a, b) == later else builtin_model(
                "tandem", a, b)

        with pytest.raises(ClassifyError) as caught:
            drift_diagram(factory, values, values)
        with pytest.raises(ClassifyError) as alone:
            classify(bad)
        assert message in str(caught.value)
        assert str(caught.value) == str(alone.value)
        assert calls[-1] == first
