"""Model-agnostic universality classification for two-dimensional models.

The class is read off one convex problem per model.  After the substitution
(x, y) = (e^u, e^v) the inventory S(x, y) = sum_s w_s x^{s1} y^{s2} is
strictly convex and coercive for non-singular models, so damped Newton
iterations with a halving line search are deterministic and certified by
their relative gradient residuals |grad S| / S.

`_prepare` does the exact checks of one model and its rational drift.
`_solve` then calls `_newton`, which runs one scalar damped Newton in plain
floats for each of three problems: the interior critical point, and the
minimizers of S(x, 1) and S(1, y) for the two edges, each edge a one-axis
solve started from the interior problem's evaluation at (0, 0).  Every sum
of terms is taken in log space, relative to its largest term, so no
inventory value overflows inside the solve; only S(1, 1), where every
problem starts, is checked against the float range.  The covariance factor
c = H_uv / sqrt(H_uu H_vv) is read from the log-coordinate Hessian at the
critical point, and the minimizer of S on Q = {x >= 1, y >= 1} from the
three solutions.  The branch that places that minimizer names the class
from its position and the gradient signs there, and `_solve` builds the
`Classification`.

Two rules decide the class exactly, with no Newton.  Corner gradient signs
are the drift signs.  A central weighting w_s = beta prod_k alpha_k^{s_k}
has S_w(x) = beta S_1(alpha x), so when its steps have zero unweighted drift
its critical point is (1/alpha_1, 1/alpha_2), and c and p1 are those of the
unweighted model at (1, 1); where p1 = pi / arccos(-c) is rational (Niven's
theorem), alpha is exact.  `drift_diagram` solves only the cells these rules
leave open; `classify` solves every model for its float fields.  Only the
solve converts weights to float64, so a decided cell may hold any weight.

Otherwise equality decisions (is the minimizer on a boundary, is a gradient
zero) use absolute tolerance 1e-8 on the log-scale variables; quantities
falling in the ambiguous band [1e-8, 1e-6] are reported, not silently
resolved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .central import _base_solve, is_central
from .linalg import _power_product
from .stepset import StepSet, _float_weights, drift, is_singular

EQ_TOL = 1e-8
AMBIG_TOL = 1e-6
GRAD_TOL = 1e-12
KKT_TOL = 1e-10

FAMILIES = ("balanced", "axial", "free", "transitional", "directed", "reluctant")


class ClassifyError(RuntimeError):
    """Classification failed (singular model, divergence, or degenerate data)."""


class AmbiguousClassError(ClassifyError):
    """A decision quantity fell inside the ambiguity band; carries the report."""

    def __init__(self, message: str, classification: "Classification"):
        super().__init__(message)
        self.classification = classification


def _moments(log_weights: list[float], steps: Sequence[tuple[int, int]],
             u: float, v: float) -> tuple[float, tuple[float, ...]]:
    """log L(u, v) and the relative derivatives (L_u, L_v, L_uu, L_uv, L_vv) / L.

    Each term w_k exp(s_k . (u, v)) of L is taken relative to the largest
    (log-sum-exp), so no value can overflow, and each relative derivative is
    bounded by the step lengths.
    """
    logs = [lw + s1 * u + s2 * v for lw, (s1, s2) in zip(log_weights, steps)]
    top = max(logs)
    total = l0 = l1 = l00 = l01 = l11 = 0.0
    for log, (s1, s2) in zip(logs, steps):
        term = math.exp(log - top)
        total, l0, l1 = total + term, l0 + term * s1, l1 + term * s2
        l00, l01, l11 = l00 + term * s1 * s1, l01 + term * s1 * s2, l11 + term * s2 * s2
    return top + math.log(total), (l0 / total, l1 / total, l00 / total, l01 / total, l11 / total)


def _axis_moments(log_weights: list[float], column: Sequence[int], axis: int,
                  u: float, v: float) -> tuple[float, tuple[float, ...]]:
    """`_moments` with the other coordinate of every step zero: the same sums in the same
    order, for the steps' coordinate `column` on `axis`."""
    x = v if axis else u
    logs = [lw + s * x for lw, s in zip(log_weights, column)]
    top = max(logs)
    total = l0 = l00 = 0.0
    for log, s in zip(logs, column):
        term = math.exp(log - top)
        total, l0, l00 = total + term, l0 + term * s, l00 + term * s * s
    g, h = l0 / total, l00 / total
    return top + math.log(total), (0.0, g, 0.0, 0.0, h) if axis else (g, 0.0, h, 0.0, 0.0)


def _newton(log_weights: list[float], steps: Sequence[tuple[int, int]],
            cap: int) -> list[tuple[float, float, tuple[float, ...]]]:
    """Damped Newton from u = 0 for the minimizers of L(u, v), L(u, 0) and L(0, v).

    L(u, v) = sum_k exp(log_weights[k] + s_k . (u, v)) is S(e^u, e^v).  Each
    problem stops when its relative gradient is at most GRAD_TOL, halves its
    step until log L rises by at most 1e-12, and fails after `cap` iterations.
    Returns each minimizer (u, v) with the relative Hessian (L_uu, L_uv, L_vv)
    / L there, or raises the first failed problem's error.
    """
    start = log_l, (g0, g1, h00, _, h11) = _moments(log_weights, steps, 0.0, 0.0)
    # an edge problem runs on one coordinate column from the interior sums at u = 0, and
    # a unit pad on the other axis's Hessian entry gives that axis a zero step
    problems = [(functools.partial(_moments, log_weights, steps), start, 0, 0)] + [
        (functools.partial(_axis_moments, log_weights, [s[axis] for s in steps], axis),
         (log_l, (0.0, g1, 0.0, 0.0, h11) if axis else (g0, 0.0, h00, 0.0, 0.0)),
         axis, 1 - axis) for axis in (0, 1)]
    solutions = []
    for moments_at, (log_l, moments), pad0, pad1 in problems:
        u = v = 0.0
        for iteration in range(cap + 1):
            g0, g1, h00, h01, h11 = moments
            h00, h11 = h00 + pad0, h11 + pad1
            residual, det = math.hypot(g0, g1), h00 * h11 - h01 * h01
            if residual <= GRAD_TOL:
                break
            if not det > 0:
                raise ClassifyError(f"singular Hessian at u = ({u}, {v})")
            if iteration == cap:
                raise ClassifyError("Newton iteration failed to converge "
                                    f"(relative residual {residual})")
            # the 2x2 Newton system by Cramer's rule; an edge problem reduces to -g / h
            step0, step1 = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
            t = 2.0
            for _ in range(61):  # t = 2**-60, the last, is taken whatever it gives
                t *= 0.5
                trial = moments_at(u + t * step0, v + t * step1)
                if trial[0] <= log_l + 1e-12:
                    break
            u, v, (log_l, moments) = u + t * step0, v + t * step1, trial
        solutions.append((u, v, moments[2:]))
    return solutions


class _Cell(NamedTuple):
    """The exact work on one model, done before anything is solved."""

    model: StepSet
    drift: tuple[Fraction, Fraction]


def _prepare(model: StepSet) -> _Cell:
    if model.dimension != 2:
        raise ClassifyError("classification is implemented for d = 2 models")
    if is_singular(model):
        raise ClassifyError("classification requires a non-singular model")
    return _Cell(model, drift(model))


def _solve(cell: _Cell, exact: Optional[tuple]) -> Classification:
    """One model's Classification from its three problems; raise its ClassifyError if they fail.

    The Q-minimizer follows the active-set rules of the convex problem: the
    corner is tested with exact drift signs, the interior with the critical
    point, and the edges with their one-dimensional minimizers and a KKT test.
    The interior branch names the family reluctant or transitional and the
    edge branch directed, each with the quantities it tests against the
    ambiguity band, unless `exact`, the (family, p1, band hits) of `_exact`,
    is given, as it always is for a corner cell.
    """
    try:
        floats = _float_weights(cell.model.weights)
    except OverflowError as exc:
        raise ClassifyError(str(exc)) from None
    if math.isinf(sum(floats)):  # S(1, 1), where every problem starts
        raise ClassifyError("the inventory leaves the float range at u = (0.0, 0.0)")
    log_weights, steps = [math.log(w) for w in floats], cell.model.steps
    # far from the minimizer a damped step moves about one unit of log scale
    spread = max(abs(math.log(w.numerator) - math.log(w.denominator)) for w in cell.model.weights)
    (us, vs, (huu, huv, hvv)), (u1, _, _), (_, v1, _) = _newton(
        log_weights, steps, 200 + math.ceil(2 * spread))
    if huu <= 0 or hvv <= 0:
        raise ClassifyError("degenerate Hessian at the critical point")
    c = huv / math.sqrt(huu * hvv)
    if not -1.0 < c < 1.0:
        raise ClassifyError(f"covariance factor {c} outside (-1, 1)")
    dx, dy = cell.drift
    rho_exact, bands = None, [("log x_s", us), ("log y_s", vs)]
    if dx.numerator >= 0 and dy.numerator >= 0:
        point, rho_exact = (0.0, 0.0), sum(cell.model.weights)
        rho = float(rho_exact)
    elif us >= -EQ_TOL and vs >= -EQ_TOL:
        point = (max(us, 0.0), max(vs, 0.0))
        rho = math.exp(_moments(log_weights, steps, *point)[0])
        family = "reluctant" if us > EQ_TOL and vs > EQ_TOL else "transitional"
    else:
        # KKT on the edge where coordinate `axis` is 1: S must not decrease into Q;
        # like the interior branch, this one evaluates S only at the points it reads
        candidates = []
        for axis, point, t, free_drift in ((0, (0.0, max(v1, 0.0)), v1, dy),
                                           (1, (max(u1, 0.0), 0.0), u1, dx)):
            if free_drift.numerator < 0 and t >= -EQ_TOL:
                log_value, grad = _moments(log_weights, steps, *point)
                if grad[axis] >= -KKT_TOL:
                    candidates.append((log_value, point, grad))
        if not candidates:
            raise ClassifyError("no KKT point found on the boundary of Q")
        log_value, point, grad = min(candidates, key=lambda candidate: candidate[0])
        rho, family = math.exp(log_value), "directed"
        bands.append(("off-edge gradient", grad[math.exp(point[0]) > 1.0 + EQ_TOL]))
    family, p1_exact, ambiguities = exact or (family, None, tuple(
        f"{name} = {quantity:.3e} lies in the ambiguity band"
        for name, quantity in bands if EQ_TOL <= abs(quantity) <= AMBIG_TOL))
    slope, offset = _ALPHA[family]
    alpha_exact = None if slope and p1_exact is None else offset + slope * (p1_exact or 0)
    p1 = math.pi / math.acos(-c)
    alpha = float(alpha_exact) if alpha_exact is not None else slope * p1 + float(offset)
    try:
        critical, minimizer, boundary = [(math.exp(u), math.exp(v))
                                         for u, v in ((us, vs), point, (u1, v1))]
    except OverflowError:
        raise ClassifyError(f"a critical point leaves the float range at u = ({us}, {vs}), "
                            f"({u1}, {v1})") from None
    return Classification(
        family=family, rho=rho, alpha=alpha, critical_point=critical, minimizer=minimizer,
        boundary=boundary, covariance=c, p1=p1, drift=cell.drift, rho_exact=rho_exact,
        alpha_exact=alpha_exact, ambiguities=ambiguities)


# p1 = pi / arccos(-c) for each c**2 that Niven's theorem allows, as (c >= 0, c < 0)
_NIVEN = {Fraction(0): (2, 2), Fraction(1, 4): (Fraction(3, 2), 3),
          Fraction(1, 2): (Fraction(4, 3), 4), Fraction(3, 4): (Fraction(6, 5), 6)}


def _exact_p1(steps: Sequence[tuple[int, ...]],
              weights: Sequence[Fraction]) -> Optional[Fraction]:
    """p1 at the critical point (1, 1), or None when it is irrational.

    c**2 = H_uv**2 / (H_uu H_vv) is rational there, and by Niven's theorem
    arccos(-c) is a rational multiple of pi only for the c**2 in _NIVEN.
    """
    huu, huv, hvv = (sum(w * s[i] * s[j] for s, w in zip(steps, weights))
                     for i, j in ((0, 0), (0, 1), (1, 1)))
    p1 = _NIVEN.get(Fraction(huv * huv) / (huu * hvv))
    return None if p1 is None else Fraction(p1[huv < 0])


class _CentralRule(NamedTuple):
    """Exponent vectors of a step set with zero unweighted drift."""

    alphas: list[list[int]]  # e_k with alpha_k**D = prod w**e_k, one D > 0
    p1: Optional[Fraction]


@functools.cache
def _central_rule(steps: tuple[tuple[int, ...], ...]) -> Optional[_CentralRule]:
    """The exact rule of a step set, read off its one central solve; None when its
    unweighted drift is nonzero."""
    if any(map(sum, zip(*steps))):
        return None
    _, exponents, _ = _base_solve(steps, None)
    denominator = math.lcm(*(q.denominator for row in exponents for q in row))
    alphas = [[int(q * denominator) for q in row] for row in exponents[:-1]]
    return _CentralRule(alphas, _exact_p1(steps, [1] * len(steps)))


def _sign(weights: Sequence[Fraction], exponents: Sequence[int]) -> int:
    """The sign of prod w**e - 1, from products of numerators and denominators."""
    over, under = _power_product(weights, exponents)
    return (over > under) - (over < under)


def _exact(cell: _Cell) -> Optional[tuple[str, Optional[Fraction], tuple[str, ...]]]:
    """(family, exact p1 or None, no band hits) by the exact rules, or None for Newton."""
    (dx, dy), model = cell.drift, cell.model
    if dx.numerator >= 0 and dy.numerator >= 0:
        # corner cell; gradient signs at (1,1) are the exact drift components
        zeros = (not dx.numerator) + (not dy.numerator)
        p1 = _exact_p1(model.steps, model.weights) if zeros == 2 else None
        return ("free", "axial", "balanced")[zeros], p1, ()
    rule = _central_rule(model.steps)
    if rule is None or not is_central(model)[0]:
        return None
    # the critical point (1/alpha_1, 1/alpha_2) lies in Q iff alpha_1, alpha_2 <= 1
    signs = tuple(sorted(_sign(model.weights, e) for e in rule.alphas))
    return {(-1, -1): "reluctant", (-1, 0): "transitional"}.get(signs, "directed"), rule.p1, ()


@dataclass(frozen=True)
class Classification:
    """Outcome of the convex-minimization classification of a weighted model."""

    family: str
    rho: float
    alpha: float
    critical_point: tuple[float, float]
    minimizer: tuple[float, float]
    boundary: tuple[float, float]
    covariance: float
    p1: float
    drift: tuple[Fraction, Fraction]
    rho_exact: Optional[Fraction] = None
    alpha_exact: Optional[Fraction] = None
    ambiguities: tuple[str, ...] = ()


# alpha = slope * p1 + offset per family
_ALPHA = {"free": (0, Fraction(0)), "axial": (0, Fraction(1, 2)),
          "balanced": (Fraction(1, 2), Fraction(0)), "transitional": (Fraction(1, 2), Fraction(1)),
          "reluctant": (Fraction(1), Fraction(1)), "directed": (0, Fraction(3, 2))}


def classify(model: StepSet, *, on_ambiguity: str = "raise") -> Classification:
    """Assign the universality class from the Q-minimizer and gradient signs.

    The grid: minimizer at the corner / on one edge / interior, crossed with
    the number of vanishing gradient components there.  rho is S at the
    minimizer; alpha is p1/2 (balanced), p1/2 + 1 (transitional), p1 + 1
    (reluctant), 1/2 (axial), 3/2 (directed), 0 (free).  The family of a
    corner cell, and of a central weighting whose steps have zero unweighted
    drift, is decided exactly, and `alpha_exact` is set where alpha is
    rational; the float fields always come from the solve.

    on_ambiguity: "raise" raises AmbiguousClassError when a decision quantity
    falls in the ambiguity band; "report" returns the classification with the
    band hits listed in `ambiguities`.
    """
    if on_ambiguity not in ("raise", "report"):
        raise ValueError("on_ambiguity must be 'raise' or 'report'")
    cell = _prepare(model)
    result = _solve(cell, _exact(cell))
    if result.ambiguities and on_ambiguity == "raise":
        raise AmbiguousClassError("; ".join(result.ambiguities), result)
    return result


def drift_diagram(model_factory, a_values: Sequence[Fraction],
                  b_values: Sequence[Fraction]) -> list[dict]:
    """Classify a grid of weightings; rows carry (a, b, drift, class) for plotting.

    model_factory(a, b) must return the weighted StepSet.  Rows run a-major,
    b-minor.  Cells run one at a time, and only those the exact rules leave
    open are solved; the grid raises the ClassifyError of its first failing
    cell, and the factory is not called past that cell.  Ambiguous cells are
    labeled "ambiguous" rather than guessed.
    """
    rows = []
    for a in a_values:
        for b in b_values:
            cell = _prepare(model_factory(a, b))
            exact = _exact(cell)
            if exact is None:
                solved = _solve(cell, None)
                exact = solved.family, None, solved.ambiguities
            family, _, ambiguities = exact
            dx, dy = cell.drift
            rows.append({"a": a, "b": b, "dx": dx, "dy": dy,
                         "class": "ambiguous" if ambiguities else family})
    return rows
