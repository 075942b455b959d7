"""Model-agnostic universality classification for two-dimensional models.

The class is read off one convex problem per model.  After the substitution
(x, y) = (e^u, e^v) the inventory S(x, y) = sum_s w_s x^{s1} y^{s2} is
strictly convex and coercive for non-singular models, so damped Newton
iterations with a halving line search are deterministic and certified by
their gradient residuals.  `_solve` runs once per model: one Newton solve for
the interior critical point; the covariance factor c = H_uv / sqrt(H_uu H_vv)
from the log-coordinate Hessian there, which equals S_xy / sqrt(S_xx S_yy)
where the gradient vanishes; the same Newton on one column of the step matrix
for each edge minimizer; and from these pieces the minimizer of S on
Q = {x >= 1, y >= 1}.  `classify` reads the class off the position of that
minimizer and the gradient signs there.

Equality decisions (is the minimizer on a boundary, is a gradient zero) use
absolute tolerance 1e-8 on the log-scale variables; quantities falling in the
ambiguous band [1e-8, 1e-6] are reported, not silently resolved.  Corner
gradient signs reduce to the drift vector and are decided in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .stepset import StepSet, drift, is_singular

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


def _value(steps: np.ndarray, weights: np.ndarray, u: np.ndarray) -> float:
    """L(u) = sum_k w_k exp(s_k . u): the inventory in log coordinates."""
    return float(np.dot(weights, np.exp(steps @ u)))


def _grad(steps: np.ndarray, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    return steps.T @ (weights * np.exp(steps @ u))


def _newton(steps: np.ndarray, weights: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton from u = 0 for the minimizer of L; certified by residual.

    Returns the minimizer and the Hessian of L there.
    """
    u = np.zeros(steps.shape[1])
    for iteration in range(max_iter + 1):
        base = _value(steps, weights, u)
        e = weights * np.exp(steps @ u)
        g = steps.T @ e
        h = (steps * e[:, None]).T @ steps
        if np.linalg.norm(g) <= GRAD_TOL * max(base, 1e-300):
            return u, h
        if iteration == max_iter:
            break
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError as exc:
            raise ClassifyError(f"singular Hessian at {u}") from exc
        t = 1.0
        for _ in range(60):
            if _value(steps, weights, u + t * step) <= base + 1e-12 * abs(base):
                break
            t *= 0.5
        u = u + t * step
    raise ClassifyError(f"Newton iteration failed to converge (residual {np.linalg.norm(g)})")


class _Solution(NamedTuple):
    """The inventory's convex problem, solved once (u, v are log coordinates)."""

    drift: tuple[Fraction, Fraction]
    log_critical: tuple[float, float]
    critical_point: tuple[float, float]
    boundary: tuple[float, float]
    covariance: float
    p1: float
    minimizer: tuple[float, float]
    rho: float
    rho_exact: Optional[Fraction]
    offgrad: float  # relative gradient out of the active edge; 0 off the edges


def _solve(model: StepSet) -> _Solution:
    """Critical point, covariance, edge minimizers and Q-minimizer of one model.

    The Q-minimizer follows the active-set rules of the convex problem: the
    corner is tested with exact drift signs, the interior with the critical
    point, and the edges with their one-dimensional minimizers and a KKT test.
    """
    if model.dimension != 2:
        raise ClassifyError("classification is implemented for d = 2 models")
    if is_singular(model):
        raise ClassifyError("classification requires a non-singular model")
    steps = np.array(model.steps, dtype=float)
    try:
        weights = np.array([float(w) for w in model.weights])
    except OverflowError:
        raise ClassifyError("a weight lies outside the float range") from None
    dx, dy = drift(model)
    # far from the minimizer a damped step moves about one unit of log scale
    spread = max(abs(math.log(w.numerator) - math.log(w.denominator)) for w in model.weights)
    max_iter = 200 + math.ceil(2 * spread)

    u, h = _newton(steps, weights, max_iter)
    us, vs = float(u[0]), float(u[1])
    # edge minimizers: S(x, 1) over x (column 0) and S(1, y) over y (column 1)
    u1 = float(_newton(steps[:, :1], weights, max_iter)[0][0])
    v1 = float(_newton(steps[:, 1:], weights, max_iter)[0][0])
    if h[0, 0] <= 0 or h[1, 1] <= 0:
        raise ClassifyError("degenerate Hessian at the critical point")
    c = float(h[0, 1]) / math.sqrt(h[0, 0] * h[1, 1])
    if not -1.0 < c < 1.0:
        raise ClassifyError(f"covariance factor {c} outside (-1, 1)")

    rho_exact, offgrad = None, 0.0
    if dx >= 0 and dy >= 0:
        q = np.zeros(2)
        rho_exact = sum(model.weights)
        rho = float(rho_exact)
    elif us >= -EQ_TOL and vs >= -EQ_TOL:
        q = np.array([max(us, 0.0), max(vs, 0.0)])
        rho = _value(steps, weights, q)
    else:
        candidates = []
        for axis, t, free_drift in ((0, v1, dy), (1, u1, dx)):
            # the edge of Q where coordinate `axis` is 1; KKT: S must not decrease into Q
            if free_drift < 0 and t >= -EQ_TOL:
                point = np.zeros(2)
                point[1 - axis] = max(t, 0.0)
                off = _grad(steps, weights, point)[axis]
                if off >= -KKT_TOL * _value(steps, weights, point):
                    candidates.append(point)
        if not candidates:
            raise ClassifyError("no KKT point found on the boundary of Q")
        q = min(candidates, key=lambda p: _value(steps, weights, p))
        rho = _value(steps, weights, q)
        active = 0 if math.exp(q[0]) <= 1.0 + EQ_TOL else 1
        offgrad = float(_grad(steps, weights, q)[active]) / rho
    return _Solution(
        drift=(dx, dy), log_critical=(us, vs),
        critical_point=(math.exp(us), math.exp(vs)),
        boundary=(math.exp(u1), math.exp(v1)),
        covariance=c, p1=math.pi / math.acos(-c),
        minimizer=(math.exp(q[0]), math.exp(q[1])), rho=rho, rho_exact=rho_exact,
        offgrad=offgrad)


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


def classify(model: StepSet, *, on_ambiguity: str = "raise") -> Classification:
    """Assign the universality class from the Q-minimizer and gradient signs.

    The grid: minimizer at the corner / on one edge / interior, crossed with
    the number of vanishing gradient components there.  rho is S at the
    minimizer; alpha is p1/2 (balanced), p1/2 + 1 (transitional), p1 + 1
    (reluctant), 1/2 (axial), 3/2 (directed), 0 (free).

    on_ambiguity: "raise" raises AmbiguousClassError when a decision quantity
    falls in the ambiguity band; "report" returns the classification with the
    band hits listed in `ambiguities`.
    """
    if on_ambiguity not in ("raise", "report"):
        raise ValueError("on_ambiguity must be 'raise' or 'report'")
    s = _solve(model)
    dx, dy = s.drift
    us, vs = s.log_critical
    p1 = s.p1
    ambiguities: list[str] = []

    def band(name: str, quantity: float) -> None:
        if EQ_TOL <= abs(quantity) <= AMBIG_TOL:
            ambiguities.append(f"{name} = {quantity:.3e} lies in the ambiguity band")

    if dx >= 0 and dy >= 0:
        # corner cell; gradient signs at (1,1) are the exact drift components
        zeros = (dx == 0) + (dy == 0)
        family = ("free", "axial", "balanced")[zeros]
        alpha = {"free": 0.0, "axial": 0.5, "balanced": p1 / 2.0}[family]
        alpha_exact = {"free": Fraction(0), "axial": Fraction(1, 2), "balanced": None}[family]
    else:
        band("log x_s", us)
        band("log y_s", vs)
        if us >= -EQ_TOL and vs >= -EQ_TOL:
            interior = us > EQ_TOL and vs > EQ_TOL
            family = "reluctant" if interior else "transitional"
            alpha = p1 + 1.0 if interior else p1 / 2.0 + 1.0
            alpha_exact = None
        else:
            family = "directed"
            alpha = 1.5
            alpha_exact = Fraction(3, 2)
            band("off-edge gradient", s.offgrad)
    result = Classification(
        family=family, rho=s.rho, alpha=alpha,
        critical_point=s.critical_point, minimizer=s.minimizer, boundary=s.boundary,
        covariance=s.covariance, p1=p1, drift=(dx, dy),
        rho_exact=s.rho_exact, alpha_exact=alpha_exact,
        ambiguities=tuple(ambiguities))
    if result.ambiguities and on_ambiguity == "raise":
        raise AmbiguousClassError("; ".join(result.ambiguities), result)
    return result


def drift_diagram(model_factory, a_values: Sequence[Fraction],
                  b_values: Sequence[Fraction]) -> list[dict]:
    """Classify a grid of weightings; rows carry (a, b, drift, class) for plotting.

    model_factory(a, b) must return the weighted StepSet.  Ambiguous cells are
    labeled "ambiguous" rather than guessed.
    """
    rows = []
    for a in a_values:
        for b in b_values:
            result = classify(model_factory(a, b), on_ambiguity="report")
            dx, dy = result.drift
            family = "ambiguous" if result.ambiguities else result.family
            rows.append({"a": a, "b": b, "dx": dx, "dy": dy, "class": family})
    return rows
