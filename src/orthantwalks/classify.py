"""Model-agnostic universality classification for two-dimensional models.

The class is read off one convex problem per model.  After the substitution
(x, y) = (e^u, e^v) the inventory S(x, y) = sum_s w_s x^{s1} y^{s2} is
strictly convex and coercive for non-singular models, so damped Newton
iterations with a halving line search are deterministic and certified by
their relative gradient residuals |grad S| / S.

`_solve` works on a batch of models: `classify` is the batch of one and
`drift_diagram` the batch of a whole grid.  The exact work runs model by
model: the 2-D and singularity checks, the rational drift and the iteration
cap.  Models that share a step set are then solved together by one batched
damped Newton, `_newton`, over three problems per model: the interior critical
point, and the minimizers of S(x, 1) and S(1, y) for the two edges.  Each
problem has its own convergence test, halving line search and iteration cap.
Per model, the covariance factor c = H_uv / sqrt(H_uu H_vv) is read from the
log-coordinate Hessian at the critical point (it equals S_xy / sqrt(S_xx S_yy)
where the gradient vanishes), and the minimizer of S on Q = {x >= 1, y >= 1}
from the three solutions.  `classify` reads the class off the position of
that minimizer and the gradient signs there.

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
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

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


def _terms(weights: np.ndarray, q: np.ndarray, u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """The terms w_k exp(s_k . u) of L(u) = S(e^u, e^v), one row per problem.

    q[r] (or q, shared by all rows) holds the moment rows 1, s1, s2, s1^2,
    s1 s2, s2^2 of the row's step columns.
    """
    return weights * np.exp(u0[:, None] * q[..., 1, :] + u1[:, None] * q[..., 2, :])


def _moments(terms: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L and the relative derivatives (L_u, L_v, L_uu, L_uv, L_vv) / L, per row.

    Each relative derivative is bounded by the step lengths, so it is finite
    wherever L is.
    """
    sums = np.einsum("...k,...mk->...m", terms, q)
    return sums[:, 0], sums[:, 1:] / sums[:, :1]


def _newton(weights: np.ndarray, q: np.ndarray,
            caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[Optional[str]]]:
    """Damped Newton from u = 0 for the minimizer of L, one row per problem.

    Row r minimizes sum_k weights[r, k] exp(s_k . u) with the step columns of
    q[r], and has its own convergence test, halving line search and cap of
    caps[r] iterations.  A row whose step column along an axis is zero never
    moves along that axis.  Returns the minimizers, the relative Hessians
    (L_uu, L_uv, L_vv) / L there, and per row None or why it failed.
    """
    n = len(weights)
    u_out, h_out = np.zeros((n, 2)), np.zeros((n, 3))
    errors: list[Optional[str]] = [None] * n
    rows = np.arange(n)
    u0, u1 = np.zeros(n), np.zeros(n)
    terms = weights.copy()
    # a unit diagonal on an axis the row does not move along gives it a zero step
    pad = np.zeros((n, 5))
    pad[:, 2:5:2] = (q[:, 3:6:2] == 0).all(axis=2)
    lowest_cap = caps.min()
    # a trial point may overflow L; the line search then rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(int(caps.max()) + 1):
            base, rel = _moments(terms, q)
            g0, g1, h00, h01, h11 = (rel + pad).T
            residual = np.hypot(g0, g1)
            det = h00 * h11 - h01 * h01
            live = (residual > GRAD_TOL) & (det > 0)
            if iteration >= lowest_cap:
                live &= caps != iteration
            if np.count_nonzero(live) < len(rows):
                done = ~live
                u_out[rows[done], 0], u_out[rows[done], 1] = u0[done], u1[done]
                h_out[rows[done]] = rel[done, 2:]
                for r in np.flatnonzero(done & ~(residual <= GRAD_TOL)):
                    at = f"u = ({u0[r]}, {u1[r]})"
                    if not math.isfinite(base[r]):
                        errors[rows[r]] = f"the inventory leaves the float range at {at}"
                    elif not det[r] > 0:
                        errors[rows[r]] = f"singular Hessian at {at}"
                    else:
                        errors[rows[r]] = ("Newton iteration failed to converge "
                                           f"(relative residual {residual[r]})")
                if not np.count_nonzero(live):
                    break
                rows, u0, u1, weights, q, pad, caps = (
                    rows[live], u0[live], u1[live], weights[live], q[live], pad[live], caps[live])
                base, g0, g1, h00, h01, h11, det = (
                    base[live], g0[live], g1[live], h00[live], h01[live], h11[live], det[live])
            # the 2x2 Newton system by Cramer's rule; a 1-D row reduces to -g / h
            step0, step1 = (h01 * g1 - h11 * g0) / det, (h01 * g0 - h00 * g1) / det
            bound = base + 1e-12 * base
            trial0, trial1 = u0 + step0, u1 + step1
            terms = _terms(weights, q, trial0, trial1)
            accepted = terms.sum(axis=1) <= bound
            if np.count_nonzero(accepted) == len(rows):
                u0, u1 = trial0, trial1
                continue
            t = np.ones(len(rows))
            pending = np.flatnonzero(~accepted)
            for _ in range(59):
                t[pending] *= 0.5
                trial = _terms(weights[pending], q[pending],
                               u0[pending] + t[pending] * step0[pending],
                               u1[pending] + t[pending] * step1[pending])
                pending = pending[~(trial.sum(axis=1) <= bound[pending])]
                if not len(pending):
                    break
            else:
                t[pending] *= 0.5
            u0, u1 = u0 + t * step0, u1 + t * step1
            terms = _terms(weights, q, u0, u1)
    return u_out, h_out, errors


class _Cell(NamedTuple):
    """The exact per-model work, done before any model is solved."""

    steps: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    floats: list[float]
    drift: tuple[Fraction, Fraction]
    max_iter: int


def _prepare(model: StepSet) -> _Cell:
    if model.dimension != 2:
        raise ClassifyError("classification is implemented for d = 2 models")
    if is_singular(model):
        raise ClassifyError("classification requires a non-singular model")
    try:
        floats = [float(w) for w in model.weights]
    except OverflowError:
        raise ClassifyError("a weight lies outside the float range") from None
    # far from the minimizer a damped step moves about one unit of log scale
    spread = max(abs(math.log(w.numerator) - math.log(w.denominator)) for w in model.weights)
    return _Cell(model.steps, model.weights, floats, drift(model),
                 200 + math.ceil(2 * spread))


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


_POWERS = np.array([[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])
# the moments each problem keeps: the interior, S(x, 1) and S(1, y)
_KEPT = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 0, 1, 0, 0], [1, 0, 1, 0, 0, 1]], dtype=float)


def _problems(steps: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Moment rows 1, s1, s2, s1^2, s1 s2, s2^2 of the interior and both edge problems.

    S(x, 1) is the interior problem with its s2 column zeroed, S(1, y) with s1.
    """
    moments = (np.array(steps, dtype=float) ** _POWERS[:, None, :]).prod(axis=2)
    return _KEPT[:, :, None] * moments


def _solve_group(cells: list[_Cell]) -> list[Union[_Solution, ClassifyError]]:
    """Solve models that share one step set; a model that fails gets its error.

    The Q-minimizer follows the active-set rules of the convex problem: the
    corner is tested with exact drift signs, the interior with the critical
    point, and the edges with their one-dimensional minimizers and a KKT test.
    """
    m = len(cells)
    q = _problems(cells[0].steps)
    weights = np.array([cell.floats for cell in cells] * 3)
    caps = np.array([cell.max_iter for cell in cells] * 3)
    u, h, errors = _newton(weights, np.repeat(q, m, axis=0), caps)
    # the interior candidate, then the edge points where y = 1 and where x = 1:
    # an edge row's fixed coordinate stays exactly 0
    points = np.maximum(u, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        values, rel = _moments(_terms(weights, q[0], points[:, 0], points[:, 1]), q[0])
    values, grads, points = values.tolist(), rel[:, :2].tolist(), points.tolist()
    u, h = u.tolist(), h.tolist()

    solutions: list[Union[_Solution, ClassifyError]] = []
    for i, cell in enumerate(cells):
        try:
            error = errors[i] or errors[m + i] or errors[2 * m + i]
            if error:
                raise ClassifyError(error)
            (us, vs), (huu, huv, hvv) = u[i], h[i]
            u1, v1 = u[m + i][0], u[2 * m + i][1]
            if huu <= 0 or hvv <= 0:
                raise ClassifyError("degenerate Hessian at the critical point")
            c = huv / math.sqrt(huu * hvv)
            if not -1.0 < c < 1.0:
                raise ClassifyError(f"covariance factor {c} outside (-1, 1)")
            dx, dy = cell.drift
            rho_exact, offgrad = None, 0.0
            if dx >= 0 and dy >= 0:
                point = (0.0, 0.0)
                rho_exact = sum(cell.weights)
                rho = float(rho_exact)
            elif us >= -EQ_TOL and vs >= -EQ_TOL:
                point, rho = points[i], values[i]
            else:
                # KKT on the edge where coordinate `axis` is 1: S must not decrease into Q
                candidates = [r for axis, r, t, free_drift in ((0, 2 * m + i, v1, dy),
                                                               (1, m + i, u1, dx))
                              if free_drift < 0 and t >= -EQ_TOL and grads[r][axis] >= -KKT_TOL]
                if not candidates:
                    raise ClassifyError("no KKT point found on the boundary of Q")
                r = min(candidates, key=values.__getitem__)
                point, rho = points[r], values[r]
                offgrad = grads[r][0 if math.exp(point[0]) <= 1.0 + EQ_TOL else 1]
        except ClassifyError as exc:
            solutions.append(exc)
            continue
        solutions.append(_Solution(
            (dx, dy), (us, vs), (math.exp(us), math.exp(vs)), (math.exp(u1), math.exp(v1)),
            c, math.pi / math.acos(-c), (math.exp(point[0]), math.exp(point[1])),
            rho, rho_exact, offgrad))
    return solutions


# models solved together: enough rows to amortize numpy's cost per call, few
# enough that a grid's working set stays a few hundred kB
_BATCH = 256


def _solve(models: Iterable[StepSet]) -> Iterator[_Solution]:
    """Solve models in order, in batches with one batched Newton per step set.

    Yields each model's solution in order, and raises the ClassifyError of the
    first model, in order, that fails.  Models are read from `models` only as
    their batch is reached.
    """
    models = iter(models)
    while True:
        cells: list[_Cell] = []
        unchecked: Optional[ClassifyError] = None
        for model in islice(models, _BATCH):
            try:
                cells.append(_prepare(model))
            except ClassifyError as exc:
                unchecked = exc
                break
        groups: dict[tuple, list[int]] = {}
        for index, cell in enumerate(cells):
            groups.setdefault(cell.steps, []).append(index)
        solutions: list = [None] * len(cells)
        for members in groups.values():
            for index, solution in zip(members, _solve_group([cells[i] for i in members])):
                solutions[index] = solution
        for solution in solutions:
            if isinstance(solution, ClassifyError):
                raise solution
            yield solution
        if unchecked is not None:
            raise unchecked
        if len(cells) < _BATCH:
            return


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


def _decide(s: _Solution) -> tuple[str, float, Optional[Fraction], tuple[str, ...]]:
    """The family, alpha, exact alpha and ambiguity-band hits read off one solution."""
    dx, dy = s.drift
    if dx >= 0 and dy >= 0:
        # corner cell; gradient signs at (1,1) are the exact drift components
        zeros = (dx == 0) + (dy == 0)
        return (("free", 0.0, Fraction(0), ()), ("axial", 0.5, Fraction(1, 2), ()),
                ("balanced", s.p1 / 2.0, None, ()))[zeros]
    us, vs = s.log_critical
    bands = [("log x_s", us), ("log y_s", vs)]
    if us >= -EQ_TOL and vs >= -EQ_TOL:
        interior = us > EQ_TOL and vs > EQ_TOL
        family = "reluctant" if interior else "transitional"
        alpha = s.p1 + 1.0 if interior else s.p1 / 2.0 + 1.0
        alpha_exact = None
    else:
        family, alpha, alpha_exact = "directed", 1.5, Fraction(3, 2)
        bands.append(("off-edge gradient", s.offgrad))
    ambiguities = tuple(f"{name} = {quantity:.3e} lies in the ambiguity band"
                        for name, quantity in bands if EQ_TOL <= abs(quantity) <= AMBIG_TOL)
    return family, alpha, alpha_exact, ambiguities


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
    s = next(_solve([model]))
    family, alpha, alpha_exact, ambiguities = _decide(s)
    result = Classification(
        family=family, rho=s.rho, alpha=alpha,
        critical_point=s.critical_point, minimizer=s.minimizer, boundary=s.boundary,
        covariance=s.covariance, p1=s.p1, drift=s.drift,
        rho_exact=s.rho_exact, alpha_exact=alpha_exact, ambiguities=ambiguities)
    if result.ambiguities and on_ambiguity == "raise":
        raise AmbiguousClassError("; ".join(result.ambiguities), result)
    return result


def drift_diagram(model_factory, a_values: Sequence[Fraction],
                  b_values: Sequence[Fraction]) -> list[dict]:
    """Classify a grid of weightings; rows carry (a, b, drift, class) for plotting.

    model_factory(a, b) must return the weighted StepSet.  Rows run a-major,
    b-minor.  The grid is solved in batches of cells, with one batched Newton
    per step set; it raises the ClassifyError of its first failing cell, and
    the factory is not called past that cell.  Ambiguous cells are labeled
    "ambiguous" rather than guessed.
    """
    cells = [(a, b) for a in a_values for b in b_values]
    rows = []
    for (a, b), s in zip(cells, _solve(model_factory(a, b) for a, b in cells)):
        family, _, _, ambiguities = _decide(s)
        dx, dy = s.drift
        rows.append({"a": a, "b": b, "dx": dx, "dy": dy,
                     "class": "ambiguous" if ambiguities else family})
    return rows
