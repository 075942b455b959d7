"""Step sets of weighted lattice walks and their elementary quantities.

A model is a finite list of distinct integer step vectors in Z^d, each with a
strictly positive exact-rational weight.  Everything downstream (counting
tables, centrality algebra, classification) consumes the immutable StepSet
defined here.  Singularity, whether the steps fit a closed half-space, depends
on the steps alone: one exact dual-cone test serves every dimension and runs
once per step tuple.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence, Union

from .linalg import EchelonBasis, _power_product

Rational = Union[int, Fraction]
Vector = tuple[int, ...]

BUILTIN_MODELS: dict[str, tuple[Vector, ...]] = {
    "gb": ((1, 0), (-1, 0), (-1, 1), (1, -1)),
    "tandem": ((1, 0), (-1, 1), (0, -1)),
    "gessel": ((-1, 0), (1, 0), (1, 1), (-1, -1)),
    "simple": ((1, 0), (-1, 0), (0, 1), (0, -1)),
}


class StepSetError(ValueError):
    """Invalid step-set description or weighting."""


def as_fraction(value) -> Fraction:
    """Parse an exact rational from int (not bool), Fraction, or a 'p/q' / integer string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise StepSetError(f"not an exact rational: {value!r}") from exc
    if isinstance(value, float):
        raise StepSetError(
            f"weights must be exact rationals, got float {value!r}; pass a 'p/q' string"
        )
    raise StepSetError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class StepSet:
    """An ordered weighted step set; the order indexes the rows of the step matrix."""

    dimension: int
    steps: tuple[Vector, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if isinstance(self.dimension, bool) or self.dimension < 1:
            raise StepSetError("dimension must be a positive integer")
        if not self.steps:
            raise StepSetError("empty step set")
        if len(self.steps) != len(self.weights):
            raise StepSetError("weights and steps must have equal length")
        seen = set()
        for s in self.steps:
            if len(s) != self.dimension:
                raise StepSetError(f"step {s} has dimension {len(s)}, expected {self.dimension}")
            if not all(type(c) is int for c in s):  # not a bool either
                raise StepSetError(f"step {s} has non-integer coordinates")
            if s in seen:
                raise StepSetError(f"duplicate step {s}")
            seen.add(s)
        for s, w in zip(self.steps, self.weights):
            if not isinstance(w, Fraction):
                raise StepSetError(f"weight of step {s} is not an exact rational")
            if w <= 0:
                raise StepSetError(f"weight of step {s} must be strictly positive, got {w}")

    @property
    def size(self) -> int:
        return len(self.steps)

    def with_weights(self, weights: Sequence[Rational]) -> "StepSet":
        return StepSet(self.dimension, self.steps,
                       tuple(as_fraction(w) for w in weights))

    def unweighted(self) -> "StepSet":
        return self.with_weights([1] * self.size)

    def reordered(self, order: Sequence[int]) -> "StepSet":
        if sorted(order) != list(range(self.size)):
            raise StepSetError("order must be a permutation of the step indices")
        return StepSet(self.dimension,
                       tuple(self.steps[k] for k in order),
                       tuple(self.weights[k] for k in order))


def _step(s) -> Vector:
    try:  # a bool stays one, for StepSet to refuse: JSON's true is not the integer 1
        return tuple(s) if bool in map(type, s) else tuple(map(operator.index, s))
    except TypeError:
        raise StepSetError(f"step {s!r} is not a vector of integers") from None


def make_stepset(steps: Iterable[Sequence[int]], weights: Iterable[Rational],
                 dimension: Optional[int] = None) -> StepSet:
    step_tuples = tuple(map(_step, steps))
    if dimension is None:
        if not step_tuples:
            raise StepSetError("empty step set")
        dimension = len(step_tuples[0])
    return StepSet(dimension, step_tuples, tuple(as_fraction(w) for w in weights))


def central_weights(steps: Iterable[Sequence[int]],
                    alphas: Sequence[Rational],
                    beta: Rational = 1) -> list[Fraction]:
    """Weights beta * prod_k alpha_k**s_k, the generic product-form weighting."""
    alphas = [as_fraction(x) for x in alphas]
    beta = as_fraction(beta)
    if any(x <= 0 for x in alphas) or beta <= 0:
        raise StepSetError("central weighting parameters must be positive")
    # integer numerator and denominator, reduced once per weight
    return [Fraction(beta.numerator * num, beta.denominator * den)
            for num, den in (_power_product(alphas, s) for s in steps)]


def _float_weights(weights: Sequence[Fraction]) -> list[float]:
    """The weights as float64s; OverflowError unless each is a normal float."""
    try:  # float(w) without its Python-level call; int / int raises above the range
        floats = [w.numerator / w.denominator for w in weights]
    except OverflowError:
        floats = [0.0]  # fails the test below too
    if min(floats) < 2.0 ** -1022:  # below the smallest normal float
        raise OverflowError("a weight lies outside the float range")
    return floats


def builtin_model(name: str, a: Rational = 1, b: Rational = 1) -> StepSet:
    """One of the named two-parameter families (gb, tandem, gessel, simple).

    Every family carries the product weighting a**s1 * b**s2; for the GB steps
    this is exactly (1,0) -> a, (-1,0) -> 1/a, (-1,1) -> b/a, (1,-1) -> a/b.
    """
    key = name.lower()
    if key not in BUILTIN_MODELS:
        raise StepSetError(f"unknown built-in model {name!r}; "
                           f"choose from {sorted(BUILTIN_MODELS)}")
    steps = BUILTIN_MODELS[key]
    a, b = as_fraction(a), as_fraction(b)
    if a <= 0 or b <= 0:
        raise StepSetError("model parameters a, b must be positive rationals")
    return StepSet(2, steps, tuple(central_weights(steps, (a, b))))  # nothing for _step to convert


def stepset_from_json(data: Union[str, Mapping]) -> StepSet:
    """Build a StepSet from the JSON schema {"dimension": d, "steps": [{"v": [...], "w": "p/q"}]}."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise StepSetError(f"malformed step-set JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise StepSetError("step-set JSON must be an object")
    try:
        dimension = data["dimension"]  # a bool stays one, as in _step; 2.7 and "2" raise
        dimension = dimension if isinstance(dimension, bool) else operator.index(dimension)
        entries = list(data["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StepSetError(f"step-set JSON needs a dimension and a steps list: {exc}") from exc
    steps, weights = [], []
    for entry in entries:
        try:
            steps.append(entry["v"])
            weights.append(entry.get("w", 1))
        except (KeyError, TypeError) as exc:
            raise StepSetError(f"bad step entry {entry!r}") from exc
    for obj, keys in [(data, ("dimension", "steps")), *((e, ("v", "w")) for e in entries)]:
        if unknown := [key for key in obj if key not in keys]:
            raise StepSetError(f"unknown step-set JSON key {unknown[0]!r}; expected {keys}")
    return make_stepset(steps, weights, dimension)


def drift(model: StepSet) -> tuple[Fraction, ...]:
    """The weighted vector sum of the steps, component-exact."""
    # integer numerators over the common denominator: one reduction per component
    den = math.lcm(*(w.denominator for w in model.weights))
    nums = [w.numerator * (den // w.denominator) for w in model.weights]
    return tuple(Fraction(sum(n * c for n, c in zip(nums, column)), den)
                 for column in zip(*model.steps))


def inventory_eval(model: StepSet, point: Sequence) -> Union[Fraction, float]:
    """Evaluate sum_s w_s * prod_k x_k**s_k at a strictly positive point.

    Exact when every coordinate is a Fraction/int; float otherwise.
    """
    if len(point) != model.dimension:
        raise StepSetError("point dimension mismatch")
    exact = True
    for x in point:
        if isinstance(x, float):
            exact = False
        elif not isinstance(x, (int, Fraction)):
            raise StepSetError(f"cannot evaluate at coordinate {x!r}")
        if x <= 0:
            raise StepSetError("inventory is evaluated at strictly positive coordinates")
    # int ** negative would fall back to float; Fractions keep it exact
    coords = [Fraction(x) if exact else float(x) for x in point]
    total = Fraction(0) if exact else 0.0
    for s, w in zip(model.steps, model.weights):
        term = w if exact else float(w)
        for x, c in zip(coords, s):
            term = term * x ** c
        total += term
    return total


def is_singular(model: StepSet) -> bool:
    """True iff some nonzero u has u . s >= 0 for every step (steps fit a half-space).

    The weights do not enter, so the test runs once per step tuple.
    """
    return _dual_cone_nontrivial(model.steps)


@functools.cache
def _dual_cone_nontrivial(steps: tuple[Vector, ...]) -> bool:
    """Exact test for a nonzero u with u . s >= 0 for every step s, in any dimension.

    If the steps do not span R^d any orthogonal direction works.  Otherwise the
    dual cone is pointed and is nontrivial iff it has an extreme ray, which lies
    on d-1 linearly independent active constraints; enumerating those rays is
    exact and cheap at the sizes handled here.  In d = 1 the empty face gives
    the rays +1 and -1.
    """
    d = len(steps[0])
    if EchelonBasis(d, steps).rank < d:
        return True
    for subset in combinations(steps, d - 1):
        face = EchelonBasis(d, subset)
        if face.rank != d - 1:
            continue
        (u,) = face.null_space()
        for cand in (u, [-x for x in u]):
            if all(sum(cx * sx for cx, sx in zip(cand, s)) >= 0 for s in steps):
                return True
    return False
