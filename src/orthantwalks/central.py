"""The product-form (central) weighting algebra of a step set.

A weighting is central when every walk with the same length, start and end
carries the same weight; equivalently the weights have the product form
a_s = beta * prod_k alpha_k**s_k.  All decisions here run in exponent space
over the rationals, never through real logarithms, so centrality checks and
the alpha/beta decomposition are bit-exact.

The path pairs and the alpha/beta monomials depend on the steps alone, so one
cached solve per step tuple serves every weighting: the pairs are the integer
left kernel of the step matrix, alpha and beta the rows of the inverse of a
base of d+1 step-matrix rows, and the weights enter only when the pairs are
checked.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .linalg import EchelonBasis, _power_product, _rational_root, solve
from .stepset import (StepSet, StepSetError, Vector, _dual_cone_nontrivial, central_weights,
                      is_singular)


class SingularModelError(ValueError):
    """Operation requires a non-singular step set."""


class NotCentralError(ValueError):
    """Operation requires a central weighting; carries the violated path pair."""

    def __init__(self, message: str, witness: Optional["PathPair"] = None):
        super().__init__(message)
        self.witness = witness


def step_matrix(model: StepSet) -> tuple[tuple[int, ...], ...]:
    """One row (s_1, ..., s_d, 1) per step, in the step-list order."""
    return tuple(tuple(s) + (1,) for s in model.steps)


def rank_full(model: StepSet) -> tuple[int, bool]:
    """Exact rank of the step matrix; full iff it equals dimension + 1."""
    rank = EchelonBasis(model.dimension + 1, step_matrix(model)).rank
    return rank, rank == model.dimension + 1


@dataclass(frozen=True)
class PathPair:
    """Two equal-length, equal-endpoint paths witnessing one weight relation.

    `left` contains the target step with multiplicity >= 1 plus steps of the
    base subset T; `right` uses steps of T only.  Multiplicity maps are keyed
    by step index.
    """

    step_index: int
    left: tuple[tuple[int, int], ...]
    right: tuple[tuple[int, int], ...]
    steps: tuple[Vector, ...]

    @property
    def endpoint(self) -> Vector:
        d = len(self.steps[0])
        total = [0] * d
        for idx, mult in self.left:
            for k in range(d):
                total[k] += mult * self.steps[idx][k]
        return tuple(total)

    def describe(self) -> str:
        def side(items):
            return " * ".join(f"a{self.steps[idx]}^{m}" if m > 1 else f"a{self.steps[idx]}"
                              for idx, m in items)
        return f"{side(self.left)} = {side(self.right)}"


@functools.cache
def _base_solve(steps: tuple[Vector, ...], base: Optional[tuple[int, ...]]
                ) -> tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...], tuple[PathPair, ...]]:
    """The base T, the alpha/beta exponent rows over all steps, and the path pairs.

    T defaults to the lexicographically-first d+1 steps with independent step
    matrix rows, picked greedily.  With T's steps first, the integer left
    kernel of the step matrix M holds one primitive mu with mu . M = 0 per step
    outside T, positive at that step and zero at the other steps outside T:
    its positive entries are the pair's `left`, its negative ones its `right`.
    Row r of the inverse of T's rows expresses the r-th unknown (log alpha_1,
    ..., log alpha_d, log beta) through the weights of T.  Nothing here reads
    the weights, so one solve serves every weighting of the steps.
    """
    if _dual_cone_nontrivial(steps):
        raise SingularModelError("path pairs require a non-singular step set")
    rows = [(*s, 1) for s in steps]
    want = len(rows[0])
    basis = EchelonBasis(want)
    if base is None:
        # steps on no closed half-space lie on no affine hyperplane either, so
        # the step matrix has full rank and the greedy pick fills T
        base = tuple(k for k, row in enumerate(rows) if basis.add(row))
    elif len(base) != want or not all(0 <= i < len(rows) and basis.add(rows[i]) for i in base):
        raise ValueError(f"base {base} is not an independent subset of size {want}")
    order = [*base, *(k for k in range(len(rows)) if k not in base)]
    # T's columns are independent, so they are the pivots and the rest are free
    kernel = EchelonBasis(len(order), zip(*(rows[k] for k in order))).null_space()
    pairs = tuple(PathPair(k, *(tuple(sorted((order[i], abs(x)) for i, x in enumerate(mu)
                                             if x * side > 0)) for side in (1, -1)), steps)
                  for k, mu in zip(order[want:], kernel))
    inverse = zip(*solve([rows[i] for i in base],
                         [[int(r == c) for r in range(want)] for c in range(want)]))
    exponents = tuple(tuple(dict(zip(base, row)).get(k, Fraction(0)) for k in range(len(rows)))
                      for row in inverse)
    return base, exponents, pairs


def find_path_pairs(model: StepSet, base: Optional[Sequence[int]] = None
                    ) -> tuple[tuple[int, ...], list[PathPair]]:
    """A base subset T of d+1 steps and one path pair per remaining step.

    T defaults to the lexicographically-first d+1 steps with independent step
    matrix rows; a different independent subset may be passed explicitly.
    """
    chosen, _, pairs = _base_solve(model.steps, None if base is None else tuple(base))
    return chosen, list(pairs)


def pair_holds(model: StepSet, pair: PathPair) -> bool:
    """Exact test of prod_{left} a_r = prod_{right} a_r for one path pair."""
    exponents = [0] * model.size
    for idx, mult in pair.left:
        exponents[idx] = mult
    for idx, mult in pair.right:
        exponents[idx] = -mult
    num, den = _power_product(model.weights, exponents)
    return num == den


def is_central(model: StepSet) -> tuple[bool, Optional[PathPair]]:
    """Whether the weighting is central; on failure also the first violated pair."""
    witness = _violated(model, _base_solve(model.steps, None)[2])
    return witness is None, witness


def _violated(model: StepSet, pairs: Sequence[PathPair]) -> Optional[PathPair]:
    return next((pair for pair in pairs if not pair_holds(model, pair)), None)


def are_equivalent(model: StepSet, other: StepSet) -> bool:
    """Whether two weightings of the same steps give every confined walk the same law."""
    if model.steps != other.steps:
        raise StepSetError("equivalence requires identical step lists")
    ratio = model.with_weights([w / v for w, v in zip(model.weights, other.weights)])
    central, _ = is_central(ratio)
    return central


@dataclass(frozen=True)
class Monomial:
    """A product prod_s a_s**q_s of rational powers of the input weights."""

    exponents: tuple[Fraction, ...]

    def value(self, weights: Sequence[Fraction]) -> float:
        out = 1.0
        for w, q in zip(weights, self.exponents):
            if q:
                out *= float(w) ** float(q)
        return out

    def exact_value(self, weights: Sequence[Fraction]) -> Optional[Fraction]:
        """The exact rational value, or None when the value is irrational.

        The monomial raised to the lcm D of the exponent denominators is an
        exact rational; the value is rational iff that power is a perfect
        D-th power.
        """
        denom = lcm(*[q.denominator for q in self.exponents])
        return _rational_root(self.raised(weights, denom), denom)

    def raised(self, weights: Sequence[Fraction], d: int) -> Fraction:
        """The monomial to the power d, exact for d a multiple of every exponent denominator."""
        return Fraction(*_power_product(weights, (int(q * d) for q in self.exponents)))


@dataclass(frozen=True)
class CentralDecomposition:
    """Exact alpha/beta decomposition of a central weighting.

    Each entry is a monomial in the input weights with rational exponents; the
    round-trip invariant beta * prod_k alpha_k**s_k == a_s holds exactly for
    every step and is verified at construction time.
    """

    model: StepSet
    alpha: tuple[Monomial, ...]
    beta: Monomial

    def alpha_values(self) -> tuple[float, ...]:
        return tuple(m.value(self.model.weights) for m in self.alpha)

    def beta_value(self) -> float:
        return self.beta.value(self.model.weights)

    def alpha_exact(self) -> tuple[Optional[Fraction], ...]:
        return tuple(m.exact_value(self.model.weights) for m in self.alpha)

    def beta_exact(self) -> Optional[Fraction]:
        return self.beta.exact_value(self.model.weights)

    @property
    def denominator(self) -> int:
        """The lcm D of every exponent denominator: beta**D and alpha_k**D are rational."""
        return lcm(*(q.denominator for m in (self.beta, *self.alpha) for q in m.exponents))

    def verify(self) -> bool:
        """Whether beta**D * prod_k alpha_k**(D*s_k) == a_s**D for every step s: each
        side's weight exponents are D times those of beta * prod_k alpha_k**s_k, integers
        that `central_weights` forms exactly."""
        d = self.denominator
        beta, *alphas = ([int(q * d) for q in m.exponents] for m in (self.beta, *self.alpha))
        powers = [[b + sum(c * a[r] for c, a in zip(s, alphas)) for r, b in enumerate(beta)]
                  for s in self.model.steps]
        return central_weights(powers, self.model.weights) == [w ** d for w in self.model.weights]


def solve_central(model: StepSet, base: Optional[Sequence[int]] = None
                  ) -> CentralDecomposition:
    """Solve a_s = beta * prod_k alpha_k**s_k for alpha and beta, exactly.

    The exponent system log(a) = M_S (log alpha, log beta) is solved on a
    chosen independent row subset (default: the lexicographically-first one);
    exponent vectors live over the rationals so the result is exact even when
    the alpha_k themselves are irrational.  Centrality is checked on the path
    pairs of the same subset; NotCentralError carries the first one violated.
    """
    _, exponents, pairs = _base_solve(model.steps, None if base is None else tuple(base))
    witness = _violated(model, pairs)
    if witness is not None:
        raise NotCentralError(
            f"weighting is not central; violated relation {witness.describe()}",
            witness)
    *alpha, beta = map(Monomial, exponents)
    dec = CentralDecomposition(model=model, alpha=tuple(alpha), beta=beta)
    if not dec.verify():
        raise NotCentralError("weighting failed the exact round-trip check")
    return dec


def central_check(model: StepSet) -> dict:
    """Summary used by the command line: centrality flag plus the witness relation."""
    if is_singular(model):
        raise SingularModelError("centrality is only defined for non-singular models")
    central, witness = is_central(model)
    out = {"central": central}
    if witness is not None:
        out["violated_relation"] = witness.describe()
        out["violating_step"] = list(model.steps[witness.step_index])
    return out
