"""The product-form (central) weighting algebra of a step set.

A weighting is central when every walk with the same length, start and end
carries the same weight; equivalently the weights have the product form
a_s = beta * prod_k alpha_k**s_k.  All decisions here run in exponent space
over the rationals, never through real logarithms, so centrality checks and
the alpha/beta decomposition are bit-exact.

The path pairs and the alpha/beta monomials depend on the steps alone: one
exact inverse of a base of d+1 step-matrix rows gives both (a step's row times
the inverse gives its pair, the inverse's rows give alpha and beta), and the
weights enter only when the pairs are checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .linalg import EchelonBasis, _power_product, _rational_root, solve
from .stepset import StepSet, StepSetError, Vector, central_weights, is_singular


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
    def length(self) -> int:
        return sum(m for _, m in self.left)

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


def _base_solve(model: StepSet, base: Optional[Sequence[int]]
                ) -> tuple[list[int], list[tuple[Fraction, ...]], list[PathPair]]:
    """The base T, the exact inverse of T's step-matrix rows, and the path pairs.

    T defaults to the lexicographically-first d+1 steps with independent step
    matrix rows, picked greedily.  Row r of the inverse expresses the r-th
    unknown (log alpha_1, ..., log alpha_d, log beta) through the weights of T;
    a leftover step's row times the inverse gives its coefficients over T.
    Times the lcm D of the inverse's denominators they are integers, which
    with D at the step itself are split by sign into a path pair and made
    primitive.  Nothing here reads the weights.
    """
    if is_singular(model):
        raise SingularModelError("path pairs require a non-singular step set")
    rows = step_matrix(model)
    want = model.dimension + 1
    basis = EchelonBasis(want)
    if base is None:
        # steps on no closed half-space lie on no affine hyperplane either, so
        # the step matrix has full rank and the greedy pick fills T
        chosen = [k for k, row in enumerate(rows) if basis.add(row)]
    else:
        chosen = list(base)
        if len(chosen) != want or not all(basis.add(rows[i]) for i in chosen):
            raise ValueError(f"base {base} is not an independent subset of size {want}")
    columns = solve([rows[i] for i in chosen],
                    [[int(r == c) for r in range(want)] for c in range(want)])
    den = lcm(*(q.denominator for column in columns for q in column))
    scaled = [[q.numerator * (den // q.denominator) for q in column] for column in columns]
    pairs = []
    for s_idx in (k for k in range(model.size) if k not in chosen):
        coeffs = [sum(x * c for x, c in zip(rows[s_idx], column)) for column in scaled]
        common = gcd(den, *coeffs)
        left = {s_idx: den // common}
        right: dict[int, int] = {}
        for t_idx, c in zip(chosen, coeffs):
            if c > 0:
                right[t_idx] = c // common
            elif c < 0:
                left[t_idx] = -c // common
        # the last matrix column forces sum(coeffs) = D, so `right` is nonempty
        pairs.append(PathPair(
            step_index=s_idx,
            left=tuple(sorted(left.items())),
            right=tuple(sorted(right.items())),
            steps=model.steps,
        ))
    return chosen, list(zip(*columns)), pairs


def find_path_pairs(model: StepSet, base: Optional[Sequence[int]] = None
                    ) -> tuple[tuple[int, ...], list[PathPair]]:
    """A base subset T of d+1 steps and one path pair per remaining step.

    T defaults to the lexicographically-first d+1 steps with independent step
    matrix rows; a different independent subset may be passed explicitly.
    """
    chosen, _, pairs = _base_solve(model, base)
    return tuple(chosen), pairs


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
    witness = _violated(model, find_path_pairs(model)[1])
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

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, k: int) -> "Monomial":
        return Monomial(tuple(q * k for q in self.exponents))


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

    def step_exponents(self, step: Vector) -> tuple[Fraction, ...]:
        """Exponent vector of beta * prod_k alpha_k**step_k as a weight monomial."""
        return tuple(b + sum(c * a.exponents[r] for c, a in zip(step, self.alpha))
                     for r, b in enumerate(self.beta.exponents))

    @property
    def denominator(self) -> int:
        """The lcm D of every exponent denominator: beta**D and alpha_k**D are rational."""
        return lcm(*(q.denominator for m in (self.beta, *self.alpha) for q in m.exponents))

    def verify(self) -> bool:
        """Whether beta**D * prod_k alpha_k**(D*s_k) == a_s**D for every step s, in the
        integer exponents D times `step_exponents`, which `central_weights` forms exactly."""
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
    chosen, inverse, pairs = _base_solve(model, base)
    witness = _violated(model, pairs)
    if witness is not None:
        raise NotCentralError(
            f"weighting is not central; violated relation {witness.describe()}",
            witness)
    monomials = []
    for row in inverse:
        exps = [Fraction(0)] * model.size
        for i, q in zip(chosen, row):
            exps[i] = q
        monomials.append(Monomial(tuple(exps)))
    dec = CentralDecomposition(model=model, alpha=tuple(monomials[:-1]), beta=monomials[-1])
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
