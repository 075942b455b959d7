"""Finite verification of the walk-count linear system behind the kernel-uniqueness conjecture.

For a step set S, consider unknowns mu_s and require, for every endpoint
(i_1, ..., i_d) in the orthant and every 1 <= n <= n_cap,

    sum_s mu_s * w_{i - s}(n - 1) = 0,

where w are the unweighted confined walk counts from the origin.  The
conjecture asserts the system forces mu = 0; this module assembles the
equations exactly, computes the rational null space in one pass over the
lengths with an integer echelon basis, and reports the minimal length N_S at
which the null space first becomes trivial.

The rows of length n are read off layer n-1 of the unweighted counting
stream as it is built, by the same per-step slices the transfer kernel
adds up; the pass keeps no table and builds no layer past N_S - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

import numpy as np

from .counting import DEFAULT_GUARD, _lattice, _layers, _reach, _shape, _step_slices
from .linalg import EchelonBasis
from .stepset import StepSet


@dataclass(frozen=True)
class ConjectureReport:
    """Null-space summary of the assembled system up to a length cap.

    `refutation_length` is N_S, the least n <= n_cap at which the system for
    lengths 1..n has a trivial null space, or None when there is none.
    """

    model: StepSet
    n_cap: int
    basis: tuple[tuple[Fraction, ...], ...]
    refutation_length: Optional[int]

    @property
    def verified(self) -> bool:
        return not self.basis

    @property
    def nullity(self) -> int:
        return len(self.basis)


def _lengths(model: StepSet, n_cap: int, guard: int) -> Iterator[tuple[int, list[list[int]]]]:
    """(n, equation rows at length n) for n = 1..n_cap, from the unweighted stream.

    The row of endpoint e is layer n-1 at e - s over s in S, by shifted slices,
    in lexicographic order of e.  Only orthant endpoints with a nonzero row
    count, matching the finite restriction of the infinite system.
    """
    lattice = _lattice(model.steps)
    origin = (0,) * model.dimension
    for n, (arr, _, window, *_), _ in _layers(model.unweighted(), origin, n_cap - 1, "exact",
                                              guard):
        reach = _reach(model.steps, lattice, window)
        cells = np.zeros(_shape(reach, lattice) + [model.size], dtype=object)
        for i, into, out_of in _step_slices(model.steps, window, reach, lattice):
            cells[into + (i,)] = arr[out_of]
        rows = cells.reshape(-1, model.size)
        yield n + 1, rows[(rows != 0).any(axis=1)].tolist()


def _nullspace_pass(model: StepSet, n_cap: int,
                    guard: int) -> tuple[EchelonBasis, Optional[int]]:
    """Feed the equations of lengths 1..n_cap into one basis; also N_S, or None.

    N_S is the length at which the rank reaches |S|.  The nullity cannot
    fall further, so no more rows are assembled from there on.
    """
    basis = EchelonBasis(model.size)
    for n, rows in _lengths(model, n_cap, guard):
        for row in rows:
            if basis.add(row) and basis.rank == model.size:
                return basis, n
    return basis, None


def conjecture2_nullspace(model: StepSet, n_cap: int,
                          guard: int = DEFAULT_GUARD) -> ConjectureReport:
    """Assemble the system for lengths up to n_cap and return its exact null space."""
    if n_cap < 1:
        raise ValueError("n_cap must be at least 1")
    basis, n_s = _nullspace_pass(model, n_cap, guard)
    return ConjectureReport(
        model=model, n_cap=n_cap,
        basis=tuple(tuple(Fraction(x) for x in vec) for vec in basis.null_space()),
        refutation_length=n_s)


def minimal_refutation_length(model: StepSet, cap: int,
                              guard: int = DEFAULT_GUARD) -> Optional[int]:
    """Least n <= cap whose system has a trivial null space, or None.

    Monotone: the system only gains equations as n grows, so once the null
    space is trivial it stays trivial.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return _nullspace_pass(model, cap, guard)[1]


def residuals(model: StepSet, vector: tuple[Fraction, ...], n_cap: int,
              guard: int = DEFAULT_GUARD) -> list[Fraction]:
    """Substitute a candidate mu into every assembled equation (soundness check)."""
    if len(vector) != model.size:
        raise ValueError(f"mu has {len(vector)} entries, not one per step ({model.size})")
    # the rows are integers: scale mu to integers by one common denominator
    vector = [Fraction(q) for q in vector]
    den = lcm(*(q.denominator for q in vector))
    nums = [q.numerator * (den // q.denominator) for q in vector]
    return [Fraction(sum(c * n for c, n in zip(row, nums)), den)
            for _, rows in _lengths(model, n_cap, guard) for row in rows]
