"""Finite verification of the walk-count linear system behind the kernel-uniqueness conjecture.

For a step set S, consider unknowns mu_s and require, for every endpoint
(i_1, ..., i_d) in the orthant and every 1 <= n <= n_cap,

    sum_s mu_s * w_{i - s}(n - 1) = 0,

where w are the unweighted confined walk counts from the origin.  The
conjecture asserts the system forces mu = 0; this module assembles the
equations exactly, computes the rational null space in one pass over the
lengths with an integer echelon basis, and reports the minimal length N_S at
which the null space first becomes trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .counting import DEFAULT_GUARD, WalkTable, count_walks
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


def _count_table(model: StepSet, n_cap: int, guard: int) -> WalkTable:
    origin = (0,) * model.dimension
    return count_walks(model.unweighted(), origin, max(n_cap - 1, 0),
                       mode="exact", guard=guard)


def _rows_for_length(model: StepSet, table: WalkTable, n: int) -> Iterator[list[int]]:
    """Equation rows at length n: coefficient of mu_s at endpoint i is w_{i-s}(n-1).

    Only orthant endpoints where some coefficient is nonzero produce a row,
    matching the finite restriction of the infinite system.
    """
    layer = table.layer(n - 1)
    endpoints = set()
    for point in layer:
        for s in model.steps:
            target = tuple(p + c for p, c in zip(point, s))
            if min(target) >= 0:
                endpoints.add(target)
    for endpoint in sorted(endpoints):
        row = []
        for s in model.steps:
            source = tuple(p - c for p, c in zip(endpoint, s))
            row.append(int(layer.get(source, 0)) if min(source) >= 0 else 0)
        if any(row):
            yield row


def _nullspace_pass(model: StepSet, n_cap: int,
                    guard: int) -> tuple[EchelonBasis, Optional[int]]:
    """Feed the equations of lengths 1..n_cap into one basis; also N_S, or None.

    N_S is the length at which the rank reaches |S|.  The nullity cannot
    fall further, so no more rows are assembled from there on.
    """
    table = _count_table(model, n_cap, guard)
    basis = EchelonBasis(model.size)
    for n in range(1, n_cap + 1):
        for row in _rows_for_length(model, table, n):
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
    table = _count_table(model, n_cap, guard)
    rows: list[list[int]] = []
    for n in range(1, n_cap + 1):
        rows.extend(_rows_for_length(model, table, n))
    return [sum(Fraction(c) * q for c, q in zip(row, vector)) for row in rows]
