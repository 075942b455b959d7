"""Exact arithmetic over the rationals: one incremental echelon basis, one
product of rational powers and one rational root.

Every rank, null-space and linear-solve question in the package (the step
matrix of the central algebra, the dual cone behind singularity, the
walk-count system of the conjecture checker) is answered by `EchelonBasis`.
Rows are integer vectors and stay integral: each kept row is divided by the
gcd of its entries after every elimination, so elimination forms no fractions
and entries stay as small as the row space allows.  Every product of weights
raised to integer exponents is `_power_product`, and every exact root of a
weight is `_rational_root`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


class EchelonBasis:
    """The reduced row echelon form of the integer rows added so far.

    Each kept row is primitive, has a positive leading entry (its pivot), and
    is zero in the pivot column of every other kept row.  The kept rows, and
    so `null_space()`, depend on the row space alone, never on the order in
    which rows were added.
    """

    def __init__(self, width: int, rows: Iterable[Sequence[int]] = ()):
        self.width = width
        self._rows: dict[int, list[int]] = {}  # pivot column -> kept row
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Sequence[int]) -> bool:
        """Add one row; true iff it is independent of the rows already added."""
        if len(row) != self.width:
            raise ValueError(f"row of length {len(row)} in a basis of width {self.width}")
        r = list(row)
        for c, kept in self._rows.items():
            x = r[c]
            if x:
                p = kept[c]
                r = [p * a - x * b for a, b in zip(r, kept)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is None:
            return False
        g = gcd(*r)
        if r[lead] < 0:
            g = -g
        r = [x // g for x in r]
        p = r[lead]
        for c, kept in self._rows.items():
            x = kept[lead]
            if x:
                kept = [p * a - x * b for a, b in zip(kept, r)]
                g = gcd(*kept)
                self._rows[c] = [a // g for a in kept]
        self._rows[lead] = r
        return True

    def null_space(self) -> list[tuple[int, ...]]:
        """One primitive integer vector per free column f, positive at f.

        The vector for f is zero at every other free column, which fixes it
        up to a positive factor; dividing by the gcd fixes that factor.
        """
        scale = lcm(*(kept[c] for c, kept in self._rows.items()))
        basis = []
        for f in range(self.width):
            if f in self._rows:
                continue
            vec = [0] * self.width
            vec[f] = scale
            for c, kept in self._rows.items():
                vec[c] = -kept[f] * (scale // kept[c])
            g = gcd(*vec)
            basis.append(tuple(x // g for x in vec))
        return basis


def solve(matrix: Sequence[Sequence[int]],
          rhs: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """The exact solutions x of matrix . x = b, one for each b in rhs.

    `matrix` is a square integer matrix and each b an integer vector of the
    same length.  The augmented rows [matrix | b_1 ... b_k] go into one basis;
    when the matrix is nonsingular its columns are exactly the first pivots,
    and the pivot row of column c holds the c-th entry of every solution.
    """
    n = len(matrix)
    basis = EchelonBasis(n + len(rhs),
                         ([*row, *(b[i] for b in rhs)] for i, row in enumerate(matrix)))
    if any(c not in basis._rows for c in range(n)):
        raise ValueError("singular linear system")
    return [[Fraction(basis._rows[c][n + j], basis._rows[c][c]) for c in range(n)]
            for j in range(len(rhs))]


def _power_product(weights: Sequence[Fraction], exponents: Iterable[int]) -> tuple[int, int]:
    """prod w**e as an unreduced integer pair (num, den), with no gcd taken."""
    num = den = 1
    for w, e in zip(weights, exponents):
        if e > 0:
            num, den = num * w.numerator ** e, den * w.denominator ** e
        elif e < 0:
            num, den = num * w.denominator ** -e, den * w.numerator ** -e
    return num, den


def _rational_root(w: Fraction, r: int) -> Optional[Fraction]:
    """The exact r-th root of a positive rational, or None when it is irrational.

    Integer Newton from above on the numerator and the denominator, safe for
    big integers: it stops at the integer part of each root.
    """
    roots = []
    for n in (w.numerator, w.denominator):
        x = 1 << ((n.bit_length() - 1) // r + 1)
        while (y := ((r - 1) * x + n // x ** (r - 1)) // r) < x:
            x = y
        if x ** r != n:
            return None
        roots.append(x)
    return Fraction(*roots)
