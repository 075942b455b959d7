"""Independent references that benchmark outputs are checked against.

Nothing here imports orthantwalks: closed forms, enumeration and exact linear
algebra are written out again so that a change to the library cannot move
its own yardstick.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


class Mismatch(Exception):
    """A program output disagrees with its reference."""


# ----------------------------------------------------------------------
# closed forms


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def gb_origin_count(n: int) -> int:
    """Gouyou-Beauchamps excursions of length n: C_k C_{k+2} - C_{k+1}^2 at n = 2k.

    The GB weights are a**s1 * b**s2, so a walk back to the origin carries
    weight 1 and this count holds for every weighting.
    """
    if n % 2:
        return 0
    k = n // 2
    return catalan(k) * catalan(k + 2) - catalan(k + 1) ** 2


def gb_total_count(n: int) -> int:
    """Unweighted GB walks of length n ending anywhere in the quarter plane."""
    h = (n + 1) // 2
    return math.comb(n, n // 2) * math.comb(n + 1, h) // (h + 1)


def gessel_origin_count(n: int) -> Fraction:
    """Gessel excursions: 16^k (5/6)_k (1/2)_k / ((5/3)_k (2)_k) at n = 2k."""
    if n % 2:
        return Fraction(0)
    out = Fraction(1)
    for i in range(n // 2):
        out *= 16 * (Fraction(5, 6) + i) * (Fraction(1, 2) + i) / (
            (Fraction(5, 3) + i) * (2 + i))
    return out


# ----------------------------------------------------------------------
# enumeration


def brute_force(steps: Sequence[Vector], weights: Sequence[Fraction],
                start: Vector, n: int) -> list[dict[Vector, Fraction]]:
    """Layers 0..n by enumerating every walk that stays in the orthant, one at a time."""
    layers: list[dict[Vector, Fraction]] = [{} for _ in range(n + 1)]

    def extend(pos: Vector, depth: int, weight: Fraction) -> None:
        layers[depth][pos] = layers[depth].get(pos, 0) + weight
        if depth == n:
            return
        for s, w in zip(steps, weights):
            target = tuple(p + c for p, c in zip(pos, s))
            if min(target) >= 0:
                extend(target, depth + 1, weight * w)

    extend(tuple(start), 0, Fraction(1))
    return layers


def unweighted_layers(steps: Sequence[Vector], start: Vector, n_max: int) -> list[dict]:
    """Dict-of-counts layers 0..n_max of unweighted orthant walks."""
    layers = [{start: 1}]
    for _ in range(n_max):
        new: dict[Vector, int] = {}
        for point, count in layers[-1].items():
            for s in steps:
                target = tuple(p + c for p, c in zip(point, s))
                if min(target) >= 0:
                    new[target] = new.get(target, 0) + count
        layers.append(new)
    return layers


def check_walk(steps: Iterable[Sequence[int]], start: Sequence[int], n: int,
               walk_steps: Sequence[Sequence[int]]) -> None:
    """A sampled walk has n steps, each drawn from S, and never leaves the orthant."""
    allowed = {tuple(s) for s in steps}
    if len(walk_steps) != n:
        raise Mismatch(f"walk has {len(walk_steps)} steps, expected {n}")
    pos = tuple(start)
    for k, s in enumerate(walk_steps):
        if tuple(s) not in allowed:
            raise Mismatch(f"step {k} = {tuple(s)} is not in the step set")
        pos = tuple(p + c for p, c in zip(pos, s))
        if min(pos) < 0:
            raise Mismatch(f"walk leaves the orthant at step {k}: {pos}")


# ----------------------------------------------------------------------
# comparisons


def extended_value(man: float, exp: int) -> Fraction:
    """The exact rational value man * 2**exp of an extended-range float."""
    if not math.isfinite(man):
        raise Mismatch(f"non-finite mantissa {man!r}")
    value = Fraction(man)
    return value * (1 << exp) if exp >= 0 else value / (1 << -exp)


def check_close(got: Fraction, want, rel: Fraction, what: str) -> None:
    """|got - want| <= rel * |want|; zero must be matched exactly."""
    want = Fraction(want)
    if abs(got - want) > rel * abs(want):
        raise Mismatch(f"{what}: got {float(got):.17g}, want {float(want):.17g}")


def scaled_bound(n: int) -> Fraction:
    """The n * 2**-50 relative error the scaled backend promises after n layers."""
    return Fraction(max(n, 1), 1 << 50)


# ----------------------------------------------------------------------
# exact linear algebra


def _reduce(row: list[int], basis: dict[int, list[int]]) -> list[int]:
    for col, pivot_row in basis.items():
        if row[col]:
            p, f = pivot_row[col], row[col]
            row = [p * x - f * y for x, y in zip(row, pivot_row)]
    return _primitive(row)


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def add_row(basis: dict[int, list[int]], row: Sequence[int]) -> bool:
    """Fraction-free incremental echelon form; True if the row was independent."""
    reduced = _reduce(list(row), basis)
    lead = next((c for c, x in enumerate(reduced) if x), None)
    if lead is None:
        return False
    for col, other in basis.items():
        # keep every pivot column zero in all other rows
        if other[lead]:
            p, f = reduced[lead], other[lead]
            basis[col] = _primitive([p * x - f * y for x, y in zip(other, reduced)])
    basis[lead] = reduced
    return True


def conjecture_rows(steps: Sequence[Vector], layer: dict) -> list[list[int]]:
    """Rows of the length-n system from the unweighted layer n-1 (zero rows dropped)."""
    endpoints = set()
    for point in layer:
        for s in steps:
            target = tuple(p + c for p, c in zip(point, s))
            if min(target) >= 0:
                endpoints.add(target)
    rows = []
    for e in endpoints:
        row = []
        for s in steps:
            src = tuple(p - c for p, c in zip(e, s))
            row.append(layer.get(src, 0) if min(src) >= 0 else 0)
        if any(row):
            rows.append(row)
    return rows


def nullity_profile(steps: Sequence[Vector], cap: int) -> list[int]:
    """Nullity of the walk-count system for each length cap 1..cap."""
    width = len(steps)
    layers = unweighted_layers(steps, (0,) * len(steps[0]), max(cap - 1, 0))
    basis: dict[int, list[int]] = {}
    out = []
    for n in range(1, cap + 1):
        if len(basis) < width:
            for row in conjecture_rows(steps, layers[n - 1]):
                add_row(basis, row)
                if len(basis) == width:
                    break
        out.append(width - len(basis))
    return out


def refutation_length(profile: Sequence[int]) -> Optional[int]:
    return next((n for n, k in enumerate(profile, 1) if k == 0), None)


def is_central(steps: Sequence[Vector], weights: Sequence[Fraction]) -> bool:
    """Whether w_s = beta * prod alpha_k**s_k has a solution, decided exactly.

    Equivalent to prod_s w_s**c_s = 1 for every integer c with c^T [S | 1] = 0:
    each left null vector of the augmented step matrix is a multiplicative
    relation the weights must satisfy.
    """
    cols = len(steps[0]) + 1
    matrix = [list(s) + [1] for s in steps]
    # left null space of M = null space of M^T
    transposed = [[matrix[r][c] for r in range(len(steps))] for c in range(cols)]
    for vec in null_space(transposed, len(steps)):
        num, den = 1, 1
        for w, c in zip(weights, vec):
            w = Fraction(w)
            if c > 0:
                num *= w.numerator ** c
                den *= w.denominator ** c
            elif c < 0:
                num *= w.denominator ** -c
                den *= w.numerator ** -c
        if num != den:
            return False
    return True


def null_space(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Integer null-space basis of an integer matrix, one vector per free column."""
    basis: dict[int, list[int]] = {}
    for row in rows:
        add_row(basis, row)
    out = []
    for free in (c for c in range(width) if c not in basis):
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for col, row in basis.items():
            vec[col] = -Fraction(row[free], row[col])
        den = math.lcm(*(q.denominator for q in vec))
        out.append([int(q * den) for q in vec])
    return out


def monomial_value_equals(weights: Sequence[Fraction], exponents: Sequence[Fraction],
                          target: Fraction) -> bool:
    """prod_s w_s**e_s == target for rational exponents, decided on integer powers."""
    den = math.lcm(*(Fraction(e).denominator for e in exponents)) if exponents else 1
    lhs = Fraction(1)
    for w, e in zip(weights, exponents):
        lhs *= Fraction(w) ** int(Fraction(e) * den)
    return lhs == Fraction(target) ** den


# ----------------------------------------------------------------------
# geometry and inventories


def non_singular_2d(steps: Sequence[Vector]) -> bool:
    """True iff no closed half-plane through the origin holds every step."""
    angles = sorted(math.atan2(y, x) for x, y in steps if (x, y) != (0, 0))
    if not angles:
        return False
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + 2 * math.pi - angles[-1])
    return max(gaps) < math.pi - 1e-9


def drift(steps: Sequence[Vector], weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((Fraction(w) * s[k] for s, w in zip(steps, weights)), Fraction(0))
                 for k in range(len(steps[0])))


CORNER_FAMILIES = ("free", "axial", "balanced")  # indexed by zero drift components
FAMILIES = ("balanced", "free", "reluctant", "directed", "axial", "transitional")


def check_family_vs_drift(family: str, dx: Fraction, dy: Fraction) -> None:
    """The class grid's corner row: nonnegative drift fixes the family by its zeros."""
    if family not in FAMILIES:
        raise Mismatch(f"unknown family {family!r}")
    if dx >= 0 and dy >= 0:
        want = CORNER_FAMILIES[(dx == 0) + (dy == 0)]
        if family != want:
            raise Mismatch(f"drift ({dx}, {dy}) gives {want}, got {family}")
    elif family in CORNER_FAMILIES:
        raise Mismatch(f"drift ({dx}, {dy}) has a negative component, got {family}")
