"""Counting tables for weighted walks confined to the nonnegative orthant.

Two arithmetic backends sit behind one WalkTable interface:

* exact mode: sparse per-layer dicts of big integers.  Rational weights are
  cleared to integers by the common denominator L, so layer n stores L**n
  times the true weighted count and every identity check stays bit-exact.
* scaled mode: dense numpy float64 arrays with one shared binary exponent per
  layer.  Powers of two are exact in binary floating point, so the periodic
  renormalization adds no rounding error; per-layer relative error is bounded
  by (|S|+2) ulp and hence by n * 2**-50 after n layers.

Scaled tables keep per-layer totals and a small set of tracked endpoint
values; full layers are retained as periodic checkpoints only when sampling
is requested, and intermediate layers are recomputed block by block during
the backward pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .xfloat import XFloat
from .stepset import StepSet, StepSetError, Vector

Count = Union[int, Fraction, XFloat]

DEFAULT_GUARD = 50_000_000
BRUTE_FORCE_GUARD = 10 ** 8

# renormalize a scaled layer when its maximum leaves [2**-500, 2**500]
_NORM_LIMIT = 2.0 ** 500
_NORM_SHIFT = 512


class ResourceGuardError(RuntimeError):
    """A counting request would exceed the configured table-entry guard."""


@dataclass(frozen=True)
class Walk:
    """A concrete walk: start point plus the ordered list of steps taken."""

    start: Vector
    steps: tuple[Vector, ...]

    @property
    def end(self) -> Vector:
        pos = list(self.start)
        for s in self.steps:
            for k, c in enumerate(s):
                pos[k] += c
        return tuple(pos)

    def points(self) -> list[Vector]:
        out = [self.start]
        pos = list(self.start)
        for s in self.steps:
            for k, c in enumerate(s):
                pos[k] += c
            out.append(tuple(pos))
        return out

    def stays_in_orthant(self) -> bool:
        return all(min(p) >= 0 for p in self.points())


def _integerized_weights(model: StepSet) -> tuple[list[int], int]:
    denominators = [w.denominator for w in model.weights]
    scale = math.lcm(*denominators)
    return [int(w * scale) for w in model.weights], scale


class WalkTable:
    """Layered counts of orthant-confined walks from a fixed start point.

    Layer n maps endpoints to the weighted number of n-step walks; layer 0 is
    {start: 1} and each layer is one application of the transfer recurrence.
    """

    def __init__(self, model: StepSet, start: Vector, n_max: int, mode: str,
                 guard: int = DEFAULT_GUARD,
                 track: Iterable[Vector] = (),
                 keep_layers: Optional[bool] = None):
        if any(c < 0 for c in start):
            raise StepSetError(f"start {start} lies outside the orthant")
        if len(start) != model.dimension:
            raise StepSetError("start point dimension mismatch")
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if mode not in ("exact", "scaled"):
            raise ValueError(f"unknown mode {mode!r}")
        self.model = model
        self.start = tuple(start)
        self.n_max = n_max
        self.mode = mode
        self.guard = guard
        self._tracked_points = tuple(dict.fromkeys(tuple(p) for p in track))
        if mode == "exact":
            self._build_exact()
        else:
            self._build_scaled(keep_layers=bool(keep_layers))

    # ------------------------------------------------------------------
    # exact backend

    def _build_exact(self) -> None:
        weights, scale = _integerized_weights(self.model)
        steps = self.model.steps
        layers = [{self.start: 1}]
        entries = 1
        for _ in range(self.n_max):
            new: dict[Vector, int] = {}
            for point, count in layers[-1].items():
                for s, w in zip(steps, weights):
                    target = tuple(p + c for p, c in zip(point, s))
                    if min(target) < 0:
                        continue
                    prev = new.get(target)
                    new[target] = w * count if prev is None else prev + w * count
            entries += len(new)
            if entries > self.guard:
                raise ResourceGuardError(
                    f"exact table exceeds guard of {self.guard} entries")
            layers.append(new)
        self._layers = layers
        self._scale = scale

    def _exact_value(self, raw: int, n: int) -> Union[int, Fraction]:
        if self._scale == 1:
            return raw
        return Fraction(raw, self._scale ** n)

    def layer(self, n: int) -> dict[Vector, Union[int, Fraction]]:
        """Endpoint -> count map for layer n (exact mode only)."""
        self._check_n(n)
        if self.mode != "exact":
            raise ValueError("full layers are only materialized in exact mode")
        return {p: self._exact_value(c, n) for p, c in self._layers[n].items()}

    # ------------------------------------------------------------------
    # scaled backend

    def _box_geometry(self):
        d = self.model.dimension
        pos = [max(0, max(s[k] for s in self.model.steps)) for k in range(d)]
        neg = [max(0, max(-s[k] for s in self.model.steps)) for k in range(d)]
        shape = tuple(self.start[k] + self.n_max * pos[k] + 1 for k in range(d))
        return shape, pos, neg

    def _build_scaled(self, keep_layers: bool) -> None:
        shape, pos_reach, neg_reach = self._box_geometry()
        box = math.prod(shape)
        d = self.model.dimension
        retained = 2 * box
        stride = max(1, int(math.isqrt(self.n_max))) if keep_layers else 0
        if keep_layers:
            retained += box * (self.n_max // stride + stride + 2)
        if retained > self.guard:
            raise ResourceGuardError(
                f"scaled table of ~{retained} entries exceeds guard of {self.guard}")
        weights = [float(w) for w in self.model.weights]
        cur = np.zeros(shape)
        cur[self.start] = 1.0
        exp = 0
        lo = list(self.start)
        hi = list(self.start)
        totals = [XFloat(1.0)]
        tracked = {p: [XFloat(1.0 if p == self.start else 0.0)]
                   for p in self._tracked_points}
        self._stride = stride
        self._checkpoints: dict[int, tuple[np.ndarray, int]] = {}
        self._windows: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._windows.append((tuple(lo), tuple(hi)))
        if keep_layers:
            self._checkpoints[0] = (cur.copy(), exp)
        for n in range(1, self.n_max + 1):
            new_lo = [max(0, lo[k] - neg_reach[k]) for k in range(d)]
            new_hi = [min(shape[k] - 1, hi[k] + pos_reach[k]) for k in range(d)]
            cur, exp = _advance_layer(cur, exp, self.model.steps, weights,
                                      (lo, hi), (new_lo, new_hi))
            lo, hi = new_lo, new_hi
            self._windows.append((tuple(lo), tuple(hi)))
            window = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
            totals.append(XFloat(float(cur[window].sum()), exp))
            for p, series in tracked.items():
                inside = all(l <= c <= h for c, l, h in zip(p, lo, hi))
                series.append(XFloat(float(cur[p]), exp) if inside else XFloat(0.0))
            if keep_layers and (n % stride == 0 or n == self.n_max):
                self._checkpoints[n] = (cur.copy(), exp)
        self._totals = totals
        self._tracked = tracked
        self._final = (cur, exp)

    def _scaled_layer_block(self, n: int) -> tuple[np.ndarray, int]:
        """Recompute layer n from the nearest checkpoint at or below it."""
        if n in self._checkpoints:
            arr, exp = self._checkpoints[n]
            return arr, exp
        if not self._checkpoints:
            raise ValueError("scaled table was built without keep_layers=True")
        base = max(k for k in self._checkpoints if k <= n)
        arr, exp = self._checkpoints[base]
        arr = arr.copy()
        weights = [float(w) for w in self.model.weights]
        for m in range(base + 1, n + 1):
            arr, exp = _advance_layer(arr, exp, self.model.steps, weights,
                                      self._windows[m - 1], self._windows[m])
        return arr, exp

    # ------------------------------------------------------------------
    # shared accessors

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"length {n} outside the table range 0..{self.n_max}")

    def total(self, n: int) -> Count:
        """Weighted number of n-step walks ending anywhere in the orthant."""
        self._check_n(n)
        if self.mode == "exact":
            return self._exact_value(sum(self._layers[n].values()), n)
        return self._totals[n]

    def endpoint(self, end: Vector, n: int) -> Count:
        """Weighted number of n-step walks ending exactly at `end` (0 if absent)."""
        self._check_n(n)
        end = tuple(end)
        if self.mode == "exact":
            return self._exact_value(self._layers[n].get(end, 0), n)
        if end in self._tracked:
            return self._tracked[end][n]
        if self._checkpoints:
            arr, exp = self._scaled_layer_block(n)
            lo, hi = self._windows[n]
            if all(l <= c <= h for c, l, h in zip(end, lo, hi)) and min(end) >= 0:
                return XFloat(float(arr[end]), exp)
            return XFloat(0.0)
        raise ValueError(
            f"endpoint {end} was not tracked; pass track=[{end}] to count_walks")


def _advance_layer(arr: np.ndarray, exp: int, steps, weights,
                   src_window, dst_window) -> tuple[np.ndarray, int]:
    """One transfer step of the orthant-restricted recurrence on a dense layer."""
    (slo, shi), (dlo, dhi) = src_window, dst_window
    new = np.zeros_like(arr)
    d = arr.ndim
    for s, w in zip(steps, weights):
        dst, src = [], []
        for k in range(d):
            a = max(dlo[k], slo[k] + s[k], 0)
            b = min(dhi[k], shi[k] + s[k])
            if a > b:
                dst = None
                break
            dst.append(slice(a, b + 1))
            src.append(slice(a - s[k], b - s[k] + 1))
        if dst is None:
            continue
        new[tuple(dst)] += w * arr[tuple(src)]
    window = tuple(slice(l, h + 1) for l, h in zip(dlo, dhi))
    peak = float(new[window].max()) if new.size else 0.0
    if peak > _NORM_LIMIT:
        new *= 2.0 ** -_NORM_SHIFT
        exp += _NORM_SHIFT
    elif 0.0 < peak < 1.0 / _NORM_LIMIT:
        new *= 2.0 ** _NORM_SHIFT
        exp -= _NORM_SHIFT
    return new, exp


def count_walks(model: StepSet, start: Sequence[int], n_max: int,
                mode: str = "exact", *,
                track: Iterable[Sequence[int]] = (),
                keep_layers: Optional[bool] = None,
                guard: int = DEFAULT_GUARD) -> WalkTable:
    """Build the layered counting table for walks from `start` up to length n_max."""
    return WalkTable(model, tuple(start), n_max, mode, guard=guard,
                     track=[tuple(p) for p in track], keep_layers=keep_layers)


def brute_force_count(model: StepSet, start: Sequence[int], n: int,
                      guard: int = BRUTE_FORCE_GUARD) -> dict[Vector, Union[int, Fraction]]:
    """Independent oracle: enumerate every step sequence, pruning out-of-orthant prefixes."""
    if model.size ** n > guard:
        raise ResourceGuardError(f"brute force would enumerate {model.size}**{n} sequences")
    start = tuple(start)
    if min(start) < 0:
        raise StepSetError(f"start {start} lies outside the orthant")
    integer = all(w.denominator == 1 for w in model.weights)
    weights = [int(w) if integer else w for w in model.weights]
    totals: dict[Vector, Union[int, Fraction]] = {}

    def recurse(point: Vector, depth: int, weight) -> None:
        if depth == n:
            totals[point] = totals.get(point, 0) + weight
            return
        for s, w in zip(model.steps, weights):
            target = tuple(p + c for p, c in zip(point, s))
            if min(target) >= 0:
                recurse(target, depth + 1, weight * w)

    recurse(start, 0, 1 if integer else Fraction(1))
    return totals


def sample_walk(table: WalkTable, n: int, seed: int) -> Walk:
    """Draw a length-n walk with probability proportional to its weight product.

    Backward sampling on the counting table: pick the endpoint from layer n,
    then repeatedly pick the previous point.  Exact tables use exact-rational
    cumulative weights (randomness enters through 64-bit dyadic draws, so any
    selection bias is below 2**-64 per step); scaled tables use float64
    cumulative weights with relative bias below n * 2**-50.
    """
    table._check_n(n)
    rng = random.Random(seed)
    if table.mode == "exact":
        return _sample_exact(table, n, rng)
    return _sample_scaled(table, n, rng)


def _pick(rng: random.Random, items: list, weights: list) -> object:
    if not items:
        raise ValueError("cannot sample from an empty layer")
    if all(isinstance(w, int) for w in weights):
        total = sum(weights)
        if total <= 0:
            raise ValueError("cannot sample from an empty layer")
        r = rng.randrange(total)
    else:
        total = sum(weights)
        if total <= 0:
            raise ValueError("cannot sample from an empty layer")
        r = Fraction(rng.getrandbits(64), 1 << 64) * total
    acc = 0
    for item, w in zip(items, weights):
        acc += w
        if r < acc:
            return item
    return items[-1]


def _sample_exact(table: WalkTable, n: int, rng: random.Random) -> Walk:
    layer = table._layers[n]
    points = sorted(layer)
    current = _pick(rng, points, [layer[p] for p in points])
    steps_taken: list[Vector] = []
    weights, _ = _integerized_weights(table.model)
    for m in range(n, 0, -1):
        prev_layer = table._layers[m - 1]
        candidates, masses = [], []
        for s, w in zip(table.model.steps, weights):
            prev = tuple(c - d for c, d in zip(current, s))
            if min(prev) < 0:
                continue
            count = prev_layer.get(prev)
            if count:
                candidates.append((prev, s))
                masses.append(w * count)
        prev, step = _pick(rng, candidates, masses)
        steps_taken.append(step)
        current = prev
    return Walk(table.start, tuple(reversed(steps_taken)))


def _sample_scaled(table: WalkTable, n: int, rng: random.Random) -> Walk:
    if not table._checkpoints:
        raise ValueError("sampling a scaled table requires keep_layers=True")
    arr, _ = table._scaled_layer_block(n)
    lo, hi = table._windows[n]
    window = tuple(slice(l, h + 1) for l, h in zip(lo, hi))
    sub = arr[window]
    flat = sub.ravel()
    total = flat.sum()
    if total <= 0.0:
        raise ValueError("cannot sample from an empty layer")
    idx = int(np.searchsorted(np.cumsum(flat), rng.random() * total, side="right"))
    idx = min(idx, flat.size - 1)
    current = tuple(int(c) + l for c, l in zip(np.unravel_index(idx, sub.shape), lo))
    weights = [float(w) for w in table.model.weights]
    steps_taken: list[Vector] = []
    block_cache: dict[int, tuple[np.ndarray, int]] = {}

    def layer_value(m: int, point: Vector) -> float:
        if min(point) < 0:
            return 0.0
        plo, phi = table._windows[m]
        if not all(l <= c <= h for c, l, h in zip(point, plo, phi)):
            return 0.0
        if m not in block_cache:
            block_cache.clear()
            base = max(k for k in table._checkpoints if k <= m)
            arr_b, exp_b = table._checkpoints[base]
            arr_b = arr_b.copy()
            block_cache[base] = (arr_b, exp_b)
            for step_n in range(base + 1, m + 1):
                arr_b, exp_b = _advance_layer(arr_b, exp_b, table.model.steps, weights,
                                              table._windows[step_n - 1],
                                              table._windows[step_n])
                block_cache[step_n] = (arr_b, exp_b)
        arr_m, _ = block_cache[m]
        return float(arr_m[point])

    for m in range(n, 0, -1):
        candidates, masses = [], []
        for s, w in zip(table.model.steps, weights):
            prev = tuple(c - d for c, d in zip(current, s))
            mass = layer_value(m - 1, prev)
            if mass > 0.0:
                candidates.append((prev, s))
                masses.append(w * mass)
        if not candidates:
            raise ValueError("backward sampling hit an unreachable point")
        total = sum(masses)
        r = rng.random() * total
        acc = 0.0
        prev, step = candidates[-1]
        for cand, mass in zip(candidates, masses):
            acc += mass
            if r < acc:
                prev, step = cand
                break
        steps_taken.append(step)
        current = prev
    return Walk(table.start, tuple(reversed(steps_taken)))
