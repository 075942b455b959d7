"""Counting tables for weighted walks confined to the nonnegative orthant.

Every layer comes out of one stream, `_layers`, the only loop over layers.
It yields layer n as (n, layer, total), the layer a `Layer` and the total a
scaled layer's raw sum (None in exact mode), and builds layer n+1 only when
asked.  `WalkTable` records totals, tracked endpoints and kept layers from
it; the null-space checker and the relation checks read it directly, keep no
table, pay for no total, and stop pulling once they have their answer.

One transfer kernel builds every layer.  Steps agree modulo m_k = gcd_s(s_k -
s0_k) on axis k, so layer n lies in the coset start + n*s0 (mod m), in a dense
array over its window with index a at the point lo + m*a: one step's reach from
layer n-1's window, clipped to the orthant and the coset, less its all-zero
faces (exact zeros, or scaled cells already lost to underflow), so kept cells
are computed as over the whole box.  The array is a view into a C-ordered
buffer whose rows on axes 1.. run on past the window in zero ghost cells, as
many as a step can read outside it ((max(0, s_k) - min(0, s_k)) / m_k), so the
cells of consecutive rows never touch.  Layers n-1 and n share one row length,
so step s is one flat offset and one contiguous multiply-add over every cell
whose read lies in the old layer's rows; a read that leaves the old window
lands on a ghost zero, which acts as the orthant boundary.  A window that
outgrows its rows is first copied into longer ones.  The stream carries the
row layout, and with it each step's flat offset, from layer to layer.  Only
the array's dtype depends on the mode:

* exact mode: object arrays of Python ints.  A central weighting w_s = beta *
  alpha**s with rational alpha and beta (`central.solve_central`) runs on
  unit weights: every n-step walk from the start to p weighs beta**n *
  alpha**(p - start), so weighted(p, n) is that times the unit-weight count
  (Garbit & Raschel, Rev. Mat. Iberoam. 32, 2016), and every read folds the
  factor in.  Every other weighting runs on its weights cleared to integers
  by their common denominator L, and reads with alpha = 1, beta = 1 and a
  further 1 / L**n.  The total of a layer comes from the boundary identity
  of `_boundary`, which reads only the cells next to the axes; it is kept as
  one integer per layer and becomes a Fraction only when read.  A draw
  weighs each cell by L**n times its count, L the weights' denominator, on
  either path, so a seed draws the same walk from both.
* scaled mode: float64 arrays with one shared binary exponent per layer.
  Powers of two are exact in binary floating point, so the renormalization
  (the one step only scaled mode takes) adds no rounding error; per-layer
  relative error is bounded by (|S|+2) ulp and hence by n * 2**-50 after n
  layers.  One sum per layer gives the total and the range check: entries
  are nonnegative, so max <= sum <= cells * max, and only a sum outside
  [cells * 2**-499, 2**500] needs the maximum.  The boundary identity would
  not serve here: its subtraction cancels in floats where the mass of a
  layer sits next to the axes.

A layer the table does not keep is written into one of two buffers, both
sized once to the largest padded layer, so the build allocates no layer it
drops.  A stream holds two layers at a time and raises when they exceed its
guard; a table checks its guard before the build, over every layer it may
hold.  Exact tables, and scaled tables built for sampling (keep_layers), keep
a checkpoint every isqrt(n_max) layers, so a built exact table holds about
n**3.5 bits where every layer would take n**4 (Griewank & Walther,
"Algorithm 799: revolve", ACM TOMS 2000); scaled tables keep none otherwise.
A kept layer keeps the rows it was built in.  Two paths read a table.
`_replay` gives a whole layer: kept, or replayed from the highest kept layer
below it.  It serves `layer`, a draw's first pick, and the missing layers of
an exact draw.  `_stretch` gives cells.  At a kept layer it reads that
layer's buffer in place.  Elsewhere it replays from the checkpoint up over
one box: the backward cone, at the checkpoint, of the cell asked for (Frigo &
Strumpen, "Cache oblivious stencil computations", ICS 2005).  It serves every
draw's layers below n and every untracked endpoint.  Each layer of the
stretch lies over that box moved by steps[0], so one plan of flat step ranges
replays them all.  The stretch stacks at most isqrt(n_max) boxes, within the
two working layers the guard counts.  An exact table keeps every layer it
replays whole, as its guard counts every layer.  A scaled table keeps only
its checkpoints.  Cell reads keep nothing.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .central import NotCentralError, SingularModelError, solve_central
from .xfloat import XFloat
from .stepset import StepSet, StepSetError, Vector, _float_weights

Count = Union[int, Fraction, XFloat]
Window = tuple[tuple[int, ...], tuple[int, ...]]
# a layer: its raw cells as an array, their exponent and its window, then the rows they were
# built in: the written rows as one flat buffer, the index of the first cell there, the layout
Layer = tuple[np.ndarray, int, Window, np.ndarray, int, tuple]

DEFAULT_GUARD = 50_000_000
BRUTE_FORCE_GUARD = 10 ** 8

# renormalize a scaled layer when its maximum leaves [2**-500, 2**500]
_NORM_LIMIT = 2.0 ** 500
_NORM_FLOOR = 2.0 ** -499  # twice 1 / _NORM_LIMIT, per cell
_NORM_SHIFT = 512

# a new row layout leaves room for this many layers of window growth
_SPARE_LAYERS = 2

_LOUD = contextlib.nullcontext()  # numpy's warnings as the caller set them


class ResourceGuardError(RuntimeError):
    """A counting request would exceed the configured table-cell guard."""


@dataclass(frozen=True)
class Walk:
    """A concrete walk: start point plus the ordered list of steps taken."""

    start: Vector
    steps: tuple[Vector, ...]

    @property
    def end(self) -> Vector:
        return self.points()[-1]

    def points(self) -> list[Vector]:
        return list(itertools.accumulate(
            self.steps, lambda p, s: tuple(a + b for a, b in zip(p, s)), initial=self.start))

    def stays_in_orthant(self) -> bool:
        return all(min(p) >= 0 for p in self.points())


def _kernel_weights(model: StepSet, mode: str) -> tuple[list, int]:
    """The kernel's weights and their scale L: floats, or in exact mode the integers L*w."""
    if mode == "scaled":
        return _float_weights(model.weights), 1
    scale = math.lcm(*(w.denominator for w in model.weights))
    return [int(w * scale) for w in model.weights], scale


def _fold(model: StepSet) -> Optional[tuple[tuple[Fraction, ...], Fraction]]:
    """alpha and beta of a central weighting when both are rational and not all 1, else None."""
    if set(model.weights) == {1}:
        return None
    try:
        dec = solve_central(model)
    except (SingularModelError, NotCentralError):
        return None
    alpha, beta = dec.alpha_exact(), dec.beta_exact()
    return None if beta is None or None in alpha else (alpha, beta)


def _boundary(steps, weights: list[int], alpha: Sequence[tuple[int, int]], neg: Vector,
              pos: Vector) -> tuple[int, list[tuple[int, list]]]:
    """K = Lambda * sum_s w_s alpha**s, and the classes of the band, for the boundary identity.

    With alpha_k = N_k / D_k, Lambda = prod_k N_k**-neg_k * D_k**pos_k and
    g(q, n) = Lambda**n alpha**(q - start), the lifted total t(n) = sum_q
    g(q, n) raw(q, n) obeys t(n+1) = K t(n) - band(n).  A step leaves the
    orthant only from a cell q with q_k < -neg_k on some axis, so band(n)
    sums g(q, n) raw(q, n) Lambda sum_{s: q+s outside} w_s alpha**s over
    those cells.  They fall into classes, one per pattern of the coordinates
    min(q_k, -neg_k); a class is its weight Lambda sum_s w_s alpha**s and,
    per axis, its coordinate, or None where q_k >= -neg_k is free.
    """
    lifts = [math.prod(a ** (c - q) * b ** (p - c) for (a, b), c, q, p in zip(alpha, s, neg, pos))
             for s in steps]
    classes = []
    for c in itertools.product(*(range(1 - q) for q in neg)):
        weight = sum(w * g for s, w, g in zip(steps, weights, lifts)
                     if any(x + t < 0 for x, t in zip(c, s)))
        if weight:
            classes.append((weight, [x if x < -q else None for x, q in zip(c, neg)]))
    return sum(w * g for w, g in zip(weights, lifts)), classes


class WalkTable:
    """Layered counts of orthant-confined walks from a fixed start point.

    Layer n maps endpoints to the weighted number of n-step walks; layer 0 is
    {start: 1} and each layer is one application of the transfer recurrence.
    Exact tables always keep checkpoints; keep_layers makes a scaled table keep
    them too, for whole layers, untracked endpoints and draws.
    """

    def __init__(self, model: StepSet, start: Vector, n_max: int, mode: str,
                 guard: int = DEFAULT_GUARD,
                 track: Iterable[Vector] = (),
                 keep_layers: bool = False):
        if any(isinstance(c, bool) for c in start):
            raise StepSetError("start point coordinates must be ints, not bools")
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
        self._lattice = _lattice(model.steps)
        # layers n with n % stride == 0 (and the last) are kept; stride 0 keeps none
        keeps = mode == "exact" or keep_layers
        self._stride = max(1, math.isqrt(n_max)) if keeps else 0
        checkpoints = {*range(0, n_max, self._stride), n_max} if keeps else set()
        cells = _window_cells(model.steps, self._lattice, self.start, n_max)
        if mode == "exact":
            # whole-layer replays keep the layers between checkpoints, up to every layer
            held = sum(cells)
        else:
            # the checkpoints and two working layers, of the build or of a replay
            held = sum(cells[n] for n in checkpoints) + 2 * max(cells)
        if held > guard:
            raise ResourceGuardError(
                f"{mode} table of {held} cells exceeds guard of {guard}")
        # a central weighting with rational alpha and beta runs on unit weights; every other
        # table on the weights L * w, with alpha = (1, ..., 1) and beta = 1
        fold = _fold(model) if mode == "exact" else None
        alpha, beta = fold or ((Fraction(1),) * model.dimension, Fraction(1))
        kernel = model if fold is None else model.unweighted()
        self._weights, scale = _kernel_weights(kernel, mode)
        # a cell reads beta**n * alpha**(p - start) * raw / scale**n = g(p, n) * raw * (num/den)**n
        self._span = neg, pos = _extents(model.steps, self._lattice)[:2]
        alpha = [(a.numerator, a.denominator) for a in alpha]
        lam = math.prod(a ** -q * b ** p for (a, b), q, p in zip(alpha, neg, pos))
        self._per_layer = (beta.numerator, beta.denominator * scale * lam)
        self._trivial = self._per_layer == (1, 1) and set(alpha) == {(1, 1)}
        # the powers N_k**j and D_k**j that g takes, None for 1
        self._powers = [[None if v == 1 else np.array(list(itertools.accumulate(
            itertools.repeat(v, n_max * (p - q)), operator.mul, initial=1)), dtype=object)
            for v in pair] for pair, q, p in zip(alpha, neg, pos)]
        # a draw weighs walks by L**n times their weight, L the weights' denominator
        self._unit = math.lcm(*(w.denominator for w in model.weights))
        self._tracked: dict[Vector, list[tuple]] = {tuple(p): [] for p in track}
        if any(len(p) != model.dimension for p in self._tracked):
            raise StepSetError("tracked point dimension mismatch")
        if any(isinstance(c, bool) for p in self._tracked for c in p):
            raise StepSetError("tracked point coordinates must be ints, not bools")
        self._windows, self._totals, self._kept = [], [], {}
        self._first = None  # sample_walk's last first pick: n, cells, cumsum, shape, corner
        if mode == "exact":  # every exact total comes from the boundary identity
            factor, self._classes = _boundary(model.steps, self._weights, alpha, neg, pos)
            total = 1
        for n, layer, scaled_total in _layers(kernel, self.start, n_max, mode, guard,
                                              checkpoints.__contains__):
            arr, exp, window = layer[:3]
            self._windows.append(window)
            if mode == "scaled":
                total = scaled_total
            self._totals.append((total, exp))
            if mode == "exact" and n < n_max:
                total = factor * total - self._band(arr, window[0], n)
            for p, series in self._tracked.items():
                index = _index(window, p, self._lattice)
                series.append((0 if index is None else arr[index], exp))
            if n in checkpoints:
                self._kept[n] = layer

    def _base(self, n: int) -> int:
        """The highest kept layer j <= n."""
        if not self._kept:
            raise ValueError("scaled table was built without keep_layers=True")
        while n not in self._kept:
            n -= 1
        return n

    def _replay(self, n: int) -> Layer:
        """Layer n whole, the only way to one: kept, or replayed from the highest kept layer
        below it, starting in the rows that layer was kept in.  An exact table keeps every
        layer it replays, as its guard counts every layer; a scaled table keeps only its
        checkpoints."""
        base = self._base(n)
        layer = self._kept[base]
        arr, exp, src, cells, at, layout = layer
        steps, lattice = self.model.steps, self._lattice
        with np.errstate(over="ignore", invalid="ignore"):  # only ghosts, zeroed after
            for j in range(base + 1, n + 1):
                dst = self._windows[j]
                arr, cells, layout = _advance_layer(arr, cells, at, layout, steps, self._weights,
                                                    src, dst, _shape(dst, lattice), lattice)
                at, src = 0, dst
                if self._totals[j][1] != exp:
                    arr *= 2.0 ** (exp - self._totals[j][1])
                    exp = self._totals[j][1]
                layer = (arr, exp, dst, cells, 0, layout)
                if self.mode == "exact":
                    self._kept[j] = layer
        return layer

    def _stretch(self, point: Vector, m: int, top: int) -> tuple[np.ndarray, int, int, list, int]:
        """Layers j..top, for the highest kept j <= top <= m, as one flat array: the cells
        to read, `point`'s index at layer m there (past them when top < m), the distance
        `size` between layers, each step's flat offset D_s there, and j.

        A kept `top` is read in place, with no box, copy or plan: the cells
        are its own buffer whole, the index is that of point - (m - top) *
        steps[0], the D_s are the layer's own, and size is 0.  Otherwise the
        stretch is replayed over one box stacked `size` apart: layer j's part
        of the backward cone of `point` at layer m, not clipped to the
        window.  Layer j + t lies over it moved by t * steps[0], so one plan
        of flat step ranges replays every layer.  A cone cell's predecessors
        lie in the cone one layer down, so it adds the build's terms in the
        build's order (other reads add exact zeros) and equals the build's
        bit for bit; other cells may hold junk and are never read.  Cells
        with a negative coordinate are zeroed: the orthant boundary.
        """
        j = self._base(top)
        steps, lattice, k = self.model.steps, self._lattice, m - j
        if j == top:
            _, _, (lo, _), cells, at, (_, strides, offsets) = self._kept[j]
            at += sum([(c - k * t - l) // q * p for c, t, l, q, p in zip(
                point, steps[0], lo, lattice, strides)])
            return cells, at, 0, offsets, j
        neg, pos, _ = _extents(steps, lattice)
        box = _align(tuple([c - k * p for c, p in zip(point, pos)]),
                     tuple([c - k * q for c, q in zip(point, neg)]), self._windows[j][0], lattice)
        shape = _shape(box, lattice)
        _, strides, offsets = _layout(steps, lattice, shape[1:])
        size = shape[0] * strides[0]
        arr, exp, window = self._kept[j][:3]
        stack = np.empty((top - j + 1) * size, dtype=arr.dtype)
        stack[:size] = 0
        for _, into, out_of in _step_slices([(0,) * len(point)], window, box, lattice):
            stack[:size].reshape(shape)[into] = arr[out_of]
        plan = _plan(self._weights, offsets, 0, size, size)
        corner = box[0]
        with np.errstate(over="ignore", invalid="ignore"):  # junk off the cone may overflow
            for t in range(1, top - j + 1):
                layer = stack[t * size:(t + 1) * size]
                _sum_steps(layer, stack[(t - 1) * size:t * size], plan)
                corner = tuple(map(operator.add, corner, steps[0]))
                for axis, (c, q) in enumerate(zip(corner, lattice)):
                    if c < 0:
                        layer.reshape(shape)[(slice(None),) * axis + (slice(-(c // q)),)] = 0
                if self._totals[j + t][1] != exp:
                    layer *= 2.0 ** (exp - self._totals[j + t][1])
                    exp = self._totals[j + t][1]
        apex = [(c - l - k * t) // q for c, l, t, q in zip(point, box[0], steps[0], lattice)]
        return stack, k * size + sum(map(operator.mul, apex, strides)), size, offsets, j

    def _value(self, raw, exp: int, n: int) -> Count:
        """A count from a raw total, or from g(p, n) times a raw cell: an int when every weight
        is an integer, else a Fraction; an XFloat when scaled."""
        if self.mode == "scaled":
            return XFloat(float(raw), exp)
        if self._trivial:
            return raw
        num, den = self._per_layer
        value = Fraction(raw * num ** n if num != 1 else raw, den ** n)
        return value if self._unit != 1 else int(value)

    def _lift_axis(self, k: int, x: int, size: int, n: int) -> Optional[np.ndarray]:
        """g(p, n)'s factor on axis k at x, x + m, ... (`size` points, m the axis's spacing),
        None where alpha_k = 1: N_k**(x - l) * D_k**(h - x), with alpha_k = N_k / D_k and l
        and h the least and the greatest coordinate n steps reach from the start."""
        up, down = self._powers[k]
        if up is None and down is None or not size:
            return None
        (neg, pos), m = self._span, self._lattice[k]
        l, h = self.start[k] + n * neg[k], self.start[k] + n * pos[k]
        vec = 1 if up is None else up[x - l:x - l + m * size:m]
        return vec if down is None else vec * down[h - x - m * (size - 1):h - x + 1:m][::-1]

    def _lift(self, point: Vector, n: int) -> int:
        """g(point, n) = Lambda**n * alpha**(point - start), an integer where n steps reach."""
        return math.prod(int(v[0]) for k, x in enumerate(point)
                         if (v := self._lift_axis(k, x, 1, n)) is not None)

    def _lifted(self, arr: np.ndarray, corner: Vector, n: int) -> np.ndarray:
        """The cells g(p, n) * raw(p, n) of an array of layer n's cells from `corner` on."""
        for k, (x, size) in enumerate(zip(corner, arr.shape)):
            if (vec := self._lift_axis(k, x, size, n)) is not None:
                arr = arr * vec.reshape([-1 if j == k else 1 for j in range(arr.ndim)])
        return arr

    def _band(self, arr: np.ndarray, lo: Vector, n: int) -> int:
        """band(n) of `_boundary`: per class, its slab of the layer contracted with g."""
        out = 0
        for weight, fixed in self._classes:
            index, free = [], []
            for k, (c, l, m, q) in enumerate(zip(fixed, lo, self._lattice, self._span[0])):
                # a fixed coordinate c, or every cell with q_k >= -neg_k
                i, r = divmod(c - l, m) if c is not None else (max(0, -((l + q) // m)), 0)
                if r or not 0 <= i < arr.shape[k]:
                    break
                if c is None:
                    index.append(slice(i, None))
                    free.append((k, l + m * i))
                else:
                    index.append(i)
                    if (vec := self._lift_axis(k, c, 1, n)) is not None:
                        weight *= int(vec[0])
            else:
                part = arr[tuple(index)]
                for k, x in reversed(free):
                    if (vec := self._lift_axis(k, x, part.shape[-1], n)) is not None:
                        part = part.dot(vec)
                    else:  # Python sums a row of ints faster
                        part = sum(part.tolist()) if part.ndim == 1 else part.sum(axis=-1)
                out += weight * part
        return out

    def _check_n(self, n: int) -> None:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"length {n} outside the table range 0..{self.n_max}")

    def total(self, n: int) -> Count:
        """Weighted number of n-step walks ending anywhere in the orthant."""
        self._check_n(n)
        return self._value(*self._totals[n], n)

    def endpoint(self, end: Vector, n: int) -> Count:
        """Weighted number of n-step walks ending exactly at `end` (0 if absent)."""
        self._check_n(n)
        end = tuple(end)
        if len(end) != len(self.start):
            raise StepSetError("endpoint dimension mismatch")
        if end in self._tracked:
            raw, exp = self._tracked[end][n]
        elif not self._kept:
            raise ValueError(
                f"endpoint {end} was not tracked; pass track=[{end}] to count_walks")
        elif (index := _index(self._windows[n], end, self._lattice)) is None:
            raw, exp = 0, self._totals[n][1]
        else:
            stack, at = self._stretch(end, n, n)[:2]
            raw, exp = stack[at], self._totals[n][1]
        return self._value(raw * self._lift(end, n) if raw and not self._trivial else raw, exp, n)

    def layer(self, n: int) -> dict[Vector, Count]:
        """Endpoint -> count map of the nonzero entries of layer n; scaled entries are
        XFloats, and a scaled table has whole layers only if built with keep_layers."""
        self._check_n(n)
        arr, exp, window = self._replay(n)[:3]
        if not self._trivial:
            arr = self._lifted(arr, window[0], n)
        nonzero = np.nonzero(arr)
        points = zip(*((m * i + l).tolist() for i, l, m in zip(nonzero, window[0], self._lattice)))
        return {p: self._value(c, exp, n) for p, c in zip(points, arr[nonzero].tolist())}

def _layers(model: StepSet, start: Vector, n_max: int, mode: str,
            guard: int = DEFAULT_GUARD,
            keep: Callable[[int], bool] = lambda n: True) -> Iterator[tuple]:
    """Layers 0..n_max from `start` as (n, `Layer`, raw total), the total scaled only (None
    in exact mode, where `WalkTable` takes it from the boundary identity).

    Raw exact cells are L**n times the weighted counts.  Layer n goes into a
    buffer of its own when keep(n), else into one of two spare buffers, both
    sized once for the largest padded layer.  Building it holds layer n-1
    and layer n's untrimmed window: more than `guard` cells raise.
    """
    weights, _ = _kernel_weights(model, mode)
    steps, lattice = model.steps, _lattice(model.steps)
    dtype = float if mode == "scaled" else object
    # layer 0 is the start cell, in the rows the step to layer 1 picks for it
    ones = [1] * model.dimension
    rows = _pitch([0] * (model.dimension - 1), ones, _shape(_reach(steps, lattice, (start, start)),
                                                            lattice), _extents(steps, lattice)[2])
    arr = _zero_ghosts(np.ones(math.prod(rows), dtype).reshape(1, *rows), ones)
    cells, exp, window, at, spares = arr.base, 0, (start, start), 0, []
    layout = _layout(steps, lattice, rows)
    # A scaled layer's cells end below 2**512, so no product, cell or layer sum can overflow
    # unless the weights sum to 2**256 or more; only then is the finite check the report.
    quiet = mode == "scaled" and sum(weights) >= 2.0 ** 256
    for n in range(n_max + 1):
        with np.errstate(over="ignore", invalid="ignore") if quiet else _LOUD:
            if n:
                reach = _reach(steps, lattice, window)
                shape = _shape(reach, lattice)
                held = arr.size + math.prod(shape)
                if held > guard:
                    raise ResourceGuardError(f"{mode} layers {n - 1} and {n} hold "
                                             f"{held} cells, over the guard of {guard}")
                kept = keep(n)
                if not kept and not spares:
                    spares = _spares(steps, lattice, start, n_max, dtype)
                arr, cells, layout = _advance_layer(arr, cells, at, layout, steps, weights, window,
                                                    reach, shape, lattice, () if kept else spares)
                arr, window = _trim(arr, reach, lattice)
                if window[0] != reach[0]:  # where _trim left arr
                    at = sum([(l - r) // q * p for l, r, q, p in zip(
                        window[0], reach[0], lattice, layout[1])])
                else:
                    at = 0
            # all rows, ghosts included (and _trim's zero faces); an exact table sums the boundary
            total = cells.sum() if mode == "scaled" else None
            # max <= computed sum <= 2 * cells * max, so a sum in range clears the max
            if mode == "scaled" and not arr.size * _NORM_FLOOR <= total <= _NORM_LIMIT:
                peak = float(cells.max(initial=0.0))
                if not math.isfinite(peak):
                    raise OverflowError(f"scaled layer {n} left the float64 range")
                if peak > _NORM_LIMIT:
                    cells *= 2.0 ** -_NORM_SHIFT
                    exp += _NORM_SHIFT
                elif 0.0 < peak < 1.0 / _NORM_LIMIT:
                    cells *= 2.0 ** _NORM_SHIFT
                    exp -= _NORM_SHIFT
                total = cells.sum()
        yield n, (arr, exp, window, cells, at, layout), total


def _lattice(steps) -> Vector:
    """Per-axis spacing m_k = gcd_s(s_k - s0_k) of the points one layer can occupy."""
    return tuple(math.gcd(*(c - col[0] for c in col)) or 1 for col in zip(*steps))


def _align(lo: Vector, hi: Vector, coset: Vector, lattice: Vector) -> Window:
    """The box [lo, hi] shrunk on every axis to the points congruent to `coset`."""
    return (tuple(l + (r - l) % m for l, r, m in zip(lo, coset, lattice)),
            tuple(h - (h - r) % m for h, r, m in zip(hi, coset, lattice)))


def _reach_axis(l: int, h: int, q: int, p: int, t: int, m: int) -> tuple[int, int]:
    """One axis of `_reach`: the window [l, h] moved by steps from q to p on the axis,
    clipped at 0 and aligned to the coset l + t (mod m) of the step steps[0] = t."""
    a, b, r = (l + q if l + q > 0 else 0), h + p, l + t
    return a + (r - a) % m, b - (b - r) % m


def _reach(steps, lattice: Vector, window: Window) -> Window:
    """The next layer's window: what one step from `window` reaches in the orthant."""
    neg, pos, _ = _extents(steps, lattice)
    lo, hi = zip(*map(_reach_axis, *window, neg, pos, steps[0], lattice))
    return lo, hi


def _window_cells(steps, lattice: Vector, start: Vector, n_max: int) -> list[int]:
    """The cells of each window of layers 0..n_max in a build that drops no zero faces:
    `_reach` iterated from `start` one axis at a time (the clip at 0 allows no closed form)."""
    neg, pos, _ = _extents(steps, lattice)
    cells = [1] * (n_max + 1)
    for l, q, p, t, m in zip(start, neg, pos, steps[0], lattice):
        h = l
        for n in range(1, n_max + 1):
            l, h = _reach_axis(l, h, q, p, t, m)
            cells[n] *= (h - l) // m + 1 if h >= l else 0
    return cells


def _index(window: Window, point: Vector, lattice: Vector) -> Optional[tuple[int, ...]]:
    """The index of `point` in an array over `window`, None off the window's lattice points."""
    index = []
    for c, l, h, m in zip(point, *window, lattice):
        q, r = divmod(c - l, m)
        if r or not l <= c <= h:
            return None
        index.append(q)
    return tuple(index)


@functools.cache
def _faces(ndim: int) -> list[tuple]:
    """Per axis k: the indices of an array's first and last faces across k, and of the
    array less each of them."""
    return [((slice(None),) * k + (0, ...), (slice(None),) * k + (-1, ...),
             (slice(None),) * k + (slice(1, None),), (slice(None),) * k + (slice(-1),))
            for k in range(ndim)]


def _trim(arr: np.ndarray, window: Window, lattice: Vector) -> tuple[np.ndarray, Window]:
    """Drop the all-zero faces of `arr`, keeping at least one cell per axis."""
    lo, hi = window
    # `...` keeps a face an array in 1-D, where an object cell is a Python int
    for k, (first, last, rest, front) in enumerate(_faces(arr.ndim)):
        while arr.shape[k] > 1 and not np.count_nonzero(arr[first]):
            arr, lo = arr[rest], lo[:k] + (lo[k] + lattice[k],) + lo[k + 1:]
        while arr.shape[k] > 1 and not np.count_nonzero(arr[last]):
            arr, hi = arr[front], hi[:k] + (hi[k] - lattice[k],) + hi[k + 1:]
    return arr, (lo, hi)


def _shape(window: Window, lattice: Vector) -> list[int]:
    """Array shape of a window whose corners lie on the same lattice coset."""
    return [(h - l) // m + 1 if h >= l else 0 for l, h, m in zip(*window, lattice)]


def _step_slices(steps, src: Window, dst: Window,
                 lattice: Vector) -> Iterator[tuple[int, tuple, tuple]]:
    """(i, into, out_of) for each step s_i that takes cells of `src` into `dst`.

    The cells p at `into` of an array over dst are the cells p - s_i at
    `out_of` of one over src.  Windows lie on their cosets: bounds divide exactly.
    """
    (slo, shi), (dlo, dhi) = src, dst
    for i, s in enumerate(steps):
        into, out_of = [], []
        for k, (c, m) in enumerate(zip(s, lattice)):
            a, b = max(dlo[k], slo[k] + c), min(dhi[k], shi[k] + c)
            if a > b:
                break
            into.append(slice((a - dlo[k]) // m, (b - dlo[k]) // m + 1))
            out_of.append(slice((a - c - slo[k]) // m, (b - c - slo[k]) // m + 1))
        else:
            yield i, tuple(into), tuple(out_of)


@functools.cache
def _extents(steps, lattice: Vector) -> tuple[Vector, Vector, Vector]:
    """Per axis: min(0, s_k) and max(0, s_k) over the steps, and the ghost cells per row,
    (max(0, s_k) - min(0, s_k)) / m_k: how far outside the old window a read p - s can lie."""
    cols = list(zip(*steps))
    neg, pos = tuple(min(0, *c) for c in cols), tuple(max(0, *c) for c in cols)
    return neg, pos, tuple((p - q) // m for q, p, m in zip(neg, pos, lattice))


def _spares(steps, lattice: Vector, start: Vector, n_max: int, dtype) -> list[np.ndarray]:
    """Two buffers, each as large as any layer up to n_max at the widest rows `_pitch` picks.

    Layer n's window lies in [max(0, start + n min s), start + n max s], which grows with n.
    """
    neg, pos, ghosts = _extents(steps, lattice)
    extents = [(c + n_max * p - max(0, c + n_max * q)) // m + 1
               for c, q, p, m in zip(start, neg, pos, lattice)]
    size = extents[0] * math.prod(e + (1 + _SPARE_LAYERS) * g
                                  for e, g in zip(extents[1:], ghosts[1:]))
    return [np.empty(size, dtype=dtype) for _ in range(2)]


def _pitch(lengths: list[int], old: Sequence[int], new: Sequence[int],
           ghosts: Vector) -> list[int]:
    """Row lengths on axes 1.. for a step from a layer of shape `old` to one of shape `new`.

    The current `lengths` serve while they hold both layers with their ghosts
    and are at most twice a new layout, which leaves room for _SPARE_LAYERS
    layers of growth.
    """
    fits, want = True, []
    for r, a, b, g in zip(lengths, old[1:], new[1:], ghosts[1:]):
        need = (a if a > b else b) + g
        want.append(need + _SPARE_LAYERS * g)
        fits = fits and need <= r <= 2 * want[-1]
    return lengths if fits else want


def _pad(size: int, dtype, out: Sequence[np.ndarray], busy: Optional[np.ndarray]) -> np.ndarray:
    """`size` uninitialized cells: the start of the first buffer of `out` not `busy`, or new."""
    for buf in out:
        if buf is not busy:
            return buf[:size]
    return np.empty(size, dtype=dtype)


def _zero_ghosts(pad: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """Zero every cell of `pad` outside its leading `shape` box; return the box."""
    for k in range(1, pad.ndim):
        pad[(slice(None),) * k + (slice(shape[k], None),)] = 0
    return pad[tuple(map(slice, shape))]


def _layout(steps, lattice: Vector, rows: Sequence[int]) -> tuple[list, list, list]:
    """Row lengths on axes 1.., the strides in cells of an array with those rows, and each
    step's flat offset D_s = (s - steps[0]) / m there, the same for every layer it holds."""
    strides = list(itertools.accumulate(reversed(rows), operator.mul, initial=1))[::-1]
    return list(rows), strides, [sum([(c - t) // q * p for c, t, q, p in zip(
        s, steps[0], lattice, strides)]) for s in steps]


def _plan(weights, offsets: Sequence[int], shift: int, size: int, read: int) -> list[tuple]:
    """The flat range of each step, as (w_s, a, b, c).

    Cell f of a flat layer of `size` cells reads cell f + shift - D_s of a
    flat layer of `read` cells for step s (`offsets` holds D_s).  Cells a..b-1
    collect w_s times the cells from c on: the cells whose read lies inside.
    """
    plan = []
    for w, d in zip(weights, offsets):
        c = shift - d
        a, b = (-c if c < 0 else 0), (read - c if read - c < size else size)
        if a < b:
            plan.append((w, a, b, c + a))
    return plan


def _sum_steps(flat: np.ndarray, cells: np.ndarray, plan: list[tuple]) -> None:
    """The transfer kernel: flat[a:b] collects w * cells[c:c + b - a] for each (w, a, b, c)
    of `plan`, in plan order; the first range assigns, and the cells it misses are zeroed."""
    if not plan:
        flat[...] = 0
        return
    w, a, b, c = plan[0]
    if a:
        flat[:a] = 0
    if b < flat.size:
        flat[b:] = 0
    if w == 1:
        flat[a:b] = cells[c:c + b - a]
    else:
        np.multiply(cells[c:c + b - a], w, out=flat[a:b])
    for w, a, b, c in plan[1:]:
        part, cell = cells[c:c + b - a], flat[a:b]
        cell += part if w == 1 else w * part


def _advance_layer(arr: np.ndarray, cells: np.ndarray, at: int, layout: tuple, steps, weights,
                   src: Window, dst: Window, shape: list[int], lattice: Vector,
                   out: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One transfer step of the orthant-restricted recurrence on row-padded layers.

    Cell p of the new layer (window dst, array shape `shape`) collects w_s
    times cell p - s of the old one, `arr` at index `at` of `cells` (its
    written rows, laid out by `layout`), for every step s in step order.
    Both take the same rows (arr is first copied to longer ones when dst
    outgrows them), so step s is one flat offset over every cell whose read
    lies in `cells`.  Off the old window a read lands on a ghost (a row has
    as many as a step can read outside it) or on a zero face `_trim`
    dropped, so it adds an exact zero.  The ghosts the steps wrote are zeroed
    after.  The result, and such a copy, start a buffer of `out` that does
    not hold the layer read, or a new one.  Returns the result, all of its
    rows as a flat array, and their layout.
    """
    rows, strides, offsets = layout
    pitch = _pitch(rows, arr.shape, shape, _extents(steps, lattice)[2])
    if pitch != rows:
        layout = rows, strides, offsets = _layout(steps, lattice, pitch)
        cells = _pad(arr.shape[0] * strides[0], arr.dtype, out, arr.base)
        padded = cells.reshape(-1, *pitch)
        padded[tuple(map(slice, arr.shape))] = arr
        arr, at = _zero_ghosts(padded, arr.shape), 0
    flat = _pad(shape[0] * strides[0], arr.dtype, out, arr.base)
    shift = at + sum([(e - l - t) // q * p for e, l, t, q, p in zip(
        dst[0], src[0], steps[0], lattice, strides)])
    _sum_steps(flat, cells, _plan(weights, offsets, shift, flat.size, cells.size))
    return _zero_ghosts(flat.reshape(shape[0], *pitch), shape), flat, layout


def count_walks(model: StepSet, start: Sequence[int], n_max: int,
                mode: str = "exact", *,
                track: Iterable[Sequence[int]] = (),
                keep_layers: bool = False,
                guard: int = DEFAULT_GUARD) -> WalkTable:
    """Build the layered counting table for walks from `start` up to length n_max; exact
    tables always keep checkpoints, and keep_layers makes a scaled table keep them too."""
    return WalkTable(model, tuple(start), n_max, mode, guard=guard,
                     track=[tuple(p) for p in track], keep_layers=keep_layers)


def brute_force_count(model: StepSet, start: Sequence[int], n: int,
                      guard: int = BRUTE_FORCE_GUARD) -> dict[Vector, Union[int, Fraction]]:
    """Independent oracle: enumerate every step sequence, pruning out-of-orthant prefixes."""
    if model.size ** n > guard:
        raise ResourceGuardError(f"brute force would enumerate {model.size}**{n} sequences")
    start = tuple(start)
    if len(start) != model.dimension:
        raise StepSetError("start point dimension mismatch")
    if any(isinstance(c, bool) for c in start):
        raise StepSetError("start point coordinates must be ints, not bools")
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
    read whole through `_replay` (the table keeps that pick's cumulative
    weights for the last n drawn), then repeatedly pick the previous point.
    Both modes read every layer below n through `_stretch`.  At a kept layer
    it reads in place.  Between checkpoints it replays one stretch over one
    box, the backward cone of the walk's point, with its layers stacked in
    one array; a step then moves the walk's index by one constant per step.
    An exact draw first replays a missing layer whole through `_replay`,
    which keeps it and the layers below it down to the checkpoint, so all of
    them are read in place and later draws replay nothing.  A scaled draw
    keeps nothing.  Exact tables draw with `randrange` over integer
    cumulative weights, so every choice is exact; scaled tables draw from
    float64 cumulative weights with relative bias below n * 2**-50.
    """
    table._check_n(n)
    rng = random.Random(seed)
    ratio = 1
    if not table._trivial:  # a draw weighs a count, g(p, n) * raw(p, n) * (num/den)**n, by L**n
        num, den = table._per_layer
        ratio = Fraction(table._unit * num, den) ** n
    if table._first is None or table._first[0] != n:
        arr, _, window = table._replay(n)[:3]
        if not table._trivial:
            arr = table._lifted(arr, window[0], n)
            if ratio != 1:
                arr = arr * ratio.numerator // ratio.denominator
        cells = np.flatnonzero(arr)
        table._first = (n, cells, np.cumsum(arr.ravel()[cells]), arr.shape, window[0])
    _, cells, cumulative, shape, lo = table._first
    index = np.unravel_index(cells[_pick(rng, cumulative)], shape)
    point = tuple(l + q * int(i) for l, q, i in zip(lo, table._lattice, index))
    steps, weights = table.model.steps, table._weights
    # A step back by s_i from `point` at layer m weighs L w_i times the count below, which is
    # `unit` = L**m beta**m alpha**(point - start) over L w_i times the raw cell: the draw
    # weighs the raw cells by `unit` times the kernel's weights, and unit moves by units[i].
    unit, units = 1, [1] * len(steps)
    if not table._trivial:
        unit = table._lift(point, n) * ratio.numerator // ratio.denominator
        units = [int(w * table._unit) // k for w, k in zip(table.model.weights, weights)]
    steps_taken: list[Vector] = []
    # cells.item(at - offsets[i]) is the count at point - steps[i] one layer down, for
    # every layer from `low` up; after step i the index moves down by size + offsets[i]
    low = n
    for m in range(n, 0, -1):
        if m - 1 < low:
            if m - 1 not in table._kept and table.mode == "exact":
                table._replay(m - 1)  # keeps it and the layers down to the checkpoint
            cells, at, size, offsets, low = table._stretch(point, m, m - 1)
            at -= size
        total, candidates, cumulative = 0, [], []
        for i, (d, w) in enumerate(zip(offsets, weights)):
            count = cells.item(at - d) if 0 <= at - d < cells.size else 0
            if count > 0:
                total += w * count
                candidates.append(i)
                cumulative.append(total)
        i = candidates[_pick(rng, cumulative, unit)]
        unit //= units[i]
        steps_taken.append(steps[i])
        point = tuple(map(operator.sub, point, steps[i]))
        at -= size + offsets[i]
    return Walk(table.start, tuple(reversed(steps_taken)))


def _pick(rng: random.Random, cumulative: Sequence, unit: int = 1) -> int:
    """Index i drawn with probability (cumulative[i] - cumulative[i - 1]) / cumulative[-1].

    Integer weights are drawn as `unit` times themselves: r < unit * c
    exactly when r // unit < c, so the draw is that over the products.
    """
    total = cumulative[-1] if len(cumulative) else 0
    if not total > 0:
        raise ValueError("cannot sample from an empty layer")
    r = rng.randrange(total * unit) // unit if isinstance(total, int) else rng.random() * total
    return min(bisect.bisect_right(cumulative, r), len(cumulative) - 1)
