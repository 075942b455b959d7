"""Layer spans recorded from outside the library.

`LayerTracer.install()` replaces every public function of each layer module,
and every public method of the classes those modules define, by a wrapper
that opens a span for the layer.  The replacement is made on every
orthantwalks module that holds a reference, so calls from one layer into
another are seen too.  A call into the layer that is already open adds no
span: `calls` counts entries into a layer from outside it, and a layer's
self time is its spans' time minus the time of the spans they contain.
`xfloat` is not wrapped; its time counts toward the layer that calls it.

Bookkeeping the benchmark does inside a span (counting table entries) runs
in a span of its own, so it is excluded from every layer's self time and
shows only in the traced wall time.

Spans are timed with the tracer's `clock`; the worker passes the speed
probe's clock, which stops while a probe chunk runs.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from typing import Callable

LAYERS = ("stepset", "counting", "central", "relations", "gb", "classify",
          "conjecture", "validate", "cli")
PACKAGE = "orthantwalks"
BENCH = "bench"


class LayerTracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.stack: list[list] = []  # [layer, time spent in contained spans]
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(
            ("scaled_build_s", "exact_build_s", "cell_updates", "bytes_computed",
             "exact_entries", "samples", "sample_s", "nullspace_s"), 0)
        self._patches: list[tuple[object, str, object]] = []
        self._supports: dict[tuple, tuple[list[int], set]] = {}
        self._hooks = {("counting", "count_walks"): self._after_count_walks,
                       ("counting", "sample_walk"): self._after_sample_walk,
                       ("conjecture", "conjecture2_nullspace"): self._after_nullspace}

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, attr, self._wrap(layer, attr, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == PACKAGE
                                      or module_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)].__wrapped__ is obj:
                    self._patch(module, name, wrappers[id(obj)])
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        hook = self._hooks.get((layer, name))
        signature = inspect.signature(fn) if hook else None
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            span = [layer, 0.0]
            stack.append(span)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - span[1]
                self.inclusive_s[layer] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._bookkeeping(hook, bound.arguments, result, elapsed)
            return result

        return wrapper

    def _bookkeeping(self, hook, arguments, result, elapsed) -> None:
        span = [BENCH, 0.0]
        self.stack.append(span)
        self.enabled = False
        start = self.clock()
        try:
            hook(arguments, result, elapsed)
        finally:
            self.enabled = True
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += self.clock() - start

    def _after_count_walks(self, args, table, elapsed) -> None:
        steps, start, n_max = args["model"].steps, tuple(args["start"]), args["n_max"]
        if args["mode"] == "scaled":
            updates, traffic = scaled_work(steps, start, n_max)
            self.counters["scaled_build_s"] += elapsed
            self.counters["cell_updates"] += updates
            self.counters["bytes_computed"] += traffic
        else:
            self.counters["exact_build_s"] += elapsed
            self.counters["exact_entries"] += sum(self._support_sizes(steps, start, n_max))

    def _support_sizes(self, steps, start, n_max: int) -> list[int]:
        """Points reachable in n steps inside the orthant, for n = 0..n_max.

        With positive weights these are exactly the entries of exact layer n,
        so the table itself need not be read.
        """
        sizes, frontier = self._supports.get((steps, start), ([1], {start}))
        while len(sizes) <= n_max:
            frontier = {t for p in frontier for s in steps
                        if min(t := tuple(a + b for a, b in zip(p, s))) >= 0}
            sizes.append(len(frontier))
        self._supports[steps, start] = (sizes, frontier)
        return sizes[:n_max + 1]

    def _after_sample_walk(self, args, walk, elapsed) -> None:
        self.counters["samples"] += 1
        self.counters["sample_s"] += elapsed

    def _after_nullspace(self, args, report, elapsed) -> None:
        self.counters["nullspace_s"] += elapsed


def scaled_work(steps, start, n_max: int) -> tuple[int, int]:
    """Computed work of a scaled table build: (cell updates, bytes).

    Layer n's window is the bounding box of the points reachable in n steps,
    clipped to the orthant and to the table's box.  Each window cell takes one
    update per step; the bytes are one float64 read of the previous window and
    one write of the new window per layer, a lower bound that ignores caches.
    """
    d = len(start)
    pos = [max(0, max(s[k] for s in steps)) for k in range(d)]
    neg = [max(0, max(-s[k] for s in steps)) for k in range(d)]
    shape = [start[k] + n_max * pos[k] + 1 for k in range(d)]
    lo, hi = list(start), list(start)
    prev_cells, updates, traffic = 1, 0, 0
    for _ in range(n_max):
        lo = [max(0, lo[k] - neg[k]) for k in range(d)]
        hi = [min(shape[k] - 1, hi[k] + pos[k]) for k in range(d)]
        cells = math.prod(h - l + 1 for l, h in zip(lo, hi))
        updates += len(steps) * cells
        traffic += 8 * (prev_cells + cells)
        prev_cells = cells
    return updates, traffic
