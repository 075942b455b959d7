"""Time counting layers, a scaled draw and exact-table reads, for one or two checkouts.

Usage:

    python tools/layer_cost.py CHECKOUT [CHECKOUT] [--rounds R]

Each checkout's package is imported from CHECKOUT/src under a name of its own,
so two checkouts run in this one process, in alternating rounds: round r times
the first checkout first when r is even and the second first when r is odd.
Every figure is a median over the rounds:

* `layer_us`: microseconds per layer of GB(1,1) tables from the origin to
  n = 40, scaled and exact (the build's time over 40 layers, median of 20
  builds per round).  Layers this small cost their bookkeeping, not their
  cells.
* `build_ms`: the scaled GB(1,1) build to n = 600 with keep_layers, tracking
  the origin, as the `scaled-sample` benchmark workload builds it.
* `draw_ms`: one scaled draw at n = 600 from that table, median of 5 draws
  per round, each with a seed not drawn before.
* `exact_layers_ms`: every `layer(n)` of a new exact GB(1,1) table from the
  origin to n = 150, the table the `exact-algebra` workload builds.
* `exact_replay_ms`: `_replay(n)` for every n of another new table like it:
  the same layers as `exact_layers_ms`, without building the dicts that
  `layer(n)` returns.
* `exact_draw_ms`: 100 draws at n = 120 from another new table like it, as
  the `exact-algebra` workload draws them, each with a seed not drawn before.
* `endpoint_ms`: the 151 untracked origin reads of another new table like
  it, as the `exact-algebra` workload's check makes them.
* `harmonic_ms`: `check_harmonicity` at grid 30 on the nine GB class
  representatives, as the `exact-algebra` workload runs it.
* `exact_build_ms`: the exact GB(1,1) build from the origin to n = 300.
* `exact_weighted_ms`: the exact GB(2/3, 5/7) build from the origin to
  n = 300.  Its ratio to `exact_build_ms` is what a weighting costs over
  unit weights.

Each timed call runs with the garbage collector collected and then disabled,
so no collection lands inside a reading.

With two checkouts the last column is the second's median over the first's.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import statistics
import sys
import time
from fractions import Fraction as F
from pathlib import Path

TINY_N, TINY_BUILDS = 40, 20
DRAW_N, DRAWS = 600, 5
EXACT_N, EXACT_DRAW_N, EXACT_DRAWS = 150, 120, 100
BUILD_N, WEIGHTED = 300, (F(2, 3), F(5, 7))
# bench/workloads.py's CLASS_REPS: one (a, b) per GB class
CLASS_REPS = ((1, 1), (2, 3), (F(1, 2), F(1, 2)), (1, 4), (3, 2), (2, 2), (2, 4),
              (1, F(1, 2)), (F(1, 2), 1))


def load(checkout: Path, name: str):
    """The package under CHECKOUT/src/orthantwalks, imported as `name`."""
    package = checkout.resolve() / "src" / "orthantwalks"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def clock(call) -> float:
    gc.collect()
    gc.disable()
    try:
        begin = time.perf_counter()
        call()
        return time.perf_counter() - begin
    finally:
        gc.enable()


def measure(ow, seeds) -> dict[str, float]:
    gb = ow.builtin_model("gb", 1, 1)
    out = {}
    for mode in ("scaled", "exact"):
        times = [clock(lambda: ow.count_walks(gb, (0, 0), TINY_N, mode))
                 for _ in range(TINY_BUILDS)]
        out[f"layer_us {mode}"] = statistics.median(times) / TINY_N * 1e6
    table = []
    out["build_ms"] = 1e3 * clock(lambda: table.append(ow.count_walks(
        gb, (0, 0), DRAW_N, "scaled", track=[(0, 0)], keep_layers=True)))
    ow.sample_walk(table[0], DRAW_N, next(seeds))  # the first draw keeps the first pick
    out["draw_ms"] = 1e3 * statistics.median(
        clock(lambda: ow.sample_walk(table[0], DRAW_N, next(seeds))) for _ in range(DRAWS))
    exact = ow.count_walks(gb, (0, 0), EXACT_N, "exact")
    out["exact_layers_ms"] = 1e3 * clock(lambda: [exact.layer(n) for n in range(EXACT_N + 1)])
    exact = ow.count_walks(gb, (0, 0), EXACT_N, "exact")
    out["exact_replay_ms"] = 1e3 * clock(lambda: [exact._replay(n) for n in range(EXACT_N + 1)])
    exact = ow.count_walks(gb, (0, 0), EXACT_N, "exact")
    draws = list(itertools.islice(seeds, EXACT_DRAWS))
    out["exact_draw_ms"] = 1e3 * clock(
        lambda: [ow.sample_walk(exact, EXACT_DRAW_N, seed) for seed in draws])
    exact = ow.count_walks(gb, (0, 0), EXACT_N, "exact")
    out["endpoint_ms"] = 1e3 * clock(
        lambda: [exact.endpoint((0, 0), n) for n in range(EXACT_N + 1)])
    reps = [ow.gb.GBParams(a, b) for a, b in CLASS_REPS]
    out["harmonic_ms"] = 1e3 * clock(lambda: [ow.gb.check_harmonicity(p, 30) for p in reps])
    out["exact_build_ms"] = 1e3 * clock(lambda: ow.count_walks(gb, (0, 0), BUILD_N, "exact"))
    weighted = ow.builtin_model("gb", *WEIGHTED)
    out["exact_weighted_ms"] = 1e3 * clock(
        lambda: ow.count_walks(weighted, (0, 0), BUILD_N, "exact"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    if len(args.checkouts) > 2:
        parser.error("give one or two checkouts")
    packages = [load(c, f"orthantwalks_{i}") for i, c in enumerate(args.checkouts)]
    seeds = itertools.count(1)
    runs: list[list[dict]] = [[] for _ in packages]
    for r in range(args.rounds):
        order = range(len(packages)) if r % 2 == 0 else reversed(range(len(packages)))
        for i in order:
            runs[i].append(measure(packages[i], seeds))
    names = list(runs[0][0])
    medians = [{k: statistics.median(run[k] for run in side) for k in names} for side in runs]
    print(f"{'metric':<18}" + "".join(f"{str(c):>24}" for c in args.checkouts)
          + ("     ratio" if len(packages) == 2 else ""))
    for k in names:
        row = f"{k:<18}" + "".join(f"{m[k]:>24.3f}" for m in medians)
        if len(packages) == 2:
            row += f"{medians[1][k] / medians[0][k]:>10.3f}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
