"""Time counting layers, a scaled draw, exact-table reads and classification, for one or two checkouts.

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
* `diagram_ms`: `drift_diagram` over the tandem 60 x 60 grid of the
  `class-sweep` benchmark workload at seed 1.
* `gb_points_ms`: `gb_critical_points` and `gb_contributing` on each cell of
  that workload's GB 30 x 30 grid.
* `classify_ms`: `classify` with on_ambiguity="report" on that workload's 300
  weighted king sets, each parsed from its JSON text as the workload does.

Before each of the last three calls every `functools` cache of the package
(`_dual_cone_nontrivial`, `_central_rule` and `_base_solve` among them) is
cleared, so the exact step-set checks run cold, as in a fresh benchmark
worker.

Each timed call runs with the garbage collector collected and then disabled,
so no collection lands inside a reading.

With two checkouts the last column is the second's median over the first's.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import random
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
# bench/workloads.py's KING and RATIONAL, for the class-sweep inputs at seed 1
KING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
RATIONAL = tuple(sorted({F(p, q) for p in range(1, 6) for q in range(1, 6)}))
SWEEP_SEED, SWEEP_SETS = 1, 300


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


def sweep_inputs(ow) -> tuple[tuple[list, list], list, list]:
    """The class-sweep workload's tandem grid, GB grid and king-set JSON texts.

    Drawn in the workload's order from its seeded generator; a king set is
    kept when its steps fit no closed half-plane.
    """
    rng = random.Random(f"class-sweep/{SWEEP_SEED}")
    grids = []
    for step, count in ((F(1, 15), 60), (F(1, 15), 60), (F(2, 15), 30), (F(2, 15), 30)):
        lo = F(rng.randint(1, 4), 20)
        grids.append([lo + step * k for k in range(count)])
    tandem_a, tandem_b, gb_a, gb_b = grids
    sets = []
    while len(sets) < SWEEP_SETS:
        steps = tuple(rng.sample(KING, 3 + len(sets) % 6))
        if not ow.is_singular(ow.make_stepset(steps, [1] * len(steps))):
            sets.append(steps)
    texts = []
    for steps in sets:
        weights = [rng.choice(RATIONAL) for _ in steps]
        texts.append(json.dumps({"dimension": 2, "steps": [
            {"v": list(s), "w": str(w)} for s, w in zip(steps, weights)]}))
    return (tandem_a, tandem_b), [(a, b) for a in gb_a for b in gb_b], texts


def clock_cold(ow, call) -> float:
    """clock(call) after clearing every `functools` cache of the package."""
    for name, module in list(sys.modules.items()):
        if name.startswith(f"{ow.__name__}."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    return clock(call)


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
    tandem_grid, gb_cells, texts = sweep_inputs(ow)
    out["diagram_ms"] = 1e3 * clock_cold(ow, lambda: ow.drift_diagram(
        lambda a, b: ow.builtin_model("tandem", a, b), *tandem_grid))
    out["gb_points_ms"] = 1e3 * clock_cold(ow, lambda: [
        (ow.gb_critical_points(a, b), ow.gb_contributing(a, b)) for a, b in gb_cells])
    out["classify_ms"] = 1e3 * clock_cold(ow, lambda: [
        ow.classify(ow.stepset_from_json(text), on_ambiguity="report") for text in texts])
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
