"""Benchmark entry point: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition of the workload runs in a fresh process (bench/worker.py),
one after another, until S seconds have passed.  Before each repetition a
few extra processes only set up, so that setup_s has more samples.  Each is
paired with a process that only imports numpy, started just before it, and
set-up time is reported in units of that import time (see bench/README.md).  With --trace 0 the repetitions
run untraced and the result holds the end-to-end metrics.  With --trace 1
traced and untraced repetitions alternate and the result holds the
per-layer metrics, the tracing overhead among them.  Times are rescaled
to a reference host speed measured while the jobs run (probe.py).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit status is 0
when a result was printed, 1 when a repetition crashed or overran, and 2
when the checkout holds no orthantwalks sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)

from probe import KINDS  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

SETUP_SPAWNS_PER_REPETITION = 6
# Interpreter start and the numpy import are about 70% of set-up time, and
# they drift with the host by up to 30% between sets of runs, unlike the
# probe chunks.  A process that does only that, timed like a set-up, gives
# the host's speed at set-up; set-up time is rescaled to a host on which it
# takes REFERENCE_NUMPY_IMPORT_S.
NUMPY_IMPORT = ("import json, sys, time; import numpy; print(json.dumps("
                "{'setup_s': time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1])}))")
REFERENCE_NUMPY_IMPORT_S = 0.2
TIME_LIMIT_S = 170  # every process of one run, so the run ends within 180 s

END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple(
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("counting.cell_updates", "count"), ("counting.cell_updates_per_s", "1/s"),
       ("counting.bytes_computed", "B"), ("counting.exact_entries", "count"),
       ("counting.exact_entries_per_s", "1/s"), ("counting.samples", "count"),
       ("counting.sample_s", "s"), ("conjecture.rows", "count"),
       ("conjecture.rows_per_s", "1/s"), ("classify.cells", "count"),
       ("classify.cells_per_s", "1/s"), ("classify.ambiguous", "count"),
       ("validate.passed", "count"), ("bench.trace_overhead_frac", "frac"),
       ("bench.known_defects", "count"), ("fail_frac", "frac"),
       ("bench.wall_s", "s"), ("bench.setup_raw_s", "s"),
       ("bench.speed_python", "ratio"), ("bench.speed_numpy", "ratio")])


class BenchError(RuntimeError):
    pass


def spawn(args: list, what: str, deadline: float) -> dict:
    """Run one Python process to completion and return the JSON object it printed last.

    Its last argument is the CLOCK_MONOTONIC reading taken just before it started.
    """
    remaining = deadline - time.clock_gettime(time.CLOCK_MONOTONIC)
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, *args, repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} process overran the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"{what} process exited with {proc.returncode}")
    if err:
        sys.stderr.write(err)
    return json.loads(out.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    deadline = start + TIME_LIMIT_S
    setups, setups_norm, runs, traces = [], [], [], []

    def worker(mode: str) -> dict:
        return spawn([WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
                      "--spawned-at"], f"{mode} process of {workload}", deadline)

    while True:
        for _ in range(SETUP_SPAWNS_PER_REPETITION):
            numpy_import = spawn(["-c", NUMPY_IMPORT], "numpy import", deadline)["setup_s"]
            setup = worker("setup")["setup_s"]
            setups.append(setup)
            setups_norm.append(setup * REFERENCE_NUMPY_IMPORT_S / numpy_import)
        mode = "trace" if trace and len(traces) < len(runs) else "run"
        (traces if mode == "trace" else runs).append(worker(mode))
        elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - start
        if elapsed >= seconds and (traces or not trace):
            break
    return {"setups": setups, "setups_norm": setups_norm, "runs": runs, "traces": traces}


def wall_s(reports: list, key: str = "wall_norm_s") -> float:
    return median([r[key] for r in reports])


def median(values):
    return statistics.median(values) if values else 0


def ratio(num, den) -> float:
    return num / den if den else 0.0


def end_to_end(m: dict) -> dict:
    return {"setup_s": median(m["setups_norm"]),
            "wall_norm_s": wall_s(m["runs"]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in m["runs"]])}


def per_layer(m: dict, attempted: int, failed: int, defects: int) -> dict:
    """Medians over the traced repetitions; rates are taken per repetition."""
    traces = m["traces"]

    def med(get) -> float:
        return median([get(t) for t in traces])

    def traced(key: str) -> float:
        return med(lambda t: t["trace"]["counters"][key])

    def checked(key: str) -> float:
        return med(lambda t: t["counters"].get(key, 0))

    def rate(work, seconds) -> float:
        return med(lambda t: ratio(work(t), seconds(t)))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = med(lambda t: t["trace"]["calls"][layer])
        out[f"{layer}.self_s"] = med(lambda t: t["trace"]["self_s"][layer])
    out.update({
        "counting.cell_updates": traced("cell_updates"),
        "counting.cell_updates_per_s": rate(lambda t: t["trace"]["counters"]["cell_updates"],
                                            lambda t: t["trace"]["counters"]["scaled_build_s"]),
        "counting.bytes_computed": traced("bytes_computed"),
        "counting.exact_entries": traced("exact_entries"),
        "counting.exact_entries_per_s": rate(
            lambda t: t["trace"]["counters"]["exact_entries"],
            lambda t: t["trace"]["counters"]["exact_build_s"]),
        "counting.samples": traced("samples"),
        "counting.sample_s": traced("sample_s"),
        "conjecture.rows": checked("conjecture.rows"),
        "conjecture.rows_per_s": rate(lambda t: t["counters"].get("conjecture.rows", 0),
                                      lambda t: t["trace"]["counters"]["nullspace_s"]),
        "classify.cells": checked("classify.cells"),
        "classify.cells_per_s": rate(lambda t: t["counters"].get("classify.cells", 0),
                                     lambda t: t["trace"]["inclusive_s"]["classify"]),
        "classify.ambiguous": checked("classify.ambiguous"),
        "validate.passed": checked("validate.passed"),
        "bench.trace_overhead_frac": ratio(wall_s(traces) - wall_s(m["runs"]),
                                           wall_s(m["runs"])),
        "bench.known_defects": defects,
        "fail_frac": ratio(failed + defects, attempted),
        "bench.wall_s": wall_s(traces, "wall_s"),
        "bench.setup_raw_s": median(m["setups"]),
        "bench.speed_python": med(lambda t: t["speeds"]["python"]),
        "bench.speed_numpy": med(lambda t: t["speeds"]["numpy"]),
    })
    return out


def tally(m: dict) -> tuple[int, list[str], dict[str, int]]:
    """Jobs attempted, unexpected failures, and failures per known defect."""
    reports = m["runs"] + m["traces"]
    attempted = sum(r["jobs"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    defects = {d: sum(r["defects"].get(d, 0) for r in reports) for d in KNOWN_DEFECTS}
    return attempted, failures, defects


def fail_line(attempted: int, failures: list, defects: dict) -> str:
    known = sum(defects.values())
    names = ", ".join(f"{d} {k}" for d, k in defects.items() if k) or "none"
    return (f"{ratio(len(failures) + known, attempted):.4f}  ({len(failures)} unexpected "
            f"and {known} known-defect failures of {attempted} jobs; known defects: {names})")


def describe(name: str, unit: str, samples: list) -> str:
    """Median, the highest percentile with ten samples above it, and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n > 10:
        tail = f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} {unit}"
    else:
        tail = "tail percentile needs 11+ samples"
    return f"{name:<12} median {statistics.median(ordered):.4f} {unit}  ({tail}; n={n})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orthantwalks benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "orthantwalks", "__init__.py")):
        print(f"error: no orthantwalks sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failures, defects = tally(m)
    for line in failures[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"runs {len(m['runs'])}  traced runs {len(m['traces'])}")
    print(describe("setup raw", "s", m["setups"]))
    print(describe("wall_norm_s", "s", [r["wall_norm_s"] for r in m["runs"]]))
    print(describe("wall_s", "s", [r["wall_s"] for r in m["runs"]]))
    for kind in KINDS:
        print(describe(f"{kind} speed", "", [r["speeds"][kind] for r in m["runs"]]))
    print(describe("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in m["runs"]]))
    if m["traces"]:
        print(describe("traced norm", "s", [r["wall_norm_s"] for r in m["traces"]]))
    print(f"fail_frac    {fail_line(attempted, failures, defects)}")

    if args.trace:
        values = per_layer(m, attempted, len(failures), sum(defects.values()))
        units = dict(PER_LAYER)
    else:
        values = end_to_end(m)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
