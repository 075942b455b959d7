"""One workload in a fresh process: set up, run the jobs, check them, report.

    python3 bench/worker.py --workload NAME --seed N --mode run|trace|setup \
        --spawned-at T

T is the CLOCK_MONOTONIC reading taken by the parent just before it started
this process, so setup_s covers interpreter start, the orthantwalks import
(numpy included) and input generation.  Prints one JSON object.  With
--mode setup it stops after set-up.  The jobs' wall time is reported raw
(`wall_s`) and rescaled to the probe's reference host speed (`wall_norm_s`,
see probe.py), with the host speeds the probe measured.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import workloads
from probe import SpeedProbe, rescale
from reference import Mismatch
from tracing import LAYERS, LayerTracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_library():
    """The orthantwalks modules of this checkout, never an installed copy."""
    sys.path.insert(0, SRC)
    import orthantwalks
    location = os.path.dirname(os.path.abspath(orthantwalks.__file__))
    if location != os.path.join(SRC, "orthantwalks"):
        raise ImportError(f"orthantwalks was imported from {location}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"orthantwalks.{name}")
                              for name in LAYERS})


def run_jobs(jobs, probe: SpeedProbe, tracer=None) -> dict:
    """Time each job's call, then check its output with the clock stopped.

    The probe samples the host's speed only while a job runs, and its
    samples are left out of the job's time.
    """
    wall = 0.0
    counters: dict[str, int] = {}
    defects: dict[str, int] = {}
    failures: list[str] = []
    for job in jobs:
        if tracer is not None:
            tracer.enabled = True
        probe.resume()
        start = probe.clock()
        try:
            output, failure = job.run(), None
        except Exception as exc:  # a raising job is a result to classify, not a crash
            output, failure = None, exc
        wall += probe.clock() - start
        probe.pause()
        if tracer is not None:
            tracer.enabled = False
        if failure is None:
            try:
                for key, value in job.check(output).items():
                    counters[key] = counters.get(key, 0) + value
            except Mismatch as exc:
                failure = exc
        if failure is not None:
            defect = workloads.known_defect(job, failure)
            if defect is not None:
                defects[defect] = defects.get(defect, 0) + 1
            else:
                failures.append(f"{job.name}: {type(failure).__name__}: {failure}")
                if not isinstance(failure, Mismatch):
                    traceback.print_exception(failure, file=sys.stderr)
        del output  # the next job must not run with this output still alive
    return {"wall_s": wall, "speeds": probe.speeds(),
            "probe_samples": len(probe.samples["python"]), "jobs": len(jobs),
            "failures": failures, "defects": defects, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    ow = import_library()
    jobs = workloads.build(args.workload, args.seed, ow)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s, "jobs": len(jobs)}
    if args.mode != "setup":
        probe = SpeedProbe()
        tracer = None
        if args.mode == "trace":
            tracer = LayerTracer(clock=probe.clock)
            tracer.install()
        probe.install()
        try:
            result.update(run_jobs(jobs, probe, tracer))
        finally:
            probe.uninstall()
        result["wall_norm_s"] = rescale(result["wall_s"], result["speeds"],
                                        workloads.PYTHON_SHARE[args.workload])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                               "inclusive_s": tracer.inclusive_s,
                               "counters": tracer.counters}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
