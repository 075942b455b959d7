"""Tests of the benchmark itself: references, defect triage, inputs, metric names.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from fractions import Fraction as F

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import orthantwalks  # noqa: E402
import reference as ref  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import import_library  # noqa: E402

OW = import_library()

# the metric names the benchmark was specified with; wall time is reported
# rescaled to the host's speed as wall_norm_s, raw as bench.wall_s
SPECIFIED_END_TO_END = {"setup_s", "wall_norm_s", "peak_rss_mb"}
SPECIFIED_PER_LAYER = (
    {f"{layer}.{kind}" for layer in ("stepset", "counting", "central", "relations", "gb",
                                     "classify", "conjecture", "validate", "cli")
     for kind in ("calls", "self_s")}
    | {"counting.cell_updates", "counting.cell_updates_per_s", "counting.bytes_computed",
       "counting.exact_entries", "counting.exact_entries_per_s", "counting.samples",
       "counting.sample_s", "conjecture.rows", "conjecture.rows_per_s", "classify.cells",
       "classify.cells_per_s", "classify.ambiguous", "validate.passed",
       "bench.trace_overhead_frac", "bench.known_defects", "fail_frac",
       "bench.wall_s", "bench.setup_raw_s", "bench.speed_python", "bench.speed_numpy"})


class Perturbed:
    """A counting table whose origin count at one length is off by a given factor."""

    def __init__(self, table, n, factor):
        self.table, self.n, self.factor = table, n, factor

    def endpoint(self, end, n):
        value = self.table.endpoint(end, n)
        if n != self.n:
            return value
        if isinstance(value, (int, F)):
            return value * self.factor
        return orthantwalks.XFloat(value.man * float(self.factor), value.exp)

    def total(self, n):
        return self.table.total(n)


# ----------------------------------------------------------------------
# the reference checker flags wrong outputs


def test_exact_origin_counts_pass_and_a_perturbed_count_is_flagged():
    table = orthantwalks.count_walks(orthantwalks.builtin_model("gb", F(2, 3), 3),
                                     (0, 0), 30, "exact")
    workloads.check_origin(table, 30, scaled=False)
    with pytest.raises(ref.Mismatch):
        workloads.check_origin(Perturbed(table, 20, F(10 ** 30 + 1, 10 ** 30)), 30,
                               scaled=False)


def test_scaled_counts_within_bound_and_a_perturbed_count_is_flagged():
    table = orthantwalks.count_walks(orthantwalks.builtin_model("gb"), (0, 0), 200,
                                     "scaled", track=[(0, 0)])
    workloads.check_origin(table, 200, scaled=True, totals=ref.gb_total_count)
    with pytest.raises(ref.Mismatch):
        workloads.check_origin(Perturbed(table, 100, 1 + 1e-12), 200, scaled=True)


def test_walk_leaving_the_orthant_is_flagged():
    ref.check_walk(workloads.GB, (0, 0), 2, [(1, 0), (-1, 0)])
    with pytest.raises(ref.Mismatch, match="leaves the orthant"):
        ref.check_walk(workloads.GB, (0, 0), 2, [(1, 0), (1, -1)])
    with pytest.raises(ref.Mismatch, match="not in the step set"):
        ref.check_walk(workloads.GB, (0, 0), 1, [(0, 1)])
    with pytest.raises(ref.Mismatch, match="steps, expected"):
        ref.check_walk(workloads.GB, (0, 0), 3, [(1, 0)])


def test_extended_values_must_be_finite():
    with pytest.raises(ref.Mismatch):
        ref.extended_value(float("inf"), 0)


# ----------------------------------------------------------------------
# the references agree with enumeration


def test_closed_forms_match_enumeration():
    gb = ref.brute_force(workloads.GB, [1] * 4, (0, 0), 10)
    gessel = ref.brute_force(workloads.GESSEL, [1] * 4, (0, 0), 10)
    for n in range(11):
        assert sum(gb[n].values()) == ref.gb_total_count(n)
        assert gb[n].get((0, 0), 0) == ref.gb_origin_count(n)
        assert gessel[n].get((0, 0), 0) == ref.gessel_origin_count(n)


def test_nullity_profile_of_gb_and_the_seed_defect():
    assert ref.nullity_profile(workloads.GB, 3) == [3, 1, 0]
    assert ref.refutation_length([3, 1, 0]) == 3
    # the reproducer of the library's null-space defect; the reference handles it
    assert ref.null_space([[0, 1]], 2) == [[1, 0]]
    with pytest.raises(AttributeError) as info:
        OW.conjecture._null_space([[0, 1]], 2)
    job = workloads.Job("n", lambda: None, lambda out: {}, defect=workloads.NULLSPACE_DIVISION)
    assert workloads.known_defect(job, info.value) == workloads.NULLSPACE_DIVISION
    assert workloads.known_defect(job, AttributeError("other")) is None
    assert workloads.known_defect(workloads.Job("n", None, None), info.value) is None


def test_scaled_defect_covers_only_probe_jobs():
    probe = workloads.Job("p", None, None, defect=workloads.SCALED_EXTREME)
    assert workloads.known_defect(probe, ref.Mismatch("x")) == workloads.SCALED_EXTREME
    assert workloads.known_defect(probe, ValueError("x")) is None
    assert workloads.known_defect(workloads.Job("c", None, None), ref.Mismatch("x")) is None


def test_centrality_reference():
    steps = workloads.GB
    assert ref.is_central(steps, workloads.product_weights(steps, F(2), F(3)))
    assert not ref.is_central(steps, [2, F(1, 2), 3, 1])
    assert ref.is_central(((1, 0), (-1, 1), (0, -1)), [F(5), F(7), F(11)])  # 3 steps: always


def test_scaled_work_counts_window_cells():
    # GB from the origin: window n is [0, n] x [0, n] inside a 3 x 3 box
    updates, traffic = tracing.scaled_work(workloads.GB, (0, 0), 2)
    assert updates == 4 * (4 + 9)
    assert traffic == 8 * ((1 + 4) + (4 + 9))


# ----------------------------------------------------------------------
# inputs


def size_signature(jobs):
    return [re.findall(r"\b(?:n|cap|grid)=\d+|\d+x\d+", job.name) for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_never_sizes(workload):
    first = [job.name for job in workloads.build(workload, 1, OW)]
    assert first == [job.name for job in workloads.build(workload, 1, OW)]
    other = workloads.build(workload, 2, OW)
    assert len(other) == len(first)
    assert size_signature(other) == size_signature(workloads.build(workload, 1, OW))


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.build("nope", 1, OW)


# ----------------------------------------------------------------------
# tracing


def test_tracer_attributes_nested_calls_and_restores_the_library():
    original = OW.counting.count_walks
    tracer = tracing.LayerTracer()
    tracer.install()
    try:
        OW.validate.validate_totals(OW.gb.GBParams(1, 1), 60, 0.5)
    finally:
        tracer.uninstall()
    assert OW.counting.count_walks is original
    assert OW.validate.count_walks is original
    assert tracer.calls["validate"] == 1
    assert tracer.calls["counting"] >= 1 and tracer.counters["cell_updates"] > 0
    assert tracer.calls["gb"] >= 1
    inclusive = tracer.inclusive_s["validate"]
    children = sum(tracer.self_s[layer] for layer in ("counting", "gb", "stepset"))
    assert tracer.self_s["validate"] == pytest.approx(inclusive - children, abs=1e-3)


# ----------------------------------------------------------------------
# the speed probe


def test_probe_samples_during_jobs_only_and_its_time_leaves_the_clock():
    speed_probe = probe.SpeedProbe(interval=0.02)
    speed_probe.install()
    try:
        speed_probe.resume()
        start, wall = speed_probe.clock(), time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            sum(range(1000))
        clocked, wall = speed_probe.clock() - start, time.perf_counter() - wall
        speed_probe.pause()
        taken = len(speed_probe.samples["python"])
        time.sleep(0.05)
        assert len(speed_probe.samples["python"]) == taken
    finally:
        speed_probe.uninstall()
    assert taken >= 3 and len(speed_probe.samples["numpy"]) == taken
    assert clocked == pytest.approx(wall - speed_probe.spent, abs=1e-4)
    assert speed_probe.spent >= sum(map(sum, speed_probe.samples.values()))
    for kind, samples in speed_probe.samples.items():
        assert speed_probe.speeds()[kind] == pytest.approx(
            sum(probe.REFERENCE_S[kind] / c for c in samples) / taken)


def test_rescale_weights_the_two_speeds_by_the_python_share():
    assert probe.SpeedProbe().speeds() == {"python": 1.0, "numpy": 1.0}
    speeds = {"python": 2.0, "numpy": 0.5}
    assert probe.rescale(10.0, speeds, 1.0) == pytest.approx(20.0)
    assert probe.rescale(10.0, speeds, 0.0) == pytest.approx(5.0)
    assert probe.rescale(10.0, speeds, 0.5) == pytest.approx(8.0)
    assert probe.rescale(10.0, {"python": 1.0, "numpy": 1.0}, 0.3) == pytest.approx(10.0)


def test_every_workload_has_a_python_share():
    assert set(workloads.PYTHON_SHARE) == set(workloads.WORKLOADS)
    assert all(0 <= share <= 1 for share in workloads.PYTHON_SHARE.values())


# ----------------------------------------------------------------------
# metric names


def test_metric_names_match_the_specification_and_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == SPECIFIED_END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == SPECIFIED_PER_LAYER
    assert dict(run.END_TO_END) == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert dict(run.PER_LAYER) == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_per_layer_metrics_cover_every_name():
    job = {"wall_s": 0.5, "wall_norm_s": 0.6, "speeds": {"python": 1.2, "numpy": 1.1},
           "jobs": 1, "failures": [], "defects": {}, "counters": {}}
    trace = dict(job, trace={
        "calls": dict.fromkeys(tracing.LAYERS, 0),
        "self_s": dict.fromkeys(tracing.LAYERS, 0.0),
        "inclusive_s": dict.fromkeys(tracing.LAYERS, 0.0),
        "counters": tracing.LayerTracer().counters})
    values = run.per_layer({"setups": [0.1], "setups_norm": [0.1], "runs": [job],
                            "traces": [trace]}, 2, 0, 0)
    assert set(values) == set(dict(run.PER_LAYER))
    assert set(run.end_to_end({"setups": [0.1], "setups_norm": [0.1],
                               "runs": [dict(job, peak_rss_mb=1.0)],
                               "traces": []})) == SPECIFIED_END_TO_END

