"""Seeded inputs and job lists of the four benchmark workloads.

`build(workload, seed, ow)` generates every input from the seed and returns
the jobs.  A job is a timed call into the library plus an untimed check of
its output against `reference`.  The seed picks models, weights, grids and
sample seeds; it never changes a length n, a grid size or a job count.

Library functions are looked up on the modules in `ow` when a job runs, so
the layer trace (see tracing.py) sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import numpy as np

import reference as ref
from reference import Mismatch

WORKLOADS = ("scaled-series", "scaled-sample", "exact-algebra", "class-sweep")

# The share of each workload's time that slows like probe.py's python chunk
# when the host slows; the rest slows like its numpy chunk.  Fitted to ten
# repetitions of each workload spread over eight minutes of varying host
# speed, as the share that gave the steadiest rescaled wall time.
PYTHON_SHARE = {"scaled-series": 0.1, "scaled-sample": 0.3,
                "exact-algebra": 0.8, "class-sweep": 0.8}

# The two defects present when the benchmark was written.  A job that hits
# one is reported under the defect's name (and in fail_frac), not as an
# unexpected failure; any other failure of the same job still counts.
SCALED_EXTREME = "scaled-extreme-weights"   # scaled counts diverge or overflow at extreme weights
NULLSPACE_DIVISION = "nullspace-int-division"  # _null_space true-divides the int 0
KNOWN_DEFECTS = (SCALED_EXTREME, NULLSPACE_DIVISION)

GB = ((1, 0), (-1, 0), (-1, 1), (1, -1))
GESSEL = ((-1, 0), (1, 0), (1, 1), (-1, -1))
TANDEM = ((1, 0), (-1, 1), (0, -1))
KING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
ORIGIN = (0, 0)

# GB weightings whose inventory at (1, 1) stays below 5, so an n = 600 scaled
# layer spans fewer than 2**-400 between its largest entry and the origin
MODERATE = (F(2, 3), F(3, 4), F(1), F(4, 3), F(3, 2))
RATIONAL = tuple(sorted({F(p, q) for p in range(1, 6) for q in range(1, 6)}))
CLASS_REPS = (("balanced", 1, 1), ("free", 2, 3), ("reluctant", F(1, 2), F(1, 2)),
              ("directed1", 1, 4), ("directed2", 3, 2), ("axial1", 2, 2),
              ("axial2", 2, 4), ("transitional1", 1, F(1, 2)),
              ("transitional2", F(1, 2), 1))


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]  # raises Mismatch; returns counters
    defect: Optional[str] = None     # the seed defect this job's inputs can hit


def known_defect(job: Job, failure: BaseException) -> Optional[str]:
    """The seed defect a failure is, or None for an unexpected failure."""
    if job.defect == SCALED_EXTREME and isinstance(failure, (Mismatch, OverflowError)):
        return SCALED_EXTREME
    if (job.defect == NULLSPACE_DIVISION and isinstance(failure, AttributeError)
            and "'float' object has no attribute 'denominator'" in str(failure)
            and _raised_in(failure, "orthantwalks")):
        return NULLSPACE_DIVISION
    return None


def _raised_in(exc: BaseException, package: str) -> bool:
    tb = exc.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return tb is not None and package in tb.tb_frame.f_code.co_filename


def build(workload: str, seed: int, ow) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, ow)


# ----------------------------------------------------------------------
# helpers


def product_weights(steps, a, b) -> list[F]:
    return [F(a) ** s[0] * F(b) ** s[1] for s in steps]


def exact(value) -> F:
    """An exact count, or an extended-range float converted exactly."""
    if isinstance(value, (int, F)):
        return F(value)
    return ref.extended_value(value.man, value.exp)


def run_cli(ow, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ow.cli.main(argv)
    return code, out.getvalue()


def cli_payload(result) -> dict:
    code, out = result
    if code != 0:
        raise Mismatch(f"cli exited with {code}")
    return json.loads(out)


def check_origin(table, n_max: int, scaled: bool, totals=None) -> dict:
    """GB origin counts (any weighting) and optional totals against closed forms."""
    for n in range(n_max + 1):
        tol = ref.scaled_bound(n) if scaled else F(0)
        ref.check_close(exact(table.endpoint(ORIGIN, n)), ref.gb_origin_count(n), tol,
                        f"origin count at n={n}")
        if totals is not None:
            ref.check_close(exact(table.total(n)), totals(n), tol, f"total at n={n}")
    return {}


def check_small_layers(table, steps, weights, n_max: int = 8) -> None:
    """Exact layers n <= 8 against walk-by-walk enumeration."""
    layers = ref.brute_force(steps, weights, ORIGIN, n_max)
    for n, want in enumerate(layers):
        if table.layer(n) != want:
            raise Mismatch(f"layer {n} differs from enumeration")


def king_sets(rng: random.Random, k: int) -> list[tuple]:
    """k non-singular subsets of the king directions, sizes 3..8 in equal shares.

    Fixing the sizes keeps the work of a job list the same from seed to seed.
    """
    out = []
    while len(out) < k:
        steps = tuple(rng.sample(KING, 3 + len(out) % 6))
        if ref.non_singular_2d(steps):
            out.append(steps)
    return out


def prime_weighting(rng: random.Random) -> tuple[F, F]:
    """GB weights a = p/q, b = r/s with p, q, r, s the primes 2, 3, 5, 7 in seeded order.

    The common denominator of the GB weights a, 1/a, b/a, a/b is then always
    210, so exact tables hold integers of the same size for every seed.
    """
    p, q, r, s = rng.sample((2, 3, 5, 7), 4)
    return F(p, q), F(r, s)


def grid(lo: F, step: F, count: int) -> list[F]:
    return [lo + step * k for k in range(count)]


# ----------------------------------------------------------------------
# scaled-series: the dense float transfer kernel, streamed


def scaled_series(rng: random.Random, ow) -> list[Job]:
    gb = ow.stepset.builtin_model
    jobs = []

    def count_job(a, b, n, with_totals):
        model = gb("gb", a, b)
        totals = ref.gb_total_count if with_totals else None
        return Job(f"count gb({a},{b}) scaled n={n}",
                   lambda: ow.counting.count_walks(model, ORIGIN, n, "scaled", track=[ORIGIN]),
                   lambda t: check_origin(t, n, scaled=True, totals=totals))

    jobs.append(count_job(1, 1, 1000, True))
    for a, b in [(rng.choice(MODERATE), rng.choice(MODERATE)) for _ in range(2)]:
        jobs.append(count_job(a, b, 600, False))

    def verdict(report) -> dict:
        if not all(np.isfinite(report.ratios)) or not np.isfinite(report.final_ratio):
            raise Mismatch("validation produced a non-finite ratio")
        return {"validate.passed": int(report.passed)}

    _, a, b = rng.choice(CLASS_REPS)
    params = ow.gb.GBParams(a, b)
    jobs.append(Job(f"validate_totals gb({a},{b}) n=400",
                    lambda: ow.validate.validate_totals(params, 400, 0.05), verdict))
    a, b = rng.choice(MODERATE), rng.choice(MODERATE)
    params_e = ow.gb.GBParams(a, b)
    jobs.append(Job(f"validate_excursions gb({a},{b}) n=400",
                    lambda: ow.validate.validate_excursions(params_e, 400, 0.05), verdict))

    a, b = rng.choice(MODERATE), rng.choice(MODERATE)
    argv = ["count", "--model", "gb", "--a", str(a), "--b", str(b),
            "--mode", "scaled", "--n", "300"]

    def check_cli_count(result) -> dict:
        payload = cli_payload(result)
        counts = payload["origin_counts"]
        if len(counts) != 301:
            raise Mismatch(f"cli returned {len(counts)} origin counts")
        for n, c in enumerate(counts):
            ref.check_close(F(c), ref.gb_origin_count(n), ref.scaled_bound(n) + F(1, 10 ** 14),
                            f"cli origin count at n={n}")
        return {}

    jobs.append(Job("cli " + " ".join(argv), lambda: run_cli(ow, argv), check_cli_count))

    for stratum in range(4):
        # one exponent from each quarter of [0, 280], with a seeded sign, so
        # the exact tables' integer sizes vary little from seed to seed
        k = rng.choice((-1, 1)) * rng.randint(70 * stratum, 70 * stratum + 70)
        model = gb("gb", F(10) ** k, 1)

        def probe(model=model):
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                scaled = ow.counting.count_walks(model, ORIGIN, 30, "scaled", track=[ORIGIN])
            return scaled, ow.counting.count_walks(model, ORIGIN, 30, "exact")

        def check_probe(tables) -> dict:
            scaled, exact_table = tables
            for n in range(31):
                tol = ref.scaled_bound(n)
                ref.check_close(exact(scaled.total(n)), exact_table.total(n), tol,
                                f"scaled total at n={n}")
                ref.check_close(exact(scaled.endpoint(ORIGIN, n)),
                                ref.gb_origin_count(n), tol, f"scaled origin count at n={n}")
            return {}

        jobs.append(Job(f"probe gb(10^{k},1) scaled vs exact n=30", probe,
                        check_probe, defect=SCALED_EXTREME))
    return jobs


# ----------------------------------------------------------------------
# scaled-sample: the same kernel, kept as checkpoints and replayed


def scaled_sample(rng: random.Random, ow) -> list[Job]:
    model = ow.stepset.builtin_model("gb", 1, 1)
    state = {}

    def build_table():
        state["table"] = ow.counting.count_walks(model, ORIGIN, 600, "scaled",
                                                 track=[ORIGIN], keep_layers=True)
        return state["table"]

    jobs = [Job("count gb(1,1) scaled n=600 keep_layers", build_table,
                lambda t: check_origin(t, 600, scaled=True, totals=ref.gb_total_count))]

    def check_walk(walk, n=600) -> dict:
        if tuple(walk.start) != ORIGIN:
            raise Mismatch(f"walk starts at {walk.start}")
        ref.check_walk(GB, ORIGIN, n, walk.steps)
        return {}

    for sample_seed in rng.sample(range(10 ** 6), 3):
        jobs.append(Job(f"sample_walk n=600 seed={sample_seed}",
                        lambda s=sample_seed: ow.counting.sample_walk(state["table"], 600, s),
                        check_walk))

    a, b = rng.choice(MODERATE), rng.choice(MODERATE)
    argv = ["sample", "--model", "gb", "--a", str(a), "--b", str(b), "--mode", "scaled",
            "--n", "200", "--seed", str(rng.randrange(10 ** 6))]

    def check_cli_sample(result) -> dict:
        payload = cli_payload(result)
        ref.check_walk(GB, ORIGIN, 200, payload["steps"])
        end = tuple(sum(s[k] for s in payload["steps"]) for k in range(2))
        if tuple(payload["end"]) != end:
            raise Mismatch(f"cli reports end {payload['end']}, steps give {end}")
        return {}

    jobs.append(Job("cli " + " ".join(argv), lambda: run_cli(ow, argv), check_cli_sample))
    return jobs


# ----------------------------------------------------------------------
# exact-algebra: big-integer tables and rational elimination


def exact_algebra(rng: random.Random, ow) -> list[Job]:
    st, counting = ow.stepset, ow.counting
    jobs = []
    state = {}

    gb11 = st.builtin_model("gb", 1, 1)

    def gb150():
        state["gb150"] = counting.count_walks(gb11, ORIGIN, 150, "exact")
        return state["gb150"]

    def check_gb150(table) -> dict:
        check_small_layers(table, GB, [1] * 4)
        return check_origin(table, 150, scaled=False, totals=ref.gb_total_count)

    jobs.append(Job("count gb(1,1) exact n=150", gb150, check_gb150))

    gessel = st.builtin_model("gessel", 1, 1)

    def check_gessel(table) -> dict:
        check_small_layers(table, GESSEL, [1] * 4)
        for n in range(121):
            if table.endpoint(ORIGIN, n) != ref.gessel_origin_count(n):
                raise Mismatch(f"gessel origin count at n={n}")
        return {}

    jobs.append(Job("count gessel exact n=120",
                    lambda: counting.count_walks(gessel, ORIGIN, 120, "exact"), check_gessel))

    a, b = prime_weighting(rng)
    weighted = st.builtin_model("gb", a, b)

    def check_weighted(table, a=a, b=b) -> dict:
        check_small_layers(table, GB, product_weights(GB, a, b))
        return check_origin(table, 120, scaled=False)

    jobs.append(Job(f"count gb({a},{b}) exact n=120",
                    lambda: counting.count_walks(weighted, ORIGIN, 120, "exact"),
                    check_weighted))

    def check_exact_walk(walk) -> dict:
        ref.check_walk(GB, ORIGIN, 120, walk.steps)
        return {}

    for sample_seed in rng.sample(range(10 ** 6), 100):
        jobs.append(Job(f"sample_walk exact n=120 seed={sample_seed}",
                        lambda s=sample_seed: counting.sample_walk(state["gb150"], 120, s),
                        check_exact_walk))

    # the null-space checker
    profiles: dict[tuple, list[int]] = {}

    def profile(steps, cap):
        if (steps, cap) not in profiles:
            profiles[steps, cap] = ref.nullity_profile(steps, cap)
        return profiles[steps, cap]

    def nullspace_job(steps, cap, label, expected=None):
        model = st.make_stepset(steps, [1] * len(steps))

        def check(report) -> dict:
            want = profile(steps, cap)[cap - 1]
            if expected is not None and want != expected:
                raise Mismatch(f"reference nullity {want} disagrees with the known {expected}")
            if report.nullity != want or len(report.basis) != want:
                raise Mismatch(f"nullity {report.nullity}, reference {want}")
            return {"conjecture.rows": _residual_rows(ow, model, report.basis, cap)}

        return Job(f"conjecture2_nullspace {label} cap={cap}",
                   lambda: ow.conjecture.conjecture2_nullspace(model, cap), check,
                   defect=NULLSPACE_DIVISION)

    def refutation_job(steps, cap, label):
        model = st.make_stepset(steps, [1] * len(steps))

        def check(n_s) -> dict:
            want = ref.refutation_length(profile(steps, cap))
            if n_s != want:
                raise Mismatch(f"N_S = {n_s}, reference {want}")
            return {}

        return Job(f"minimal_refutation_length {label} cap={cap}",
                   lambda: ow.conjecture.minimal_refutation_length(model, cap), check,
                   defect=NULLSPACE_DIVISION)

    for k, steps in enumerate(king_sets(rng, 60)):
        jobs.append(nullspace_job(steps, 12, f"king#{k}"))
        jobs.append(refutation_job(steps, 12, f"king#{k}"))
    base = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    four_d = tuple(base + sorted(set(itertools.permutations((-1, 1, 1, 0)))))
    jobs.append(nullspace_job(four_d, 8, "4-d 16 steps"))
    jobs.append(refutation_job(four_d, 8, "4-d 16 steps"))
    for cap, nullity in ((1, 3), (2, 1), (3, 0)):
        jobs.append(nullspace_job(GB, cap, "gb", expected=nullity))

    # coefficient relations of central weightings
    for a, b in (prime_weighting(rng) for _ in range(3)):
        model = st.builtin_model("gb", a, b)

        def gf(model=model):
            dec = ow.central.solve_central(model)
            return dec, ow.relations.check_gf_relation(model, dec, 40)

        def excursion(model=model):
            return ow.relations.check_excursion_relation(
                model, ow.central.solve_central(model), 40)

        def check_gf(result, model=model) -> dict:
            dec, holds = result
            _check_decomposition(dec, model)
            if holds is not True:
                raise Mismatch("coefficient relation reported false for a central weighting")
            return {}

        def check_excursion(holds) -> dict:
            if holds is not True:
                raise Mismatch("excursion relation reported false for a central weighting")
            return {}

        jobs.append(Job(f"check_gf_relation gb({a},{b}) n=40", gf, check_gf))
        jobs.append(Job(f"check_excursion_relation gb({a},{b}) n=40", excursion,
                        check_excursion))

    # centrality, the alpha/beta solve and equivalence
    for k, steps in enumerate(king_sets(rng, 200)):
        if k % 2 == 0:
            beta, x, y = (rng.choice(RATIONAL) for _ in range(3))
            weights = [beta * w for w in product_weights(steps, x, y)]
        else:
            weights = [rng.choice(RATIONAL) for _ in steps]
        other = [rng.choice(RATIONAL) for _ in steps]
        jobs.append(_central_job(ow, k, steps, weights, other))

    for label, a, b in CLASS_REPS:
        params = ow.gb.GBParams(a, b)

        def harmonic_check(ok) -> dict:
            if ok is not True:
                raise Mismatch("harmonicity check reported false")
            return {}

        jobs.append(Job(f"check_harmonicity {label} grid=30",
                        lambda p=params: ow.gb.check_harmonicity(p, 30), harmonic_check))

    a, b = prime_weighting(rng)
    argv = ["count", "--model", "gb", "--a", str(a), "--b", str(b), "--n", "100"]

    def check_cli_count(result) -> dict:
        counts = cli_payload(result)["origin_counts"]
        if [F(c) for c in counts] != [ref.gb_origin_count(n) for n in range(101)]:
            raise Mismatch("cli exact origin counts differ from the closed form")
        return {}

    jobs.append(Job("cli " + " ".join(argv), lambda: run_cli(ow, argv), check_cli_count))

    name = rng.choice(("gb", "tandem", "gessel", "simple"))
    builtin = st.builtin_model(name, 1, 1)
    argv2 = ["conjecture2", "--model", name, "--cap", "8"]

    def check_cli_conjecture(result) -> dict:
        payload = cli_payload(result)
        prof = profile(builtin.steps, 8)
        if payload["nullity"] != prof[-1] or payload["N_S"] != ref.refutation_length(prof):
            raise Mismatch(f"cli nullity {payload['nullity']} / N_S {payload['N_S']}, "
                           f"reference {prof[-1]} / {ref.refutation_length(prof)}")
        basis = [tuple(F(q) for q in vec) for vec in payload["basis"]]
        return {"conjecture.rows": _residual_rows(ow, builtin, basis, 8)}

    jobs.append(Job("cli " + " ".join(argv2), lambda: run_cli(ow, argv2),
                    check_cli_conjecture, defect=NULLSPACE_DIVISION))
    return jobs


def _residual_rows(ow, model, basis, cap) -> int:
    """Every basis vector annihilates every equation; returns the equation count."""
    rows = None
    for vec in basis or [(F(0),) * model.size]:
        res = ow.conjecture.residuals(model, tuple(vec), cap)
        if any(r != 0 for r in res):
            raise Mismatch("a null-space basis vector leaves a nonzero residual")
        rows = len(res)
    return rows


def _check_decomposition(dec, model) -> None:
    if not dec.verify():
        raise Mismatch("CentralDecomposition.verify() failed")
    weights = model.weights
    for s, w in zip(model.steps, weights):
        exps = list(dec.beta.exponents)
        for k, c in enumerate(s):
            exps = [e + c * x for e, x in zip(exps, dec.alpha[k].exponents)]
        if not ref.monomial_value_equals(weights, exps, w):
            raise Mismatch(f"beta * alpha**s differs from the weight of step {s}")


def _central_job(ow, k, steps, weights, other) -> Job:
    model = ow.stepset.make_stepset(steps, weights)
    model2 = ow.stepset.make_stepset(steps, other)

    def run():
        central, _ = ow.central.is_central(model)
        try:
            dec = ow.central.solve_central(model)
        except ow.central.NotCentralError:
            dec = None
        return central, dec, ow.central.are_equivalent(model, model2)

    def check(result) -> dict:
        central, dec, equivalent = result
        want = ref.is_central(steps, weights)
        if central != want:
            raise Mismatch(f"is_central {central}, reference {want}")
        if (dec is not None) != want:
            raise Mismatch("solve_central disagrees with centrality")
        if dec is not None:
            _check_decomposition(dec, model)
        want_eq = ref.is_central(steps, [w / v for w, v in zip(weights, other)])
        if equivalent != want_eq:
            raise Mismatch(f"are_equivalent {equivalent}, reference {want_eq}")
        return {}

    return Job(f"central weighting #{k} ({len(steps)} steps)", run, check)


# ----------------------------------------------------------------------
# class-sweep: convex-minimisation classification; no counting at all


def class_sweep(rng: random.Random, ow) -> list[Job]:
    st, cl = ow.stepset, ow.classify
    jobs = []

    def diagram_check(steps, gb_closed_form):
        def check(rows) -> dict:
            ambiguous = 0
            for row in rows:
                want_drift = ref.drift(steps, product_weights(steps, row["a"], row["b"]))
                if (row["dx"], row["dy"]) != want_drift:
                    raise Mismatch(f"drift at ({row['a']}, {row['b']})")
                if row["class"] == "ambiguous":
                    ambiguous += 1
                    continue
                ref.check_family_vs_drift(row["class"], *want_drift)
                if gb_closed_form:
                    want = ow.gb.gb_classify(row["a"], row["b"]).family
                    if row["class"] != want:
                        raise Mismatch(f"cell ({row['a']}, {row['b']}): {row['class']}, "
                                       f"closed form {want}")
            return {"classify.cells": len(rows), "classify.ambiguous": ambiguous}
        return check

    tandem_a = grid(F(rng.randint(1, 4), 20), F(1, 15), 60)
    tandem_b = grid(F(rng.randint(1, 4), 20), F(1, 15), 60)
    jobs.append(Job("drift_diagram tandem 60x60",
                    lambda: cl.drift_diagram(lambda a, b: st.builtin_model("tandem", a, b),
                                             tandem_a, tandem_b),
                    diagram_check(TANDEM, False)))
    gb_a = grid(F(rng.randint(1, 4), 20), F(2, 15), 30)
    gb_b = grid(F(rng.randint(1, 4), 20), F(2, 15), 30)
    jobs.append(Job("drift_diagram gb 30x30",
                    lambda: cl.drift_diagram(lambda a, b: st.builtin_model("gb", a, b),
                                             gb_a, gb_b),
                    diagram_check(GB, True)))

    for k, steps in enumerate(king_sets(rng, 300)):
        weights = [rng.choice(RATIONAL) for _ in steps]
        text = json.dumps({"dimension": 2, "steps": [
            {"v": list(s), "w": str(w)} for s, w in zip(steps, weights)]})

        def run(text=text):
            return cl.classify(st.stepset_from_json(text), on_ambiguity="report")

        jobs.append(Job(f"classify json #{k} ({len(steps)} steps)", run,
                        lambda c, s=steps, w=weights: _check_classification(c, s, w)))

    for a in gb_a:
        for b in gb_b:
            def critical(a=a, b=b):
                return ow.gb.gb_critical_points(a, b), ow.gb.gb_contributing(a, b)

            jobs.append(Job(f"gb critical points ({a}, {b})", critical,
                            lambda r, a=a, b=b: _check_critical(ow, r, a, b)))

    lo_a, lo_b = F(rng.randint(1, 4), 10), F(rng.randint(1, 4), 10)
    step = F(1, 5)
    argv = ["diagram", "--model", "gessel",
            "--a-range", f"{lo_a}:{lo_a + 19 * step}:{step}",
            "--b-range", f"{lo_b}:{lo_b + 19 * step}:{step}"]
    check_rows = diagram_check(GESSEL, False)

    def check_cli_diagram(result) -> dict:
        cells = cli_payload(result)["cells"]
        if len(cells) != 400:
            raise Mismatch(f"cli diagram returned {len(cells)} cells")
        rows = [{"a": F(c["a"]), "b": F(c["b"]), "dx": F(c["dx"]), "dy": F(c["dy"]),
                 "class": c["class"]} for c in cells]
        return check_rows(rows)

    jobs.append(Job("cli " + " ".join(argv), lambda: run_cli(ow, argv), check_cli_diagram))
    return jobs


_LOG_GRID = np.linspace(0.0, 2.0, 21)


def _check_classification(c, steps, weights) -> dict:
    """The drift row of the class grid, and rho as the minimum of S over [1, inf)^2."""
    dx, dy = ref.drift(steps, weights)
    if tuple(c.drift) != (dx, dy):
        raise Mismatch(f"drift {c.drift}, reference {(dx, dy)}")
    ref.check_family_vs_drift(c.family, dx, dy)
    x, y = c.minimizer
    if x < 1 - 1e-9 or y < 1 - 1e-9:
        raise Mismatch(f"minimizer {c.minimizer} lies outside Q")
    s = np.array(steps, dtype=float)
    w = np.array([float(v) for v in weights])
    at_min = float(w @ np.exp(s @ np.log([x, y])))
    if abs(at_min - c.rho) > 1e-9 * c.rho:
        raise Mismatch(f"rho {c.rho} but S(minimizer) = {at_min}")
    u, v = np.meshgrid(_LOG_GRID, _LOG_GRID)
    values = np.exp(np.outer(s[:, 0], u.ravel()) + np.outer(s[:, 1], v.ravel()))
    lowest = float((w @ values).min())
    if c.rho > lowest * (1 + 1e-9):
        raise Mismatch(f"rho {c.rho} exceeds S = {lowest} at a point of Q")
    return {"classify.cells": 1, "classify.ambiguous": int(bool(c.ambiguities))}


def _check_critical(ow, result, a, b) -> dict:
    points, contributing = result
    growth = {p.label: float(p.growth) for p in points}
    if not contributing or not contributing <= set(growth):
        raise Mismatch(f"contributing {sorted(contributing)} not among {sorted(growth)}")
    rho = float(ow.gb.gb_classify(a, b).rho)
    for label in contributing:
        if abs(growth[label] - rho) > 1e-12 * rho:
            raise Mismatch(f"({a}, {b}): growth of {label} is {growth[label]}, rho {rho}")
    return {}


_BUILDERS = {
    "scaled-series": scaled_series,
    "scaled-sample": scaled_sample,
    "exact-algebra": exact_algebra,
    "class-sweep": class_sweep,
}
