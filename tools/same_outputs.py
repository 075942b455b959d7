"""Print the CLI reports, seeded walks and library outputs of one checkout, so that two
checkouts can be diffed.

Usage:

    python tools/same_outputs.py OLD_CHECKOUT > old.txt
    python tools/same_outputs.py NEW_CHECKOUT > new.txt
    diff old.txt new.txt

    python tools/same_outputs.py CHECKOUT --digests > tests/same_outputs.json

The package is imported from CHECKOUT/src and `orthantwalks.cli.main` runs in
this one process.  Every subcommand and every `gb` action runs in JSON and in
CSV: the four built-ins at four weightings (`conjecture2`, which counts
unweighted walks, once per built-in), a 1-D and a 3-D step set, three
diagrams, eleven GB weightings, scaled counts beyond the float range (GB to
n = 540, weights 10**-400), a 1-D count from the default start, and the
error paths (guard aborts, malformed step-set JSON, weights beyond the float
range, options the command does not read, abbreviated options, and step-set
JSON with a key or a boolean outside the schema).  Each invocation prints its
argv, exit code, stdout and stderr.
Then come seeded `sample_walk` draws: the four built-ins, exact and scaled,
three lengths, 25 seeds.  Last come the central algebra and the classifier
as library calls on seeded step sets: path pairs with the default base and
with explicit bases (d = 1, 2, 3), `is_central` witnesses and
`central_check`, `solve_central`'s exponents with exact and float
alpha/beta, `are_equivalent`, `classify(..., on_ambiguity="report")` on king
sets, `drift_diagram` on the four built-ins, and last `classify` and
`drift_diagram` on a non-central set whose critical point lies within the
ambiguity band of an edge of Q.  Two checkouts give the same outputs when
the two prints are equal.

`blocks` returns the print in named blocks: one per invocation, one per
(model, mode) set of walks, one per library section.  With `--digests` the
tool prints each block's sha256 as JSON instead, the form that
tests/test_same_outputs.py compares against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

MODELS = ("gb", "tandem", "gessel", "simple")
WEIGHTINGS = (("1", "1"), ("2", "3"), ("1/2", "1/2"), ("7/5", "2/3"))
# the nine GB class representatives, then two weightings whose values leave the float range
GB_WEIGHTINGS = (("1", "1"), ("2", "3"), ("1/2", "1/2"), ("1", "4"), ("3", "2"), ("2", "2"),
                 ("2", "4"), ("1", "1/2"), ("1/2", "1"), ("1/1" + "0" * 200, "2"),
                 (str(10 ** 200), "1"))
DIAGRAMS = (("gb", "1/2:2:1/2", "1/2:2:1/2"), ("tandem", "1/3:3:2/3", "1/2:2:1/2"),
            ("gessel", "1/4:1:1/4", "1/2:5/2:1/2"))
ONE_D = json.dumps({"dimension": 1, "steps": [{"v": [1]}, {"v": [-1], "w": 2},
                                               {"v": [2], "w": 3}]})
THREE_D = json.dumps({"dimension": 3, "steps": [
    {"v": [1, 0, 0]}, {"v": [0, 1, 0], "w": "1/2"}, {"v": [0, 0, 1]},
    {"v": [-1, -1, -1], "w": 3}, {"v": [-1, 1, 0]}, {"v": [0, -1, 1], "w": 2}]})
# weights 10**-400 on the simple walk's (1, 0), and on two steps of a five-step set
TINY = f"1/{10 ** 400}"
TINY_COUNT = json.dumps({"dimension": 2, "steps": [
    {"v": [1, 0], "w": TINY}, {"v": [-1, 0]}, {"v": [0, 1]}, {"v": [0, -1]}]})
TINY_CLASSIFY = json.dumps({"dimension": 2, "steps": [
    {"v": [1, 0], "w": TINY}, {"v": [-1, 0]}, {"v": [0, 1]}, {"v": [0, -1]},
    {"v": [-1, -1], "w": TINY}]})
NON_CENTRAL = json.dumps({"dimension": 2, "steps": [
    {"v": [1, 0], "w": "2"}, {"v": [-1, 0], "w": "1/2"},
    {"v": [-1, 1], "w": "3"}, {"v": [1, -1], "w": "1"}]})
ERRORS = (
    ["count", "--model", "gb", "--n", "4000", "--mode", "scaled", "--guard", "1000"],
    ["conjecture2", "--model", "gb", "--cap", "5", "--guard", "2"],
    ["diagram", "--model", "gb", "--a-range", "1:100:1", "--b-range", "1:100:1",
     "--guard", "10"],
    ["count", "--json", '{"dimension": 2, "steps": 5}', "--n", "3"],
    ["count", "--json", '{"dimension": 2, "steps": [{"v": [1.5, 0]}]}', "--n", "3"],
    ["count", "--json", '{"dimension": 2, "steps": [', "--n", "3"],
    ["count", "--json", "[1, 2]", "--n", "3"],
    ["classify", "--model", "gb", "--a", str(10 ** 400), "--b", "1"],
    ["diagram", "--model", "gb", "--a-range", "1e400:1e400:1", "--b-range", "1:1:1"],
    ["count", "--model", "gb", "--a", str(10 ** 200), "--mode", "scaled", "--n", "6"],
    ["diagram", "--model", "gb", "--a-range", "1:0:1", "--b-range", "1:1:1"],
    ["count", "--n", "3"],
    ["count", "--model", "gb", "--json", '{"dimension": 2, "steps": []}', "--n", "2"],
    ["count", "--model", "king", "--n", "2"],
    ["count", "--model", "gb", "--start", "0,x", "--n", "2"],
    ["gb", "harmonic", "--grid", "6"],
    ["central", "check", "--json", NON_CENTRAL],
    ["central", "equiv", "--json", NON_CENTRAL, "--json2", NON_CENTRAL],
    ["central", "equiv", "--model", "gb", "--a", "2", "--a2", "3"],
    ["validate", "--n-max", "60", "--tolerance", "1e-12"],
    ["gb", "classify", "--i", "3"],
    ["gb", "harmonic", "--n", "9"],
    ["central", "check", "--model", "gb", "--a2", "2"],
    ["central", "equiv", "--model", "gb", "--json2", NON_CENTRAL],
    ["conjecture2", "--model", "gb", "--a", "2", "--cap", "3"],
    ["count", "--json", ONE_D, "--a", "2", "--n", "3"],
    ["diagram", "--model", "gb", "--a", "1:2:1", "--b", "1:1:1"],
    ["validate", "--n", "60", "--tolerance", "0.5"],
    ["count", "--model", "gb", "--n", "3", "--em", "csv"],
    ["count", "--json", '{"dimension": 2, "steps": [{"v": [1, 0], "weight": "5"}, '
     '{"v": [-1, 0]}, {"v": [-1, 1]}, {"v": [1, -1]}]}', "--n", "3"],
    ["count", "--json", '{"dimension": 1, "steps": [{"v": [true]}, {"v": [-1], "w": "2"}]}',
     "--n", "3"],
)


def invocations() -> list[list[str]]:
    runs = []
    for name in MODELS:
        for a, b in WEIGHTINGS:
            model = ["--model", name, "--a", a, "--b", b]
            runs += [["count", *model, "--n", "12"],
                     ["count", *model, "--n", "12", "--mode", "scaled", "--start", "1,2"],
                     ["sample", *model, "--n", "10", "--seed", "5"],
                     ["sample", *model, "--n", "10", "--seed", "5", "--mode", "scaled"],
                     ["central", "check", *model], ["central", "solve", *model],
                     ["central", "equiv", *model, "--a2", "1", "--b2", "1"],
                     ["classify", *model]]
        runs.append(["conjecture2", "--model", name, "--cap", "3"])  # unweighted counts
    for spec, start in ((ONE_D, "0"), (THREE_D, "0,0,0")):
        runs += [["count", "--json", spec, "--start", start, "--n", "6"],
                 ["sample", "--json", spec, "--start", start, "--n", "6", "--mode", "scaled"],
                 ["central", "solve", "--json", spec], ["classify", "--json", spec]]
    for name, a_range, b_range in DIAGRAMS:
        runs.append(["diagram", "--model", name, "--a-range", a_range, "--b-range", b_range])
    for a, b in GB_WEIGHTINGS:
        for action in ("classify", "estimate", "harmonic", "critical", "contributing"):
            argv = ["gb", action, "--a", a, "--b", b]
            if action == "estimate":
                argv += ["--i", "3", "--j", "1", "--n", "40"]
            runs.append(argv)
    for what in ("totals", "excursions"):
        runs.append(["validate", "--a", "2", "--b", "3", "--n-max", "60", "--what", what,
                     "--tolerance", "0.2"])
    runs += [["count", "--model", "gb", "--n", "540", "--mode", "scaled"],
             ["count", "--json", ONE_D, "--n", "6"],
             ["count", "--json", TINY_COUNT, "--n", "6", "--mode", "scaled"],
             ["classify", "--json", TINY_CLASSIFY]]
    return [[*argv, "--emit", emit] for argv in runs for emit in ("json", "csv")]


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback at one checkout is a difference to show
            code = f"uncaught {type(exc).__name__}: {exc}"
    return f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}stderr: {err.getvalue()}\n"


def walks(ow) -> list[tuple[str, list[str]]]:
    """One block of seeded draws per (model, mode)."""
    sections = []
    for name in MODELS:
        model = ow.builtin_model(name, Fraction(7, 5), Fraction(2, 3))
        for mode, n_max, lengths in (("exact", 60, (20, 45, 60)),
                                     ("scaled", 200, (50, 130, 200))):
            table = ow.count_walks(model, (0, 0), n_max, mode=mode, keep_layers=True)
            lines = []
            for n in lengths:
                for seed in range(25):
                    walk = ow.sample_walk(table, n, seed)
                    lines.append(f"walk {name} {mode} n={n} seed={seed}: "
                                 + " ".join(",".join(map(str, s)) for s in walk.steps))
            sections.append((f"walks {name} {mode}", lines))
    return sections


def attempt(call, *args, **kwargs) -> str:
    """str(call(*args, **kwargs)), or the exception it raises."""
    try:
        return str(call(*args, **kwargs))
    except Exception as exc:  # an error is an output like any other
        return f"{type(exc).__name__}: {exc}"


def path_pairs(ow, model, base=None) -> str:
    chosen, pairs = ow.find_path_pairs(model, base)
    return f"{chosen} " + "; ".join(f"{p.step_index}: {p.describe()}" for p in pairs)


def decomposition(ow, model) -> str:
    dec = ow.solve_central(model)
    return (f"alpha {[m.exponents for m in dec.alpha]} beta {dec.beta.exponents} "
            f"exact {dec.alpha_exact()} {dec.beta_exact()} "
            f"float {dec.alpha_values()} {dec.beta_value()}")


def library(ow) -> list[tuple[str, list[str]]]:
    """One block per library section: the central algebra in d = 1, 2, 3, the king-set
    classifications, one drift diagram per built-in, and the ambiguity band."""
    from orthantwalks.central import central_check
    rng, sections = random.Random(19), []

    def ratio(top: int) -> Fraction:
        return Fraction(rng.randint(1, top), rng.randint(1, top))

    for d in (1, 2, 3):
        pool = [s for s in itertools.product(range(-2, 3), repeat=d) if any(s)]
        lines = []
        for _ in range(60):
            steps = rng.sample(pool, rng.randint(d + 1, min(len(pool), d + 4)))
            model = ow.make_stepset(steps, [ratio(6) for _ in steps])
            central = ow.make_stepset(steps, ow.central_weights(
                steps, [ratio(5) for _ in range(d)], beta=rng.randint(1, 4)))
            lines += [f"steps {steps} weights {[str(w) for w in model.weights]}",
                      f"  pairs {attempt(path_pairs, ow, model)}"]
            for base in itertools.islice(itertools.combinations(range(len(steps)), d + 1), 4):
                lines.append(f"  base {base}: {attempt(path_pairs, ow, model, base)}")
            lines += [f"  is_central {attempt(ow.is_central, model)}",
                      f"  central_check {attempt(central_check, model)}",
                      f"  solve_central {attempt(decomposition, ow, model)}",
                      f"  solve_central central {attempt(decomposition, ow, central)}",
                      f"  are_equivalent {attempt(ow.are_equivalent, central, central.unweighted())}"
                      f" {attempt(ow.are_equivalent, model, central)}"]
        sections.append((f"central d={d}", lines))
    king = [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)]
    lines = []
    for _ in range(150):
        steps = rng.sample(king, rng.randint(3, 8))
        weights = [ratio(9) for _ in steps]
        if rng.random() < 0.5:  # a central weighting, which the exact rules decide
            weights = ow.central_weights(steps, (weights[0], weights[-1]))
        model = ow.make_stepset(steps, weights)
        lines.append(f"classify {steps} {[str(w) for w in model.weights]}: "
                     f"{attempt(ow.classify, model, on_ambiguity='report')}")
    sections.append(("classify king sets", lines))
    grid = [Fraction(k, 4) for k in range(1, 13)]
    for name in MODELS:
        rows = attempt(ow.drift_diagram, lambda a, b: ow.builtin_model(name, a, b), grid, grid)
        sections.append((f"drift_diagram {name}", [f"drift_diagram {name}: {rows}"]))
    # the critical point (1/a, 1/b) within 2e-7 of an edge of Q in log scale
    near = [1 + k * Fraction(5, 10 ** 8) for k in range(-4, 5)]
    lines = [f"classify tilted {a} {b}: "
             f"{attempt(ow.classify, tilted(ow, a, b), on_ambiguity='report')}"
             for a in near for b in (Fraction(1, 2), near[3], near[5], Fraction(3, 2))]
    rows = attempt(ow.drift_diagram, lambda a, b: tilted(ow, a, b), near, near[2:7])
    sections.append(("ambiguity band", lines + [f"drift_diagram tilted: {rows}"]))
    return sections


def tilted(ow, a: Fraction, b: Fraction):
    """The king-like diagonal set, weighted (a, b) with both diagonal weights doubled.

    Not central, so only Newton decides it; its critical point is (1/a, 1/b).
    """
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    return ow.make_stepset(steps, [w * (2 if s[0] == s[1] else 1) for s, w
                                   in zip(steps, ow.central_weights(steps, (a, b)))])


def label(argv: list[str]) -> str:
    """A CLI invocation's block name: its argv, each argument over 40 characters cut short."""
    return "cli " + " ".join(a if len(a) <= 40 else f"{a[:24]}...({len(a)} chars)" for a in argv)


def blocks(ow) -> dict[str, str]:
    """Every output of the package `ow`, by block name, in print order.

    One block per CLI invocation, one per (model, mode) set of walks and one
    per library section.  Warnings print to the captured stderr of the
    invocation that raises them; the warning filters are restored after.
    """
    from orthantwalks.cli import main as cli_main
    out = {}

    def add(name: str, text: str) -> None:
        if name in out:
            raise ValueError(f"two blocks named {name!r}")
        out[name] = text

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, category, *_, **__: sys.stderr.write(
            f"{category.__name__}: {message}\n")
        for argv in invocations() + [list(argv) for argv in ERRORS]:
            add(label(argv), run(cli_main, argv))
    for name, lines in walks(ow) + library(ow):
        add(name, "".join(line + "\n" for line in lines))
    return out


def digests(out: dict[str, str]) -> dict[str, str]:
    """The sha256 of each block's text, by block name."""
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in out.items()}


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[2:] not in ([], ["--digests"]):
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(sys.argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    import orthantwalks as ow
    if not Path(ow.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {ow.__file__}, not the package under {src}")
    out = blocks(ow)
    if sys.argv[2:]:
        print(json.dumps(digests(out), indent=1))
    else:
        sys.stdout.write("".join(out.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
