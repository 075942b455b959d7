"""Command-line interface: one entry point over all library capabilities.

Subcommands: count, sample, central {check,solve,equiv}, classify, diagram,
gb {classify,estimate,harmonic,critical,contributing}, conjecture2, validate.

Exit codes: 0 success, 1 a requested check failed (validate / gb harmonic /
central check / central equiv reporting false), 2 usage error, 3 resource
guard abort.  Reports are deterministic for a fixed argv: exact rationals
serialize as strings like "14/3", floats round to 15 significant digits
(beyond the float range, values of Q(sqrt(b)) print as "p+q*sqrt(b)" and
scaled counts as "m*2**e"), JSON keys are sorted, rows are in canonical order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .central import are_equivalent, central_check, solve_central
from .classify import ClassifyError, classify, drift_diagram
from .conjecture import conjecture2_nullspace
from .counting import DEFAULT_GUARD, ResourceGuardError, count_walks, sample_walk
from .gb import (GBParams, Surd, check_harmonicity, gb_classify, gb_contributing,
                 gb_critical_points, gb_estimate, gb_kappa_V)
from .stepset import StepSet, as_fraction, builtin_model, stepset_from_json
from .validate import validate_excursions, validate_totals
from .xfloat import XFloat

USAGE_ERROR, CHECK_FAILED, GUARD_ABORT = 2, 1, 3


class _CliError(ValueError):
    """A usage error found past argparse: the CLI exits with USAGE_ERROR."""


def _plain(value, text: bool = False):
    """`value` as a report writes it, for JSON or, with text, for a CSV cell.

    Floats, and Surds and XFloats in the float range, round to 15 significant
    digits (a string when text), a Surd once, from its exact value.  Beyond it
    Surds are exact strings and XFloats "m*2**e"; Fractions are exact strings.
    """
    if isinstance(value, dict):
        return {str(k): _plain(v, text) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, text) for v in value]
    if isinstance(value, XFloat):
        in_range = value.is_zero() or -1022 <= value.exp <= 1023  # float64's normal range
        value = float(value) if in_range else f"{value.man:.15g}*2**{value.exp}"
    if isinstance(value, Surd):
        with contextlib.suppress(OverflowError):  # beyond the float range
            if x := float(value):
                # x has value's leading digit unless both round to a power of ten
                value = float(round(value, 14 - math.floor(math.log10(abs(x)))))
    if isinstance(value, float):
        return f"{value:.15g}" if text else float(f"{value:.15g}")
    return str(value) if isinstance(value, (Fraction, Surd)) else value


def _emit(payload, fmt: str, header, rows=None) -> None:
    """Print `payload` as JSON, or as CSV: `header`, then `rows` (default: the payload).

    A dict row gives its values in header order.
    """
    if fmt == "json":
        print(json.dumps(_plain(payload), sort_keys=True, allow_nan=False))
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in [payload] if rows is None else rows:
        writer.writerow(_plain([row[k] for k in header] if isinstance(row, dict) else row,
                               text=True))
    sys.stdout.write(buf.getvalue())


def _add_model_options(parser: argparse.ArgumentParser, weights: bool = True) -> None:
    parser.add_argument("--model", help="built-in model name (gb, tandem, gessel, simple)")
    if weights:
        parser.add_argument("--a", help="weight parameter a of --model as p/q (default 1)")
        parser.add_argument("--b", help="weight parameter b of --model as p/q (default 1)")
    parser.add_argument("--json", dest="json_spec",
                        help="path to a step-set JSON file (or inline JSON)")


def _add_gb_options(parser: argparse.ArgumentParser, start: bool = False) -> None:
    parser.add_argument("--a", default="1", help="GB weight parameter a as p/q")
    parser.add_argument("--b", default="1", help="GB weight parameter b as p/q")
    if start:
        parser.add_argument("--i", type=int, default=0, help="start abscissa")
        parser.add_argument("--j", type=int, default=0, help="start ordinate")


def _resolve_model(args) -> StepSet:
    """The --json step set, or the --model weighted by --a and --b where the command has them."""
    a, b = getattr(args, "a", None), getattr(args, "b", None)
    if args.json_spec:
        if args.model:
            raise _CliError("pass exactly one of --model and --json")
        if a is not None or b is not None:
            raise _CliError("--a and --b weight a --model; a --json step set has its own weights")
        return _read_spec(args.json_spec)
    if not args.model:
        raise _CliError("a model is required: --model NAME or --json PATH")
    return builtin_model(args.model, *(as_fraction("1" if w is None else w) for w in (a, b)))


def _read_spec(text: str) -> StepSet:
    if not text.lstrip().startswith(("{", "[")):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    return stepset_from_json(text)


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"bad point {text!r}; expected comma-separated integers") from exc


def _parse_range(text: str) -> tuple[Fraction, Fraction, int]:
    """lo, step and the number of values lo, lo + step, ... up to hi, none built yet."""
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = as_fraction(lo_s), as_fraction(hi_s), as_fraction(step_s)
    except ValueError as exc:
        raise _CliError(f"bad range {text!r}; expected lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise _CliError(f"bad range {text!r}")
    return lo, step, (hi - lo) // step + 1


def _cmd_count(args) -> int:
    model = _resolve_model(args)
    origin = (0,) * model.dimension
    start = origin if args.start is None else _parse_point(args.start)
    table = count_walks(model, start, args.n, mode=args.mode,
                        track=[origin], guard=args.guard)
    payload = {"mode": args.mode, "n_max": args.n, "start": list(start),
               "totals": [table.total(n) for n in range(args.n + 1)],
               "origin_counts": [table.endpoint(origin, n) for n in range(args.n + 1)]}
    _emit(payload, args.emit, ("n", "total", "origin_count"),
          zip(range(args.n + 1), payload["totals"], payload["origin_counts"]))
    return 0


def _cmd_sample(args) -> int:
    model = _resolve_model(args)
    start = (0,) * model.dimension if args.start is None else _parse_point(args.start)
    mode = args.mode or ("exact" if args.n <= 120 else "scaled")
    table = count_walks(model, start, args.n, mode=mode,
                        keep_layers=True, guard=args.guard)
    walk = sample_walk(table, args.n, args.seed)
    points = walk.points()
    payload = {"seed": args.seed, "start": list(start), "mode": mode,
               "steps": [list(s) for s in walk.steps],
               "end": list(walk.end)}
    coords = tuple(f"x{k+1}" for k in range(model.dimension))
    _emit(payload, args.emit, ("index", *(f"d{c}" for c in coords), *coords),
          [(k, *step, *points[k + 1]) for k, step in enumerate(payload["steps"])])
    return 0


def _cmd_central(args) -> int:
    model = _resolve_model(args)
    if args.action == "check":
        report = central_check(model)
        _emit(report, args.emit, ("central",))
        return 0 if report["central"] else CHECK_FAILED
    if args.action == "solve":
        dec = solve_central(model)
        payload = {
            "alpha": [{str(k): q for k, q in enumerate(m.exponents) if q}
                      for m in dec.alpha],
            "beta": {str(k): q for k, q in enumerate(dec.beta.exponents) if q},
            "alpha_values": list(dec.alpha_values()),
            "beta_value": dec.beta_value(),
            "alpha_exact": dec.alpha_exact(),
            "beta_exact": dec.beta_exact(),
        }
        _emit(payload, args.emit, ("constant", "value"),
              [*((f"alpha{k}", v) for k, v in enumerate(payload["alpha_values"], 1)),
               ("beta", payload["beta_value"])])
        return 0
    # equiv: a --json step set against --json2, a --model against itself at --a2 and --b2
    if args.json_spec:
        if args.a2 is not None or args.b2 is not None:
            raise _CliError("--a2 and --b2 weight the second --model; with --json pass --json2")
        if not args.json2:
            raise _CliError("central equiv --json needs the second step set as --json2")
        other = _read_spec(args.json2)
    elif args.json2:
        raise _CliError("--json2 pairs with --json; compare a --model with --a2 and --b2")
    else:
        other = builtin_model(args.model, *("1" if w is None else w for w in (args.a2, args.b2)))
    equivalent = are_equivalent(model, other)
    _emit({"equivalent": equivalent}, args.emit, ("equivalent",))
    return 0 if equivalent else CHECK_FAILED


def _cmd_classify(args) -> int:
    model = _resolve_model(args)
    result = classify(model, on_ambiguity="report")
    payload = {
        "class": result.family,
        "rho": result.rho_exact if result.rho_exact is not None else result.rho,
        "alpha": result.alpha_exact if result.alpha_exact is not None else result.alpha,
        "critical_point": list(result.critical_point),
        "minimizer": list(result.minimizer),
        "boundary_minimizers": list(result.boundary),
        "covariance": result.covariance,
        "p1": result.p1,
        "drift": list(result.drift),
        "ambiguities": list(result.ambiguities),
    }
    _emit(payload, args.emit, ("class", "rho", "alpha"))
    return 0


def _cmd_diagram(args) -> int:
    (a_lo, a_step, a_count), (b_lo, b_step, b_count) = map(_parse_range,
                                                           (args.a_range, args.b_range))
    if a_count * b_count > args.guard:
        raise ResourceGuardError("diagram grid exceeds the resource guard")
    rows = drift_diagram(lambda a, b: builtin_model(args.model, a, b),
                         [a_lo + k * a_step for k in range(a_count)],
                         [b_lo + k * b_step for k in range(b_count)])
    payload = {"model": args.model, "cells": rows}
    _emit(payload, args.emit, ("a", "b", "dx", "dy", "class"), payload["cells"])
    return 0


def _cmd_gb(args) -> int:
    a, b = as_fraction(args.a), as_fraction(args.b)
    if args.action == "classify":
        cls = gb_classify(a, b)
        payload = {"class": cls.family, "label": cls.label,
                   "rho": cls.rho, "alpha": cls.alpha}
        _emit(payload, args.emit, ("class", "label", "rho", "alpha"))
        return 0
    if args.action == "estimate":
        params = GBParams(a, b, args.i, args.j)
        est = gb_estimate(params, args.n)
        kappa, v_even, v_odd = gb_kappa_V(params)
        payload = {"n": args.n, "log2": est.log2() if not est.is_zero() else None,
                   "mantissa": est.man, "exponent2": est.exp,
                   "kappa": kappa, "V_even": v_even, "V_odd": v_odd}
        _emit(payload, args.emit, ("n", "mantissa", "exponent2"))
        return 0
    if args.action == "harmonic":
        ok = check_harmonicity(GBParams(a, b))
        _emit({"harmonic": ok}, args.emit, ("harmonic",))
        return 0 if ok else CHECK_FAILED
    if args.action == "critical":
        points = gb_critical_points(a, b)
        payload = {"points": [
            {"label": p.label, "stratum": p.stratum, "x": p.xy[0], "y": p.xy[1],
             "t": p.t, "growth": p.growth} for p in points]}
        _emit(payload, args.emit, ("label", "stratum", "x", "y", "t", "growth"),
              payload["points"])
        return 0
    # contributing
    payload = {"contributing": sorted(gb_contributing(a, b))}
    _emit(payload, args.emit, ("label",), [(lbl,) for lbl in payload["contributing"]])
    return 0


def _cmd_conjecture2(args) -> int:
    model = _resolve_model(args)
    report = conjecture2_nullspace(model, args.cap, guard=args.guard)
    payload = {
        "cap": args.cap,
        "verified": report.verified,
        "nullity": report.nullity,
        "basis": report.basis,
        "N_S": report.refutation_length,
    }
    _emit(payload, args.emit, ("cap", "verified", "nullity", "N_S"))
    return 0


def _cmd_validate(args) -> int:
    params = GBParams(as_fraction(args.a), as_fraction(args.b), args.i, args.j)
    runner = validate_totals if args.what == "totals" else validate_excursions
    report = runner(params, args.n_max, args.tolerance, guard=args.guard)
    _emit(report.summary(), args.emit, ("what", "final_ratio", "error_slope", "passed"))
    return 0 if report.passed else CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Reads each option by its full name only (no prefix matching), as do its subparsers."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orthantwalks",
        description="Weighted lattice walks in orthants: counting, central "
                    "weightings, and universality classes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, guard="maximum number of table cells held"):
        p.add_argument("--emit", choices=("json", "csv"), default="json")
        if guard:
            p.add_argument("--guard", type=int, default=DEFAULT_GUARD, help=guard)

    p = sub.add_parser("count", help="count confined walks by length")
    _add_model_options(p)
    p.add_argument("--start", help="comma-separated start point (default: the origin)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "scaled"), default="exact")
    common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("sample", help="draw a random confined walk")
    _add_model_options(p)
    p.add_argument("--start", help="comma-separated start point (default: the origin)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("exact", "scaled"))
    common(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("central", help="centrality checks and the alpha/beta solve")
    p.set_defaults(handler=_cmd_central)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("check", "solve", "equiv"):
        q = actions.add_parser(action)
        _add_model_options(q)
        if action == "equiv":
            q.add_argument("--a2", help="parameter a of the second --model weighting (default 1)")
            q.add_argument("--b2", help="parameter b of the second --model weighting (default 1)")
            q.add_argument("--json2", help="second step-set JSON, beside --json")
        common(q, guard=None)

    p = sub.add_parser("classify", help="universality class by convex minimization")
    _add_model_options(p)
    common(p, guard=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("diagram", help="class of every cell of an (a, b) grid")
    p.add_argument("--model", required=True)
    p.add_argument("--a-range", required=True, help="lo:hi:step with exact rationals")
    p.add_argument("--b-range", required=True, help="lo:hi:step with exact rationals")
    common(p, guard="maximum number of (a, b) cells in the grid")
    p.set_defaults(handler=_cmd_diagram)

    p = sub.add_parser("gb", help="closed-form GB asymptotics")
    p.set_defaults(handler=_cmd_gb)
    actions = p.add_subparsers(dest="action", required=True)
    for action in ("classify", "estimate", "harmonic", "critical", "contributing"):
        q = actions.add_parser(action)
        _add_gb_options(q, start=action == "estimate")
        if action == "estimate":
            q.add_argument("--n", type=int, default=100, help="walk length")
        common(q, guard=None)

    p = sub.add_parser("conjecture2", help="null space of the unweighted walk-count system")
    _add_model_options(p, weights=False)
    p.add_argument("--cap", type=int, default=4)
    common(p)
    p.set_defaults(handler=_cmd_conjecture2)

    p = sub.add_parser("validate", help="counts vs closed-form asymptotics")
    _add_gb_options(p, start=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--what", choices=("totals", "excursions"), default="totals")
    p.add_argument("--tolerance", type=float, default=0.05)
    common(p)
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARD_ABORT
    except (ClassifyError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
