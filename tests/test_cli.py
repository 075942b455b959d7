"""Command-line interface: subcommand behavior, determinism, exit codes."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from orthantwalks import builtin_model, count_walks, stepset_from_json
from orthantwalks import cli
from orthantwalks.cli import build_parser, main
from orthantwalks.gb import GBParams, Surd, gb_critical_points, gb_kappa_V


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGBCommands:
    def test_classify_balanced(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "classify", "--a", "1", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"] == "balanced"
        assert payload["rho"] == "4"
        assert payload["alpha"] == "2"

    def test_classify_free(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "classify", "--a", "2", "--b", "3")
        payload = json.loads(out)
        assert (payload["class"], payload["rho"], payload["alpha"]) == ("free", "14/3", "0")

    def test_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "estimate", "--a", "1", "--b", "1",
                               "--n", "50")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == pytest.approx(8 / 3.14159265358979, rel=1e-10)
        assert payload["mantissa"] >= 1.0 and isinstance(payload["exponent2"], int)

    @pytest.mark.parametrize("exponent,kappa", [(200, 2.82094791773878e+299), (300, None)])
    def test_estimate_beyond_float_weights(self, capsys, exponent, kappa):
        # K of the directed-2 class is about a**3 / 4, far beyond a float
        code, out, err = run_cli(capsys, "gb", "estimate", "--a", str(10 ** exponent),
                                 "--b", "1", "--n", "10")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["kappa"] == kappa
        expected = (11.5 * exponent * math.log2(10) - 1 - math.log2(math.pi) / 2
                    - 1.5 * math.log2(10))
        assert payload["log2"] == pytest.approx(expected, rel=1e-12)

    def test_surds_beyond_float_range_print_exactly(self, capsys):
        # V of directed-1 at a = 10**-200 is about 10**600 and prints as an exact
        # string; at b = 10**400 + 1, sqrt(b) has no float but x of c13+, about
        # 1e-200, does, and the growth 2(b+1)/sqrt(b) is about 2e200
        a = "1/1" + "0" * 200
        code, out, err = run_cli(capsys, "gb", "estimate", "--a", a, "--b", "2",
                                 "--i", "3", "--n", "10")
        assert code == 0, err
        payload = json.loads(out)
        _, v_even, v_odd = gb_kappa_V(GBParams(Fraction(1, 10 ** 200), 2, 3))
        assert isinstance(v_even, Surd)
        assert (payload["V_even"], payload["V_odd"]) == (str(v_even), str(v_odd))
        assert payload["V_even"].endswith("*sqrt(2)")
        assert isinstance(payload["kappa"], float) and isinstance(payload["log2"], float)
        b = 10 ** 400 + 1
        code, out, err = run_cli(capsys, "gb", "critical", "--a", "1", "--b", str(b))
        assert code == 0, err
        points = {p["label"]: p for p in json.loads(out)["points"]}
        exact = {p.label: p for p in gb_critical_points(1, b)}
        assert isinstance(exact["c13+"].xy[0], Surd)
        assert points["c13+"]["x"] == float(exact["c13+"].xy[0]) == 1e-200
        assert points["c13-"]["x"] == -1e-200 and points["c13-"]["growth"] == 2e200
        assert points["c1+"]["y"] == str(b) and points["c13+"]["t"] == str(exact["c13+"].t)
        code, out, err = run_cli(capsys, "gb", "critical", "--a", "1", "--b", str(b),
                                 "--emit", "csv")
        assert code == 0, err
        assert "c13-,V13,-1e-200,1," in out

    def test_harmonic_pass(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "harmonic", "--a", "1", "--b", "4")
        assert code == 0
        assert json.loads(out) == {"harmonic": True}

    def test_harmonic_grid_is_a_usage_error(self, capsys):
        # the verdict holds for every (i, j), so there is no grid to choose
        code, out, err = run_cli(capsys, "gb", "harmonic", "--grid", "6")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --grid 6" in err

    def test_critical_and_contributing(self, capsys):
        code, out, _ = run_cli(capsys, "gb", "critical", "--a", "2", "--b", "3")
        points = json.loads(out)["points"]
        assert {p["label"] for p in points} == {"c1+", "c1-", "c12", "c13+", "c13-", "c123"}
        code, out, _ = run_cli(capsys, "gb", "contributing", "--a", "2", "--b", "3")
        assert json.loads(out) == {"contributing": ["c123"]}

    def test_irrational_sqrt_b_values(self, capsys):
        # directed-1 with b = 2: exact rationals print as "p/q", values in
        # Q(sqrt 2) \ Q as floats with 15 significant digits
        code, out, _ = run_cli(capsys, "gb", "critical", "--a", "1", "--b", "2")
        points = {p["label"]: p for p in json.loads(out)["points"]}
        assert points["c13+"]["t"] == "1/3" and points["c13+"]["y"] == "1"
        assert points["c13+"]["x"] == 0.707106781186548
        assert points["c13-"]["growth"] == 4.24264068711929
        assert points["c12"]["x"] == "1"
        code, out, _ = run_cli(capsys, "gb", "estimate", "--a", "1", "--b", "2",
                               "--i", "1", "--j", "1", "--emit", "json")
        assert json.loads(out)["V_odd"] == "54"
        code, out, _ = run_cli(capsys, "gb", "critical", "--a", "1", "--b", "2",
                               "--emit", "csv")
        assert "c13+,V13,0.707106781186548,1,1/3,4.24264068711929" in out.splitlines()


class TestCount:
    def test_gb_totals(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--model", "gb", "--a", "1", "--b", "1",
                               "--start", "0,0", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["totals"] == [1, 1, 3, 6]
        assert payload["origin_counts"] == [1, 0, 1, 0]

    def test_csv_emission(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--model", "gb", "--n", "2",
                               "--emit", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,total,origin_count"
        assert lines[1:] == ["0,1,1", "1,1,0", "2,3,1"]

    def test_json_model_spec(self, capsys, tmp_path):
        spec = {"dimension": 2, "steps": [
            {"v": [1, 0], "w": "1"}, {"v": [-1, 0], "w": "1"},
            {"v": [-1, 1], "w": "1"}, {"v": [1, -1], "w": "1"}]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "count", "--json", str(path), "--n", "3")
        assert code == 0
        assert json.loads(out)["totals"] == [1, 1, 3, 6]

    def test_guard_abort(self, capsys):
        code, _, err = run_cli(capsys, "count", "--model", "gb", "--n", "4000",
                               "--mode", "scaled", "--guard", "1000")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("spec", ['{"dimension": 2, "steps": 5}',
                                      '{"dimension": 2, "steps": [{"v": [1.5, 0]}]}',
                                      '{"dimension": 2.7, "steps": [{"v": [1, 0]}]}',
                                      '{"dimension": "2", "steps": [{"v": [1, 0]}]}',
                                      '{"dimension": 2, "steps": [{"v": [1, 0], "weight": "5"},'
                                      ' {"v": [-1, 0]}, {"v": [-1, 1]}, {"v": [1, -1]}]}',
                                      '{"dimension": 1, "steps": [{"v": [1]}, {"v": [-1]}],'
                                      ' "name": "walk"}',
                                      '{"dimension": true, "steps": [{"v": [true], "w": true},'
                                      ' {"v": [-1], "w": "2"}]}',
                                      '{"dimension": 1, "steps": [{"v": [1], "w": true},'
                                      ' {"v": [-1], "w": "2"}]}'])
    def test_malformed_spec_is_a_usage_error(self, capsys, spec):
        code, out, err = run_cli(capsys, "count", "--json", spec, "--n", "3")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("spec", ["[1, 2]", ' ["steps"]', "[]"])
    def test_inline_json_that_is_not_an_object(self, capsys, spec):
        # a value starting with "[" is inline JSON, not a file name
        code, out, err = run_cli(capsys, "count", "--json", spec, "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: step-set JSON must be an object\n"

    def test_conjecture2_guard_abort(self, capsys):
        code, _, err = run_cli(capsys, "conjecture2", "--model", "gb", "--cap", "5",
                               "--guard", "2")
        assert code == 3
        assert "guard" in err

    def test_scaled_overflow_is_an_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "count", "--model", "gb", "--a", str(10 ** 200),
                                   "--mode", "scaled", "--n", "6")
        assert code == 2
        assert err.startswith("error:") and "float64 range" in err

    def test_scaled_counts_beyond_float_range(self, capsys):
        # GB totals pass 2**1024 at n = 521 and origin counts at n = 532; with
        # weights 2**-600 the simple walk's counts fall below 2**-1022 from n = 2
        def strict(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        tiny = json.dumps({"dimension": 2, "steps": [
            {"v": v, "w": f"1/{2 ** 600}"} for v in ([1, 0], [-1, 0], [0, 1], [0, -1])]})
        for argv, model, n in ((("--model", "gb"), builtin_model("gb"), 540),
                               (("--json", tiny), stepset_from_json(tiny), 6)):
            code, out, err = run_cli(capsys, "count", *argv, "--n", str(n), "--mode", "scaled")
            assert code == 0, err
            payload = json.loads(out, parse_constant=strict)
            table = count_walks(model, (0, 0), n, "scaled", track=[(0, 0)])
            for key, counts in (("totals", [table.total(k) for k in range(n + 1)]),
                                ("origin_counts", [table.endpoint((0, 0), k)
                                                   for k in range(n + 1)])):
                want = [float(f"{float(x):.15g}")
                        if x.is_zero() or -1022 <= x.exp <= 1023 else f"{x.man:.15g}*2**{x.exp}"
                        for x in counts]
                assert payload[key] == want, key
            code, text, err = run_cli(capsys, "count", *argv, "--n", str(n), "--mode", "scaled",
                                      "--emit", "csv")
            assert code == 0, err
            _, *rows = csv.reader(io.StringIO(text))
            assert rows == [[str(k), cell(t), cell(e)] for k, (t, e)
                            in enumerate(zip(payload["totals"], payload["origin_counts"]))]
            if n == 540:
                totals, origin = payload["totals"], payload["origin_counts"]
                assert isinstance(totals[520], float) and totals[521].endswith("*2**1025")
                assert isinstance(origin[530], float) and origin[532].endswith("*2**1026")
            else:
                assert payload["totals"][1] == pytest.approx(2 * 2.0 ** -600, rel=1e-14)
                assert all("*2**-" in t for t in payload["totals"][2:])

    def test_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "3")
        assert code == 2

    def test_exactly_one_model_source(self, capsys):
        code, _, err = run_cli(capsys, "count", "--model", "gb",
                               "--json", '{"dimension": 2, "steps": []}', "--n", "2")
        assert code == 2
        assert "exactly one" in err


class TestSample:
    def test_deterministic(self, capsys):
        args = ("sample", "--model", "gb", "--n", "12", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_csv_one_step_per_row(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--model", "gb", "--n", "5",
                               "--seed", "3", "--emit", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + five steps
        assert lines[0].startswith("index,")


class TestCentral:
    def test_check_central(self, capsys):
        code, out, _ = run_cli(capsys, "central", "check", "--model", "gb",
                               "--a", "2", "--b", "3")
        assert code == 0
        assert json.loads(out)["central"] is True

    def test_check_non_central_exits_one(self, capsys, tmp_path):
        spec = {"dimension": 2, "steps": [
            {"v": [1, 0], "w": "2"}, {"v": [-1, 0], "w": "1/2"},
            {"v": [-1, 1], "w": "3"}, {"v": [1, -1], "w": "1"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(capsys, "central", "check", "--json", str(path))
        assert code == 1
        payload = json.loads(out)
        assert payload["central"] is False
        assert "violated_relation" in payload

    def test_solve_exponent_maps(self, capsys):
        code, out, _ = run_cli(capsys, "central", "solve", "--model", "gb",
                               "--a", "2", "--b", "3")
        payload = json.loads(out)
        assert payload["alpha_exact"] == ["2", "3"]
        assert payload["beta_exact"] == "1"
        assert all(isinstance(k, str) and "/" in v or v.lstrip("-").isdigit()
                   for m in payload["alpha"] for k, v in m.items())

    def test_equiv(self, capsys):
        code, out, _ = run_cli(capsys, "central", "equiv", "--model", "gb",
                               "--a", "2", "--b", "3", "--a2", "1", "--b2", "1")
        assert code == 0
        assert json.loads(out)["equivalent"] is True

    def test_equiv_json_needs_json2(self, capsys):
        code, out, err = run_cli(capsys, "central", "equiv", "--json", ONE_D_SPEC)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--json2" in err


class TestClassifyAndDiagram:
    def test_classify_reluctant(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--model", "gb",
                               "--a", "1/2", "--b", "1/2")
        payload = json.loads(out)
        assert payload["class"] == "reluctant"
        assert payload["p1"] == pytest.approx(4.0, abs=1e-9)

    def test_weight_beyond_float_range_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--model", "gb",
                               "--a", str(10 ** 400), "--b", "1")
        assert code == 2
        assert err.startswith("error:") and "float range" in err

    def test_diagram_decides_a_cell_beyond_float_range(self, capsys):
        # the exact drift and the central rule decide GB(10**400, 1) with no float
        code, out, err = run_cli(capsys, "diagram", "--model", "gb",
                                 "--a-range", "1e400:1e400:1", "--b-range", "1:1:1")
        assert code == 0, err
        assert [cell["class"] for cell in json.loads(out)["cells"]] == ["directed"]

    def test_diagram_guard_checked_before_grid_is_built(self):
        # 10**12 values would exhaust any memory: the child gets a 1 GiB address
        # space, so building the grid shows up as a failure, not as a hang
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "orthantwalks.cli", "diagram", "--model", "gb",
             "--a-range", "1:1000000000000:1", "--b-range", "1:1:1", "--guard", "10"],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=20)
        assert result.returncode == 3, result.stderr
        assert result.stderr == "error: diagram grid exceeds the resource guard\n"

    @pytest.mark.parametrize("argv,code,message", [
        (("count", "--model", "gb", "--start", "0,x", "--n", "2"), 2,
         "bad point '0,x'; expected comma-separated integers"),
        (("diagram", "--model", "gb", "--a-range", "1:2", "--b-range", "1:1:1"), 2,
         "bad range '1:2'; expected lo:hi:step"),
        (("diagram", "--model", "gb", "--a-range", "1:0:1", "--b-range", "1:1:1"), 2,
         "bad range '1:0:1'"),
        (("diagram", "--model", "gb", "--a-range", "1:100:1", "--b-range", "1:100:1",
          "--guard", "10"), 3, "diagram grid exceeds the resource guard"),
    ], ids=["point", "range-parts", "range-order", "diagram-guard"])
    def test_rejected_argument(self, capsys, argv, code, message):
        assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_diagram_csv(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--model", "tandem",
                               "--a-range", "1/2:2:1/2", "--b-range", "1/2:2:1/2",
                               "--emit", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,dx,dy,class"
        assert len(lines) == 17  # header + 4x4 grid
        assert any(line.startswith("1,1,0,0,balanced") for line in lines)


class TestConjectureAndValidate:
    def test_conjecture2_gb(self, capsys):
        code, out, _ = run_cli(capsys, "conjecture2", "--model", "gb", "--cap", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["N_S"] == 3
        assert payload["verified"] is True and payload["basis"] == []

    def test_conjecture2_reordered_tandem(self, capsys):
        spec = json.dumps({"dimension": 2,
                           "steps": [{"v": [0, -1]}, {"v": [-1, 1]}, {"v": [1, 0]}]})
        code, out, _ = run_cli(capsys, "conjecture2", "--json", spec, "--cap", "4")
        assert code == 0
        assert json.loads(out)["N_S"] == 3

    def test_validate_pass_and_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--a", "1", "--b", "1",
                               "--n-max", "150", "--what", "excursions",
                               "--tolerance", "0.2")
        assert code == 0
        assert json.loads(out)["passed"] is True
        code, out, _ = run_cli(capsys, "validate", "--a", "1", "--b", "1",
                               "--n-max", "60", "--tolerance", "1e-12")
        assert code == 1

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        # nan and inf printed NaN and Infinity, which are not JSON, and inf passed any run
        code, out, err = run_cli(capsys, "validate", "--a", "1", "--b", "1", "--n-max", "60",
                                 "--tolerance", tolerance)
        assert (code, out) == (2, "")
        assert err == f"error: tolerance must be finite and positive, got {float(tolerance)}\n"

    def test_determinism_byte_identical(self, capsys):
        args = ("validate", "--a", "1", "--b", "1", "--n-max", "80", "--tolerance", "0.2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


ONE_D_SPEC = json.dumps({"dimension": 1, "steps": [{"v": [1]}, {"v": [-1], "w": 2},
                                                    {"v": [2], "w": 3}]})
THREE_D_SPEC = json.dumps({"dimension": 3, "steps": [
    {"v": [1, 0, 0]}, {"v": [0, 1, 0], "w": "1/2"}, {"v": [0, 0, 1]},
    {"v": [-1, -1, -1], "w": 3}, {"v": [-1, 1, 0]}, {"v": [0, -1, 1], "w": 2}]})
GB_SPEC = json.dumps({"dimension": 2, "steps": [{"v": [1, 0]}, {"v": [-1, 0]},
                                               {"v": [-1, 1]}, {"v": [1, -1]}]})
SMOKE_COMMANDS = [("count", "--n", "6"), ("count", "--n", "6", "--mode", "scaled"),
                  ("sample", "--n", "6", "--mode", "exact"),
                  ("sample", "--n", "6", "--mode", "scaled"),
                  ("central", "check"), ("central", "solve"), ("central", "equiv"),
                  ("classify",), ("conjecture2", "--cap", "3")]


class TestOtherDimensions:
    @pytest.mark.parametrize("command", SMOKE_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("spec,start", [(ONE_D_SPEC, "0"), (THREE_D_SPEC, "0,0,0")],
                             ids=["1d", "3d"])
    def test_answers_without_traceback(self, capsys, spec, start, command):
        argv = [*command, "--json", spec]
        if command[0] in ("count", "sample"):
            argv += ["--start", start]
        if command[-1] == "equiv":
            argv += ["--json2", spec]
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 1, 2) and "Traceback" not in err, err

    @pytest.mark.parametrize("spec,origin", [(ONE_D_SPEC, [0]), (THREE_D_SPEC, [0, 0, 0])],
                             ids=["1d", "3d"])
    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_default_start_is_the_origin(self, capsys, command, spec, origin):
        code, out, err = run_cli(capsys, command, "--json", spec, "--n", "3")
        assert code == 0, err
        assert json.loads(out)["start"] == origin


def cell(value) -> str:
    """A JSON payload value as the CSV report writes it."""
    return f"{value:.15g}" if isinstance(value, float) else str(value)


class TestCsvMatchesJson:
    """Each multi-row CSV report lists the values of its JSON payload."""

    @staticmethod
    def both(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        code, text, err = run_cli(capsys, *argv, "--emit", "csv")
        assert code == 0, err
        header, *rows = csv.reader(io.StringIO(text))
        return json.loads(out), header, rows

    @pytest.mark.parametrize("mode", ["exact", "scaled"])
    def test_count(self, capsys, mode):
        payload, header, rows = self.both(capsys, "count", "--model", "gessel", "--a", "2/3",
                                          "--b", "5", "--n", "9", "--mode", mode)
        assert header == ["n", "total", "origin_count"]
        assert rows == [[str(n), cell(t), cell(e)] for n, (t, e)
                        in enumerate(zip(payload["totals"], payload["origin_counts"]))]

    @pytest.mark.parametrize("mode", ["exact", "scaled"])
    def test_sample(self, capsys, mode):
        payload, header, rows = self.both(capsys, "sample", "--model", "tandem", "--n", "9",
                                          "--start", "1,2", "--seed", "4", "--mode", mode)
        assert header == ["index", "dx1", "dx2", "x1", "x2"]
        assert [row[0] for row in rows] == [str(k) for k in range(9)]
        assert [row[1:3] for row in rows] == [[str(c) for c in s] for s in payload["steps"]]
        assert rows[-1][3:] == [str(c) for c in payload["end"]]

    def test_central_solve(self, capsys):
        payload, header, rows = self.both(capsys, "central", "solve", "--model", "gb",
                                          "--a", "2", "--b", "7/3")
        assert header == ["constant", "value"]
        assert rows == ([[f"alpha{k}", cell(v)] for k, v in enumerate(payload["alpha_values"], 1)]
                        + [["beta", cell(payload["beta_value"])]])

    def test_diagram(self, capsys):
        payload, header, rows = self.both(capsys, "diagram", "--model", "gb",
                                          "--a-range", "1/2:2:1/2", "--b-range", "1:3:1")
        assert header == ["a", "b", "dx", "dy", "class"]
        assert rows == [[cell(c[k]) for k in header] for c in payload["cells"]]

    @pytest.mark.parametrize("a,b", [("1", "2"), ("1/2", "1/2")])
    def test_gb_critical_and_contributing(self, capsys, a, b):
        payload, header, rows = self.both(capsys, "gb", "critical", "--a", a, "--b", b)
        assert header == ["label", "stratum", "x", "y", "t", "growth"]
        assert rows == [[cell(p[k]) for k in header] for p in payload["points"]]
        payload, header, rows = self.both(capsys, "gb", "contributing", "--a", a, "--b", b)
        assert header == ["label"] and rows == [[label] for label in payload["contributing"]]


@pytest.mark.parametrize("argv", [("classify", "--model", "gb", "--guard", "5"),
                                  ("central", "check", "--model", "gb", "--guard", "5"),
                                  ("gb", "classify", "--guard", "5"),
                                  ("validate", "--model", "gb", "--n-max", "20"),
                                  ("gb", "classify", "--i", "3"),
                                  ("gb", "harmonic", "--n", "9"),
                                  ("central", "check", "--model", "gb", "--a2", "2"),
                                  ("conjecture2", "--model", "gb", "--a", "2", "--cap", "3")],
                         ids=" ".join)
def test_flags_no_handler_reads_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv,option", [
    (("count", "--json", GB_SPEC, "--a", "2", "--n", "3"), "--a"),
    (("central", "equiv", "--model", "gb", "--json2", GB_SPEC), "--json2"),
    (("central", "equiv", "--json", GB_SPEC, "--json2", GB_SPEC, "--a2", "2"), "--a2"),
], ids=["a-with-json", "json2-with-model", "a2-with-json"])
def test_options_of_the_other_model_source_are_usage_errors(capsys, argv, option):
    # a --json step set carries its weights, and --json2 is the second one only beside --json
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + option)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_report_never_prints_a_non_json_number(capsys, value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit({"x": value}, "json", ("x",))
    assert capsys.readouterr().out == ""


class ReadRecorder(argparse.Namespace):
    """A parse result that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def subcommand_groups(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def parser_tree(parser, path=()):
    """{command path: parser} for `parser` and every parser below it."""
    tree = {path: parser}
    for group in subcommand_groups(parser):
        for name, sub in group.choices.items():
            tree.update(parser_tree(sub, (*path, name)))
    return tree


def parser_leaves(parser):
    """{command path: parser} for every parser below `parser` with no subcommands."""
    return {path: p for path, p in parser_tree(parser).items() if not subcommand_groups(p)}


# a minimal argv for every leaf, and a --json one for every leaf that takes --json
LEAF_ARGVS = [
    ("count", "--model", "gb", "--n", "2"),
    ("count", "--json", GB_SPEC, "--n", "2"),
    ("sample", "--model", "gb", "--n", "2"),
    ("sample", "--json", GB_SPEC, "--n", "2"),
    ("central", "check", "--model", "gb"),
    ("central", "check", "--json", GB_SPEC),
    ("central", "solve", "--model", "gb"),
    ("central", "solve", "--json", GB_SPEC),
    ("central", "equiv", "--model", "gb"),
    ("central", "equiv", "--json", GB_SPEC, "--json2", GB_SPEC),
    ("classify", "--model", "gb"),
    ("classify", "--json", GB_SPEC),
    ("diagram", "--model", "gb", "--a-range", "1:1:1", "--b-range", "1:1:1"),
    *(("gb", action) for action in ("classify", "estimate", "harmonic", "critical",
                                    "contributing")),
    ("conjecture2", "--model", "gb", "--cap", "2"),
    ("conjecture2", "--json", GB_SPEC, "--cap", "2"),
    ("validate", "--n-max", "52"),
]


def leaf_of(leaves, argv):
    """The longest command path at the start of `argv`."""
    return next(argv[:k] for k in range(len(argv), 0, -1) if argv[:k] in leaves)


def test_every_leaf_has_an_argv():
    leaves = parser_leaves(build_parser())
    assert set(leaves) == {leaf_of(leaves, argv) for argv in LEAF_ARGVS}
    takes_json = {leaf for leaf, p in leaves.items() if "--json" in p._option_string_actions}
    assert takes_json == {leaf_of(leaves, argv) for argv in LEAF_ARGVS if "--json" in argv}


@pytest.mark.parametrize("argv", LEAF_ARGVS,
                         ids=lambda argv: " ".join("SPEC" if a == GB_SPEC else a for a in argv))
def test_handler_reads_every_option_it_parses(argv):
    args = build_parser().parse_args(argv, namespace=ReadRecorder())
    parsed = {name for name in vars(args) if not name.startswith("_")}
    args._reads.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        args.handler(args)
    assert parsed - {"command", "action", "handler"} - args._reads == set()


# a value each option with one accepts, beside a leaf's argv in LEAF_ARGVS
OPTION_VALUES = {"--model": "gb", "--json": GB_SPEC, "--json2": GB_SPEC, "--start": "0,0",
                 "--seed": "3", "--mode": "exact", "--emit": "csv", "--guard": "100000",
                 "--a-range": "1:2:1", "--b-range": "1:1:1", "--cap": "2", "--n-max": "52",
                 "--what": "totals", "--tolerance": "0.5"}


def spelled(path, parser, option, spelling):
    """An argv that passes `option` as `spelling` to the parser at `path`: a leaf's argv
    from LEAF_ARGVS (one that holds the option, if any) with the option's spelling
    changed there or the option added, or `path` and the option alone above the leaves."""
    leaves = parser_leaves(build_parser())
    argvs = [argv for argv in LEAF_ARGVS if leaf_of(leaves, argv) == path] or [path]
    argv = next((a for a in argvs if option in a), argvs[0])
    if option in argv:
        return tuple(spelling if a == option else a for a in argv)
    takes_value = parser._option_string_actions[option].nargs != 0
    return (*argv, spelling, *([OPTION_VALUES[option]] if takes_value else []))


def long_options(parser):
    return sorted(o for o in parser._option_string_actions if o.startswith("--"))


# every spelling argparse's prefix matching would read as exactly one long option
ABBREVIATIONS = [
    (path, option, option[:k])
    for path, parser in parser_tree(build_parser()).items() for option in long_options(parser)
    for k in range(3, len(option))
    if [o for o in long_options(parser) if o.startswith(option[:k])] == [option]]


def test_abbreviations_cover_every_parser():
    assert len(parser_tree(build_parser())) == 17
    assert {path for path, *_ in ABBREVIATIONS} == set(parser_tree(build_parser()))
    assert len(ABBREVIATIONS) >= 199


@pytest.mark.parametrize("path,option,spelling", ABBREVIATIONS,
                         ids=[" ".join((*path, spelling)) for path, _, spelling in ABBREVIATIONS])
def test_an_abbreviated_option_is_a_usage_error(capsys, path, option, spelling):
    # one spelling per option: `diagram --a` is not `--a-range`, `validate --n` not `--n-max`
    parser = parser_tree(build_parser())[path]
    code, out, err = run_cli(capsys, *spelled(path, parser, option, spelling))
    assert code == 2 and out == ""
    assert err.startswith("usage:")


ABBREVIATED = sorted({(path, option) for path, option, _ in ABBREVIATIONS})


@pytest.mark.parametrize("path,option", ABBREVIATED,
                         ids=[" ".join((*path, option)) for path, option in ABBREVIATED])
def test_the_full_option_name_is_accepted(capsys, path, option):
    parser = parser_tree(build_parser())[path]
    code, out, err = run_cli(capsys, *spelled(path, parser, option, option))
    assert code in (0, 1) and out, err


@pytest.mark.parametrize("argv", [("diagram", "--model", "gb", "--a", "1:2:1", "--b", "1:1:1"),
                                  ("validate", "--n", "60", "--tolerance", "0.5")],
                         ids=" ".join)
def test_a_prefix_of_another_option_is_not_that_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "the following arguments are required" in err


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--version",), ("gb", "-h"),
                                  ("central", "equiv", "--help")], ids=" ".join)
def test_help_and_version(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.strip()


def readme_examples():
    """(command, the comment below it or None) for each `orthantwalks` line of README's
    "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in lines.splitlines() if line.strip()]
    return [(line, nxt[2:] if nxt.startswith("# ") else None)
            for line, nxt in zip(lines, lines[1:] + [""]) if line.startswith("orthantwalks ")]


README_EXAMPLES = readme_examples()
CSV_HEADERS = {"sample": "index,dx1,dx2,x1,x2", "diagram": "a,b,dx,dy,class"}


def test_readme_lists_every_example():
    assert len(README_EXAMPLES) == 14
    assert [comment for _, comment in README_EXAMPLES if comment] == [
        '{"alpha": "2", "class": "balanced", "label": "balanced", "rho": "4"}',
        "totals [1, 1, 3, 6], origin counts [1, 0, 1, 0]",
        '{"harmonic": true}: V is rho-harmonic at every (i, j)']


@pytest.mark.parametrize("command,comment", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_runs(capsys, command, comment):
    argv = shlex.split(command)[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "--emit" in argv:
        assert argv[argv.index("--emit") + 1] == "csv"
        assert out.splitlines()[0] == CSV_HEADERS[argv[0]]
        return
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if comment and comment.startswith("{"):  # the report, then what it means
        assert comment.startswith(out.rstrip("\n"))
    elif comment:
        assert comment == (f"totals {payload['totals']}, "
                           f"origin counts {payload['origin_counts']}")
