"""Counting tables: DP vs brute force, accessors, scaled arithmetic, sampling."""

import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from orthantwalks import (ResourceGuardError, StepSetError, XFloat, brute_force_count,
                          builtin_model, central_weights, count_walks, is_singular,
                          make_stepset, sample_walk)
from orthantwalks import counting

LONG_STEP_SET = ((2, 2), (1, 1), (-1, 0), (0, -1))
SIMPLE = ((1, 0), (-1, 0), (0, 1), (0, -1))
THREE_D = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 1, 0), (0, -1, 1))
# the 16-step 4-D set of the benchmark's null-space jobs
FOUR_D = tuple([tuple(int(k == i) for k in range(4)) for i in range(4)]
               + sorted(set(itertools.permutations((-1, 1, 1, 0)))))


def all_models():
    out = []
    for name in ("gb", "tandem", "gessel", "simple"):
        out.append((name, builtin_model(name, 1, 1)))
        out.append((name + "(2,3)", builtin_model(name, 2, 3)))
    out.append(("longstep", make_stepset(LONG_STEP_SET, [1] * 4)))
    out.append(("longstep(2,3)", make_stepset(LONG_STEP_SET, central_weights(LONG_STEP_SET, (2, 3)))))
    return out


def offset_cases():
    """Models, starts and lengths whose layer windows sit away from the origin or the plane."""
    return [
        ("3d", make_stepset(THREE_D, [1] * 6), (0, 0, 0), 6),
        ("3d weighted from (1,0,2)", make_stepset(THREE_D, [1, 2, F(1, 3), 1, 1, 5]), (1, 0, 2), 5),
        ("4d 16 steps", make_stepset(FOUR_D, [1] * 16), (0, 0, 0, 0), 4),
        ("gb(2,3) from (2,1)", builtin_model("gb", 2, 3), (2, 1), 6),
        ("gessel from (0,3)", builtin_model("gessel", 1, 1), (0, 3), 6),
        ("longstep from (2,1)", make_stepset(LONG_STEP_SET, [1] * 4), (2, 1), 6),
        ("longstep(1/2,5/7) from (0,3)",
         make_stepset(LONG_STEP_SET, central_weights(LONG_STEP_SET, (F(1, 2), F(5, 7)))), (0, 3), 6),
    ]


# step sets whose steps lie on a lattice coarser than Z^d along some axis,
# with the per-axis spacing (gcd of the step differences) each one has
STRIDED_CASES = [
    ("stride (2,2) from (1,3)", make_stepset(((2, 0), (-2, 2), (0, -2), (2, -2)), [1, 2, F(1, 3), 1]),
     (1, 3), 6, (2, 2)),
    ("stride (2,2) odd steps from (1,1)", make_stepset(((3, 1), (-1, 3), (1, -1), (3, -1)), [1] * 4),
     (1, 1), 6, (2, 2)),
    ("stride (3,1) from (2,1)", make_stepset(((3, 0), (0, 1), (-3, -1)), [1, F(1, 2), 3]),
     (2, 1), 8, (3, 1)),
    ("3d stride (1,1,3) from (0,1,2)",
     make_stepset(((1, 0, 1), (0, 1, -2), (-1, -1, 1), (0, 0, -2)), [2, 1, 1, F(1, 2)]),
     (0, 1, 2), 5, (1, 1, 3)),
]

ORACLE_CASES = ([(name, model, (0, 0), 6) for name, model in all_models()] + offset_cases()
                + [case[:4] for case in STRIDED_CASES])


class TestOracle:
    @pytest.mark.parametrize("name,model,start,n_max", ORACLE_CASES,
                             ids=[f"{case[0]}-model{i}" for i, case in enumerate(ORACLE_CASES)])
    def test_dp_equals_brute_force(self, name, model, start, n_max):
        table = count_walks(model, start, n_max, mode="exact")
        for n in range(n_max + 1):
            assert table.layer(n) == brute_force_count(model, start, n), (name, n)

    def test_brute_force_guard(self):
        with pytest.raises(ResourceGuardError):
            brute_force_count(builtin_model("gb", 1, 1), (0, 0), 50)

    def test_brute_force_n0(self):
        assert brute_force_count(builtin_model("gb", 1, 1), (2, 1), 0) == {(2, 1): 1}

    def test_brute_force_gb_n2(self):
        got = brute_force_count(builtin_model("gb", 1, 1), (0, 0), 2)
        assert got == {(2, 0): 1, (0, 0): 1, (0, 1): 1}


class TestAccessors:
    def test_gb_totals_by_length(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 3)
        assert [table.total(n) for n in range(4)] == [1, 1, 3, 6]

    def test_gb_excursions(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 4)
        assert [table.endpoint((0, 0), n) for n in (0, 2, 4)] == [1, 1, 3]
        assert all(table.endpoint((0, 0), n) == 0 for n in (1, 3))

    def test_weighted_single_step(self):
        table = count_walks(builtin_model("gb", 2, 3), (0, 0), 1)
        assert table.endpoint((1, 0), 1) == 2
        assert table.total(1) == 2

    def test_half_weight_total(self):
        table = count_walks(builtin_model("gb", F(1, 2), F(1, 2)), (0, 0), 1)
        assert table.total(1) == F(1, 2)

    def test_tandem_cycle(self):
        table = count_walks(builtin_model("tandem", 1, 1), (0, 0), 3)
        assert table.endpoint((0, 0), 3) == 1

    def test_out_of_range(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 3)
        with pytest.raises(ValueError):
            table.total(4)

    def test_start_outside_orthant(self):
        with pytest.raises(StepSetError):
            count_walks(builtin_model("gb", 1, 1), (-1, 0), 2)

    @pytest.mark.parametrize("call,error,message", [
        (lambda gb: count_walks(gb, (0,), 2), StepSetError, "start point dimension mismatch"),
        (lambda gb: count_walks(gb, (0, 0), -1), ValueError, "n_max must be nonnegative"),
        (lambda gb: count_walks(gb, (0, 0), 2, mode="fast"), ValueError, "unknown mode 'fast'"),
        (lambda gb: brute_force_count(gb, (0, -1), 2), StepSetError,
         "start (0, -1) lies outside the orthant"),
        (lambda gb: brute_force_count(gb, (0,), 2), StepSetError,
         "start point dimension mismatch"),
        (lambda gb: brute_force_count(gb, (0, 0, 0), 2), StepSetError,
         "start point dimension mismatch"),
        (lambda gb: count_walks(gb, (0, 0), 4, track=[(0,)]), StepSetError,
         "tracked point dimension mismatch"),
        (lambda gb: count_walks(gb, (0, 0), 4).endpoint((0, 0, 0), 4), StepSetError,
         "endpoint dimension mismatch"),
        (lambda gb: count_walks(gb, (0, 0), 4, "scaled", keep_layers=True).endpoint((0, 0, 0), 4),
         StepSetError, "endpoint dimension mismatch"),
        (lambda gb: count_walks(gb, (True, False), 3), StepSetError,
         "start point coordinates must be ints, not bools"),
        (lambda gb: count_walks(gb, (0, True), 3, "scaled"), StepSetError,
         "start point coordinates must be ints, not bools"),
        (lambda gb: count_walks(gb, (0, 0), 3, track=[(1, 0), (False, 0)]), StepSetError,
         "tracked point coordinates must be ints, not bools"),
        (lambda gb: brute_force_count(gb, (True, False), 3), StepSetError,
         "start point coordinates must be ints, not bools"),
    ], ids=["start-dimension", "negative-n-max", "mode", "brute-force-start",
            "brute-force-1d", "brute-force-3d", "tracked-dimension", "endpoint-exact-dimension",
            "endpoint-scaled-dimension", "start-bool", "start-bool-scaled", "tracked-bool",
            "brute-force-bool"])
    def test_rejected_input(self, call, error, message):
        with pytest.raises(error) as info:
            call(builtin_model("gb"))
        assert type(info.value) is error and str(info.value) == message

    def test_start_offset(self):
        table = count_walks(builtin_model("gb", 1, 1), (2, 1), 2)
        assert table.layer(0) == {(2, 1): 1}
        assert table.total(1) == 4  # all four steps stay inside from (2,1)


class TestScaledMode:
    def test_agrees_with_exact_unweighted(self):
        model = builtin_model("gb", 1, 1)
        exact = count_walks(model, (0, 0), 200, mode="exact")
        scaled = count_walks(model, (0, 0), 200, mode="scaled", track=[(0, 0)])
        for n in range(201):
            t_exact = exact.total(n)
            assert abs(float(scaled.total(n)) / float(t_exact) - 1) <= 1e-10
            e_exact = exact.endpoint((0, 0), n)
            e_scaled = scaled.endpoint((0, 0), n)
            if e_exact == 0:
                assert e_scaled.is_zero()
            else:
                assert abs(float(e_scaled) / float(e_exact) - 1) <= 1e-10

    def test_agrees_with_exact_weighted(self):
        model = builtin_model("gb", 2, 3)
        exact = count_walks(model, (0, 0), 100, mode="exact")
        scaled = count_walks(model, (0, 0), 100, mode="scaled")
        for n in range(101):
            assert abs(float(scaled.total(n)) / float(exact.total(n)) - 1) <= 1e-10

    @pytest.mark.parametrize("name,model,start,n_max", offset_cases(),
                             ids=[case[0] for case in offset_cases()])
    def test_offset_windows_agree_with_exact(self, name, model, start, n_max):
        n_max *= 2
        exact = count_walks(model, start, n_max, mode="exact")
        scaled = count_walks(model, start, n_max, mode="scaled", track=[start])
        kept = count_walks(model, start, n_max, mode="scaled", keep_layers=True)
        for n in range(n_max, -1, -1):
            assert float(scaled.total(n)) == pytest.approx(float(exact.total(n)), rel=1e-10)
            assert float(scaled.endpoint(start, n)) == pytest.approx(
                float(exact.endpoint(start, n)), rel=1e-10)
            for point, count in exact.layer(n).items():
                assert float(kept.endpoint(point, n)) == pytest.approx(float(count), rel=1e-10)
            beyond = tuple(c + 2 * n + 1 for c in start)  # no step exceeds 2
            assert kept.endpoint(beyond, n).is_zero()
            assert kept.endpoint((-1,) + start[1:], n).is_zero()

    def test_survives_large_n(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 1500, mode="scaled")
        total = table.total(1500)
        # growth 4^n n^-2: log2 = 3000 - 2 log2(1500) + log2(8/pi) + o(1)
        assert total.log2() == pytest.approx(3000 - 2 * math.log2(1500) + math.log2(8 / math.pi), abs=0.05)

    def test_whole_scaled_layer_matches_exact(self):
        # within the stated n * 2**-50 bound of the exact layer, point for point
        model = builtin_model("gb", F(2, 3), F(5, 7))
        exact = count_walks(model, (1, 2), 60, mode="exact")
        scaled = count_walks(model, (1, 2), 60, mode="scaled", keep_layers=True)
        for n in (0, 1, 7, 33, 59, 60):
            want, got = exact.layer(n), scaled.layer(n)
            assert got.keys() == want.keys()
            for point, count in want.items():
                assert isinstance(got[point], XFloat)
                assert abs(float(got[point]) / float(count) - 1) <= 60 * 2.0 ** -50
                assert got[point] == scaled.endpoint(point, n)

    def test_whole_scaled_layer_needs_kept_layers(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 10, mode="scaled")
        with pytest.raises(ValueError, match="keep_layers"):
            table.layer(5)

    def test_untracked_endpoint_errors_without_layers(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 10, mode="scaled")
        with pytest.raises(ValueError, match="track"):
            table.endpoint((1, 0), 5)

    def test_checkpointed_endpoint_access(self):
        model = builtin_model("gb", 1, 1)
        exact = count_walks(model, (0, 0), 40, mode="exact")
        scaled = count_walks(model, (0, 0), 40, mode="scaled", keep_layers=True)
        for n, point in [(7, (1, 0)), (20, (2, 1)), (33, (3, 0)), (40, (0, 0))]:
            reference = exact.endpoint(point, n)
            got = scaled.endpoint(point, n)
            if reference == 0:
                assert got.is_zero()
            else:
                assert float(got) == pytest.approx(float(reference), rel=1e-10)

    @pytest.mark.parametrize("mode", ["exact", "scaled"])
    def test_resource_guard(self, mode):
        with pytest.raises(ResourceGuardError):
            count_walks(builtin_model("gb", 1, 1), (0, 0), 4000, mode=mode,
                        guard=1000)

    def test_exact_guard_counts_window_cells(self):
        # GB layer n has the window [0, n]^2 on the rows i = n (mod 2), which
        # is (n // 2 + 1) * (n + 1) cells, so n <= 10 holds 271 cells, of
        # which 91 are nonzero
        model = builtin_model("gb", 1, 1)
        assert count_walks(model, (0, 0), 10, guard=271).total(10) == 19404
        with pytest.raises(ResourceGuardError):
            count_walks(model, (0, 0), 10, guard=270)

    def test_scaled_guard_counts_checkpoints_and_two_layers(self):
        # GB to n=16 keeps layers 0, 4, 8, 12, 16 (305 cells) and works in
        # two layers of the largest window (2 * 153 cells)
        model = builtin_model("gb", 1, 1)
        table = count_walks(model, (0, 0), 16, "scaled", keep_layers=True, guard=611)
        assert float(table.total(16)) == 34763300
        with pytest.raises(ResourceGuardError):
            count_walks(model, (0, 0), 16, "scaled", keep_layers=True, guard=610)

    @pytest.mark.parametrize("weight", [F(1, 10 ** 400), F(10 ** 400), F(1, 2 ** 1023)],
                             ids=["below", "above", "subnormal"])
    def test_weight_outside_float_range_raises(self, weight):
        model = make_stepset(SIMPLE, [weight, 1, 1, 1])
        with pytest.raises(OverflowError, match="a weight lies outside the float range"):
            count_walks(model, (0, 0), 1, mode="scaled")
        assert count_walks(model, (0, 0), 1, mode="exact").endpoint((1, 0), 1) == weight

    def test_smallest_normal_weight_is_kept(self):
        weight = F(1, 2 ** 1022)
        table = count_walks(make_stepset(SIMPLE, [weight, 1, 1, 1]), (0, 0), 1, mode="scaled",
                            keep_layers=True)
        assert table.endpoint((1, 0), 1) == XFloat(1.0, -1022)

    def test_tiny_weights_renormalize_upward(self):
        # each layer's sum falls below cells * 2**-499, so the build scales it up
        model = make_stepset(SIMPLE, [F(1, 2 ** 600)] * 4)
        exact = count_walks(model, (0, 0), 6, mode="exact")
        scaled = count_walks(model, (0, 0), 6, mode="scaled", track=[(0, 0)])
        for n in range(7):
            for want, got in ((exact.total(n), scaled.total(n)),
                              (exact.endpoint((0, 0), n), scaled.endpoint((0, 0), n))):
                if want == 0:
                    assert got.is_zero()
                    continue
                # want = c * 2**(-600 n) underflows float, but c does not
                ratio = got / XFloat(float(want * 2 ** (600 * n)), -600 * n)
                assert abs(float(ratio) - 1) <= n * 2.0 ** -50, n

    def test_non_finite_layer_raises(self):
        # the OverflowError is the only report: numpy prints no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                count_walks(builtin_model("gb", 10 ** 200, 1), (0, 0), 6, "scaled")


class TestStepLattice:
    """Layer windows hold only the lattice points of the layer's coset."""

    @pytest.mark.parametrize("name,model,start,n_max,lattice", STRIDED_CASES,
                             ids=[case[0] for case in STRIDED_CASES])
    def test_endpoints_on_and_off_the_lattice(self, name, model, start, n_max, lattice):
        exact = count_walks(model, start, n_max)
        kept = count_walks(model, start, n_max, "scaled", keep_layers=True)
        assert exact._lattice == lattice
        pos = [max(s[k] for s in model.steps) for k in range(len(start))]
        neg = [max(-s[k] for s in model.steps) for k in range(len(start))]
        for n in range(n_max + 1):
            want = brute_force_count(model, start, n)
            # every point of the box n steps can reach, and one more on each side
            box = [range(c - n * b - 1, c + n * a + 2) for c, a, b in zip(start, pos, neg)]
            for p in itertools.product(*box):
                count = want.get(p, 0)
                assert exact.endpoint(p, n) == count, (p, n)
                got = kept.endpoint(p, n)
                if count == 0:
                    assert got.is_zero(), (p, n)
                else:
                    assert float(got) == pytest.approx(float(count), rel=1e-12), (p, n)

    def test_layers_without_walks(self):
        # every step lowers the first coordinate by an odd amount, so from the
        # origin no layer after the first has a window cell in the orthant
        model = make_stepset([(-1, 1), (-3, -1)], [1, 1])
        for mode in ("exact", "scaled"):
            table = count_walks(model, (0, 0), 5, mode, keep_layers=True)
            assert [float(table.total(n)) for n in range(6)] == [1, 0, 0, 0, 0, 0]
            assert all(float(table.endpoint(p, n)) == 0
                       for n in range(1, 6) for p in [(0, 0), (1, 1), (0, 2)])
            with pytest.raises(ValueError):
                sample_walk(table, 3, seed=0)

    @pytest.mark.parametrize("name,model,start,n_max,lattice", STRIDED_CASES,
                             ids=[case[0] for case in STRIDED_CASES])
    def test_walks_end_on_the_lattice(self, name, model, start, n_max, lattice):
        exact = count_walks(model, start, n_max)
        support = brute_force_count(model, start, n_max)
        for seed in range(10):
            walk = sample_walk(exact, n_max, seed)
            assert walk.stays_in_orthant() and walk.end in support


CONE_CASES = [
    ("gb n=400", builtin_model("gb", 1, 1), (0, 0), 400),  # renormalizes at n=261
    ("gb(2/3,5/7) from (3,2)", builtin_model("gb", F(2, 3), F(5, 7)), (3, 2), 120),
    ("tandem(5/7,2) from (1,4)", builtin_model("tandem", F(5, 7), 2), (1, 4), 120),
    ("3d five steps from (1,0,2)", make_stepset(THREE_D[:5], [1, 2, F(1, 3), 1, 5]), (1, 0, 2), 40),
    ("stride (2,2) odd steps from (1,1)",
     make_stepset(((3, 1), (-1, 3), (1, -1), (3, -1)), [F(1, 3), 1, 3, F(1, 2)]), (1, 1), 60),
    ("stride (3,1) from (1,1)", make_stepset(((3, 0), (0, 1), (-3, -1)), [1, F(1, 2), 3]), (1, 1), 40),
    ("3d stride (1,1,3) from (1,2,1)",
     make_stepset(((1, 0, 1), (0, 1, -2), (-1, -1, 1), (0, 0, -2)), [2, 1, 1, F(1, 2)]), (1, 2, 1), 60),
]


class TestConeReplay:
    """Layers between checkpoints are replayed over the backward cone of a cell only."""

    @pytest.mark.parametrize("name,model,start,n_max", CONE_CASES, ids=[c[0] for c in CONE_CASES])
    def test_endpoint_bitwise_equals_tracked(self, name, model, start, n_max):
        hi = [c + n_max * max(s[k] for s in model.steps) for k, c in enumerate(start)]
        points = list(itertools.product(*[sorted({0, c + 3, h // 3, h + 1})
                                          for c, h in zip(start, hi)]))
        points.append((-1,) + start[1:])
        tracked = count_walks(model, start, n_max, "scaled", track=points)
        kept = count_walks(model, start, n_max, "scaled", keep_layers=True)
        inside = 0
        for n in range(n_max + 1):
            for p in points:
                got, want = kept.endpoint(p, n), tracked.endpoint(p, n)
                assert (got.man, got.exp) == (want.man, want.exp), (p, n)
                inside += not want.is_zero()
        assert inside > n_max

    @pytest.mark.parametrize("name,model,start,n_max", CONE_CASES, ids=[c[0] for c in CONE_CASES])
    def test_walks_do_not_depend_on_checkpoints(self, name, model, start, n_max):
        # n is no checkpoint of the longer table and the last layer of the shorter one
        n = n_max * 5 // 6 + 1
        assert n % math.isqrt(n_max)
        longer = count_walks(model, start, n_max, "scaled", keep_layers=True)
        shorter = count_walks(model, start, n, "scaled", keep_layers=True)
        for seed in range(5):
            assert sample_walk(longer, n, seed) == sample_walk(shorter, n, seed), seed


    # Draws at n = n_max * 5 // 6 + 1, a layer that is no checkpoint, for seeds 0-4, as
    # step indices into model.steps: every stretch below n is replayed from a checkpoint.
    CONE_WALKS = {
        "gb n=400": [
            "020002032300020300211111002002302332012103313011102000102103002123100202123222203332"
            "200031220331001303032002302002132023033310133212001021211231201002112223111300012020"
            "311221101211320320332103002012000103300030031122202232020031300203212033321232333021"
            "2333333012200021212232322203210133020310310231202303133210123213333023023211312013",
            "000213120020000222002201013222300002022232113330112130020211331302100131030020321132"
            "300021221223000203323111322130020312313320133100331112001201122330233030013313133102"
            "121302330222020003202300110111210200120020002303333200012221112023012232333032112320"
            "3233201232001123211222013102233212313221033022301101011101013200330210213003211123",
            "000000002013020320013202032220312321110320102331213022023202122010233001031032321010"
            "133331203111332023230001311203031102011102310201312321300210221333021120000020100211"
            "232201033322000002012030212031012012333231010221003012003002030201021300320300202032"
            "3023200222123130302101232133131312123033133333302320100223111000123331102221233003",
            "020002000330202021322303003000200101222323010230330002101212111231321001220101221112"
            "023000002112000320323203201213012312210202333230302001022320331333003111103001323003"
            "302001321031311021003013203102111121032002212120220210223102123222221133130021002013"
            "2331202032101303301230223330233323221121213000331313232130122022232021313013002212",
            "023200230322001020133200023213032222032321203223300012031021213030002130122303131222"
            "321300121210232120030213103023123200310131203302210231200212312132322020301322210230"
            "302330331222322213331022223132300300010233110101312203110020000130112000131010132312"
            "3103233201010220003212112010311212003101212332312330102220332210223300012023310010",
        ],
        "gb(2/3,5/7) from (3,2)": [
            "020002232023233202123333330132000202122323222032101230203003102312022031332101232133"
            "33023013211312112",
            "000000122203100231031231002320010131112220130022332123132210330223011100110011132003"
            "31210213003211122",
            "002121131030020203230232002222231303020012321331323121220331333233033201002231110001"
            "23331102221233003",
            "020112312002200201323312020321012033002302233302333232211212131103313132321301230232"
            "32021313113003212",
            "201210003101002231231032332010102300032131020103112120031012123323123301012203322112"
            "33310012123310110",
        ],
        "tandem(5/7,2) from (1,4)": [
            "000000010002011101002222210011000001011201111021000120102002101101011021221001121022"
            "22011012110111011",
            "100000022102100120020121001210000111001110010011121011121110220112001000110010021002"
            "20110111001111112",
            "001020010010000101110120001100120102010001210220112110110220112112012100001120010001"
            "12210101110112002",
            "010001101001000000102101000110001021000101012101212111100101020001201021211100110111"
            "11011112001001111",
            "100110001100001110121021221010001100021010010002011010010001001112011201011101111001"
            "11210001011210011",
        ],
        "3d five steps from (1,0,2)": [
            "0001044100014104444014014210411014",
            "4041023101004100440410414004422044",
            "0430200114111000014431101110244004",
            "0001142040014014144021414014003414",
            "0140101110244200444410001044441031",
        ],
        "stride (2,2) odd steps from (1,1)": [
            "022110211210221202212133220223213233122123221222122",
            "211212222123122212221122112122200221220222012222122",
            "213112133122322212321101223212001223322212222222003",
            "012221121213111221213222120122022222122223112002212",
            "212103101211222212220212220222221222311112122320121",
        ],
        "stride (3,1) from (1,1)": [
            "0000012100001102222012012110211002",
            "0211011101002100220210212002211022",
            "0120200012101000012220001110112002",
            "0001021020012011122011212002002212",
            "0120100110121110222210001022220020",
        ],
        "3d stride (1,1,3) from (1,2,1)": [
            "001000200200010000101033000002102133012003110200002",
            "000102210023021200100011000003100330210203002211022",
            "000000012001212201310000012000000003310000000112003",
            "001000000003000220103121020012012122011213002001101",
            "201001000000121201230000110221100112200001022210000",
        ],
    }

    @pytest.mark.parametrize("name,model,start,n_max", CONE_CASES, ids=[c[0] for c in CONE_CASES])
    def test_pinned_draws(self, name, model, start, n_max):
        table = count_walks(model, start, n_max, "scaled", keep_layers=True)
        for seed, want in enumerate(self.CONE_WALKS[name]):
            steps = sample_walk(table, n_max * 5 // 6 + 1, seed).steps
            assert "".join(str(model.steps.index(s)) for s in steps) == want, seed

    @pytest.mark.parametrize("name,model,start,n_max",
                             CONE_CASES + [("gb n=16", builtin_model("gb", 1, 1), (0, 0), 16)],
                             ids=[c[0] for c in CONE_CASES] + ["gb n=16"])
    def test_stretch_stays_within_two_working_layers(self, name, model, start, n_max,
                                                     monkeypatch):
        # a stretch stacks at most `stride` layers over the box of a backward cone at most
        # `stride` layers deep, within the two working layers the scaled guard counts
        table = count_walks(model, start, n_max, "scaled", keep_layers=True)
        stretch, held = table._stretch, []

        def spy(*args):
            out = stretch(*args)
            # a read in place returns a kept buffer, which the guard already counts
            if not np.shares_memory(out[0], table._kept[out[4]][3]):
                held.append(out[0].size)
            return out

        monkeypatch.setattr(table, "_stretch", spy)
        n = n_max * 5 // 6 + 1
        for seed in range(5):
            assert not table.endpoint(sample_walk(table, n, seed).end, n).is_zero()
        stride, cols = table._stride, list(zip(*model.steps))
        box = math.prod(stride * (max(0, *c) - min(0, *c)) // m + 1
                        for c, m in zip(cols, table._lattice))
        windows = counting._window_cells(model.steps, table._lattice, start, n_max)
        assert len(held) > 5 and max(held) <= stride * box <= 2 * max(windows)


IN_PLACE_CASES = [("gb", builtin_model("gb", 1, 1), (0, 0)), CONE_CASES[4][:3]]


class TestInPlaceReads:
    """A read at a kept layer reads that layer's own buffer, in the rows it was built in."""

    @pytest.mark.parametrize("mode", ["exact", "scaled"])
    @pytest.mark.parametrize("name,model,start", IN_PLACE_CASES, ids=[c[0] for c in IN_PLACE_CASES])
    def test_kept_endpoint_bitwise_equals_tracked(self, name, model, start, mode):
        kept = count_walks(model, start, 36, mode, keep_layers=True)
        windows = {n: kept._windows[n] for n in sorted(kept._kept)}
        points = {n: list(itertools.product(*(range(l, h + 1, q) for l, h, q in zip(
            *window, kept._lattice)))) for n, window in windows.items()}
        tracked = count_walks(model, start, 36, mode, track=set().union(*points.values()))
        for n, cells in points.items():
            for p in cells:
                got, want = kept.endpoint(p, n), tracked.endpoint(p, n)
                if mode == "exact":
                    assert got == want, (p, n)
                else:
                    assert (got.man, got.exp) == (want.man, want.exp), (p, n)
        assert sorted(kept._kept) == list(windows) == list(range(0, 37, 6))


class TestLayerBuffers:
    """Builds write the layers they do not keep into two reused buffers."""

    POINTS = [(0, 0), (1, 0), (3, 2), (7, 4)]

    @staticmethod
    def answers(table, n_max):
        totals = [table.total(n) for n in range(n_max + 1)]
        ends = [table.endpoint(p, n) for p in TestLayerBuffers.POINTS for n in (n_max // 2, n_max)]
        walks = [sample_walk(table, n, seed) for n in (n_max, n_max - 7) for seed in range(3)]
        return [(x.man, x.exp) for x in totals + ends], walks

    def test_a_later_build_leaves_a_table_alone(self):
        model = builtin_model("gb", 2, 3)
        first = count_walks(model, (0, 0), 120, "scaled", keep_layers=True)
        count_walks(builtin_model("tandem", 1, 1), (0, 0), 150, "scaled", keep_layers=True)
        alone = count_walks(model, (0, 0), 120, "scaled", keep_layers=True)
        assert self.answers(first, 120) == self.answers(alone, 120)

    CHECKPOINT_CASES = [(name, mode) for mode in ("scaled", "exact")
                        for name in ("gb", "tandem", "gessel", "simple")]

    @pytest.mark.parametrize("name,mode", CHECKPOINT_CASES,
                             ids=[n if m == "scaled" else f"{n}-{m}" for n, m in CHECKPOINT_CASES])
    def test_checkpoints_share_no_memory(self, name, mode):
        table = count_walks(builtin_model(name, 2, 3), (0, 0), 100, mode, keep_layers=True)
        blocks = [arr for arr, *_ in table._kept.values()]
        assert len(blocks) == 11
        for x, y in itertools.combinations(blocks, 2):
            assert not np.shares_memory(x, y)

    def test_exact_table_keeps_checkpoints_and_draws_fill_in(self, monkeypatch):
        spares, make = [], counting._spares

        def record(*args):
            spares.extend(make(*args))
            return spares[-2:]

        monkeypatch.setattr(counting, "_spares", record)
        model = builtin_model("gb", 1, 1)
        table = count_walks(model, (0, 0), 16)
        assert sorted(table._kept) == [0, 4, 8, 12, 16] and len(spares) == 2
        for n in range(9):
            want = brute_force_count(model, (0, 0), n)
            assert table.layer(n) == want, n
            for p in itertools.product(range(n + 2), repeat=2):
                assert table.endpoint(p, n) == want.get(p, 0), (p, n)
        assert sorted(table._kept) == list(range(9)) + [12, 16]
        # the draw replays and keeps the stretch 9-10, not 13-15
        sample_walk(table, 10, seed=0)
        assert sorted(table._kept) == list(range(11)) + [12, 16]
        blocks = [arr for arr, *_ in table._kept.values()]
        for x, y in itertools.combinations(blocks + spares, 2):
            assert not np.shares_memory(x, y)

    def test_exact_layers_are_kept_once_replayed(self, monkeypatch):
        # every whole layer an exact table replays is kept, so each is replayed once;
        # cell reads replay a cone and keep nothing
        model, checkpoints = builtin_model("gb", 1, 1), list(range(0, 150, 12)) + [150]
        cells = count_walks(model, (0, 0), 150)
        for n in range(151):
            cells.endpoint((0, 0), n)
        assert sorted(cells._kept) == checkpoints
        table, advance, replayed = count_walks(model, (0, 0), 150), counting._advance_layer, []

        def spy(*args, **kwargs):
            replayed.append(1)
            return advance(*args, **kwargs)

        monkeypatch.setattr(counting, "_advance_layer", spy)
        layers = [table.layer(n) for n in range(151)]
        assert len(replayed) == 151 - len(checkpoints) == 137
        assert sorted(table._kept) == list(range(151))
        blocks = [arr for arr, *_ in table._kept.values()]
        for x, y in itertools.combinations(blocks, 2):
            assert not np.shares_memory(x, y)
        assert [table.layer(n) for n in range(151)] == layers and len(replayed) == 137

    # the first five draws at n=270, by their endpoints
    RENORMALIZED_ENDS = [(22, 4), (6, 5), (28, 7), (8, 7), (8, 7)]

    def test_whole_layer_replay_across_a_renormalization(self):
        # layer 261 renormalizes just above the checkpoint at 260, so the replay of
        # layers 261..279 rescales from the checkpoint's exponent to the build's
        model = builtin_model("gb", 1, 1)
        table = count_walks(model, (0, 0), 400, "scaled", keep_layers=True)
        assert table._stride == 20 and table._totals[260][1] != table._totals[261][1]
        layers = {n: table.layer(n) for n in range(261, 280)}
        assert sorted(table._kept) == list(range(0, 400, 20)) + [400]
        points = sorted(set().union(*layers.values()))[::7]
        streamed = count_walks(model, (0, 0), 279, "scaled", track=points)
        for n, layer in layers.items():
            for p in points:
                x, y = streamed.endpoint(p, n), layer.get(p, XFloat(0.0))
                assert (x.man, x.exp) == (y.man, y.exp), (p, n)
        # the first pick draws from the replayed layer's raw cells, in the layer's order
        assert [sample_walk(table, 270, seed).end for seed in range(5)] == self.RENORMALIZED_ENDS
        exp = table._totals[270][1]
        raw = [math.ldexp(x.man, x.exp - exp) for x in layers[270].values()]
        assert table._first[0] == 270 and np.array_equal(table._first[2], np.cumsum(raw))

    @pytest.mark.parametrize("name", ["gb", "tandem", "gessel", "simple"])
    def test_streamed_equals_kept(self, name):
        model = builtin_model(name, F(1, 3), 5)
        streamed, kept = (count_walks(model, (1, 2), 150, "scaled", track=self.POINTS,
                                      keep_layers=keep) for keep in (False, True))
        for n in range(151):
            for x, y in [(streamed.total(n), kept.total(n))] + [
                    (streamed.endpoint(p, n), kept.endpoint(p, n)) for p in self.POINTS]:
                assert (x.man, x.exp) == (y.man, y.exp), n

    def test_first_build_faults_few_pages(self):
        # allocating every layer afresh faults about 250,000 pages in this
        # build, the two reused buffers about 1,000
        pytest.importorskip("resource")
        script = (
            "import resource\n"
            "from orthantwalks import builtin_model, count_walks\n"
            "model = builtin_model('gb', 1, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "count_walks(model, (0, 0), 1000, 'scaled', track=[(0, 0)])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 50_000


def slice_kernel(arr, steps, weights, src, dst, lattice):
    """The transfer step as one box slice per step, into a new dense array."""
    new = np.zeros(counting._shape(dst, lattice), dtype=arr.dtype)
    for i, into, out_of in counting._step_slices(steps, src, dst, lattice):
        part, w = arr[out_of], weights[i]
        new[into] += part if w == 1 else w * part
    return new


def slice_layers(model, start, n_max, mode):
    """(n, cells, exponent, window, total) of every layer, built with `slice_kernel`."""
    weights, _ = counting._kernel_weights(model, mode)
    lattice = counting._lattice(model.steps)
    arr = np.ones((1,) * model.dimension, dtype=float if mode == "scaled" else object)
    exp, window = 0, (start, start)
    for n in range(n_max + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if n:
                reach = counting._reach(model.steps, lattice, window)
                arr = slice_kernel(arr, model.steps, weights, window, reach, lattice)
                arr, window = counting._trim(arr, reach, lattice)
            total = arr.sum()
            if mode == "scaled" and not arr.size * 2.0 ** -499 <= total <= 2.0 ** 500:
                peak = float(arr.max(initial=0.0))
                if peak > 2.0 ** 500:
                    arr, exp = arr * 2.0 ** -512, exp + 512
                elif 0.0 < peak < 2.0 ** -500:
                    arr, exp = arr * 2.0 ** 512, exp - 512
                total = arr.sum()
        yield n, arr, exp, window, total


KERNEL_CASES = CONE_CASES + [
    ("4d 16 steps", make_stepset(FOUR_D, [1] * 16), (0, 0, 0, 0), 6),
    ("longstep from (2,1)", make_stepset(LONG_STEP_SET, [1] * 4), (2, 1), 60),
    ("longstep, no weight 1, from (0,3)",
     make_stepset(LONG_STEP_SET, [F(1, 2), F(5, 7), F(3, 2), F(7, 5)]), (0, 3), 60),
    ("gb(10^150,1)", builtin_model("gb", 10 ** 150, 1), (0, 0), 30),  # renormalizes
]


class TestFlatKernel:
    """Each step as one flat range of a row-padded layer equals one box slice per step."""

    @pytest.mark.parametrize("mode,keep", [("exact", None), ("scaled", None),
                                           ("scaled", "none"), ("scaled", "every 7th")])
    @pytest.mark.parametrize("name,model,start,n_max", KERNEL_CASES,
                             ids=[c[0] for c in KERNEL_CASES])
    def test_layers_equal_slice_kernel(self, name, model, start, n_max, mode, keep):
        if mode == "exact":
            n_max = min(n_max, 120)
        kept = {None: lambda n: True, "none": lambda n: False,
                "every 7th": lambda n: n % 7 == 0}[keep]
        renormalized = False
        if mode == "exact":  # exact totals come from the table's boundary identity
            table, scale = count_walks(model, start, n_max), counting._kernel_weights(model, mode)[1]
        for got, want in itertools.zip_longest(
                counting._layers(model, start, n_max, mode, keep=kept),
                slice_layers(model, start, n_max, mode)):
            (n, (arr, exp, window, *_), total), (_, cells, want_exp, want_window, want_total) = \
                got, want
            assert (exp, window) == (want_exp, want_window), n
            assert arr.shape == cells.shape and np.array_equal(arr, cells), n
            if mode == "exact":
                assert total is None and table.total(n) == F(want_total, scale ** n), n
            else:
                assert abs(total - want_total) <= 4 * np.spacing(want_total), n
            renormalized |= exp != 0
        if mode == "scaled":
            assert renormalized == name.startswith(("gb n=400", "gb(10^150"))

    # A scaled total sums all of a layer's rows, ghosts included, pairwise, so
    # its last bits depend on the row lengths: a new layout must keep them.
    TOTALS = [
        ("gb", builtin_model("gb", 1, 1), (0, 0), 400,
         {35: ("0x1.e13dc28cdfd08p+0", 60), 261: ("0x1.343eb60f9f6a3p+0", 507),
          400: ("0x1.08b27e840cd29p+0", 784)}),
        ("gessel(2,3) from (1,2)", builtin_model("gessel", 2, 3), (1, 2), 300,
         {50: ("0x1.b2ad715d24f8fp+0", 155), 300: ("0x1.8d07ce56d20f5p+0", 934)}),
        ("3d", make_stepset(THREE_D, [1, 2, F(1, 3), 1, 1, 5]), (1, 0, 2), 60,
         {60: ("0x1.04eebbe6c24c8p+0", 187)}),
    ]

    @pytest.mark.parametrize("name,model,start,n_max,want", TOTALS, ids=[c[0] for c in TOTALS])
    def test_scaled_totals_pinned(self, name, model, start, n_max, want):
        table = count_walks(model, start, n_max, "scaled")
        for n, (man, exp) in want.items():
            total = table.total(n)
            assert (total.man.hex(), total.exp) == (man, exp), n


def direct_layers(model, start, n_max):
    """(L**n, layer n of the weighted stream as {point: raw}), the raw cells L**n times the
    counts, from the kernel on the weights L * w."""
    scale = counting._kernel_weights(model, "exact")[1]
    lattice = counting._lattice(model.steps)
    for n, (arr, _, (lo, _), *_), _ in counting._layers(model, start, n_max, "exact"):
        yield scale ** n, {tuple(l + m * i for l, m, i in zip(lo, lattice, index)): c
                           for index, c in np.ndenumerate(arr) if c}


def seeded_king_weightings(seed, count, pick, label):
    """`count` non-singular king sets from (1, 0) with central weights beta * alpha**s, each of
    alpha_1, alpha_2 and beta drawn by pick(rng)."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        steps = tuple(rng.sample(KING, rng.randint(3, 8)))
        if not is_singular(make_stepset(steps, [1] * len(steps))):
            alpha, beta = (pick(rng), pick(rng)), pick(rng)
            out.append((f"king#{len(out)} {label}",
                        make_stepset(steps, central_weights(steps, alpha, beta)), (1, 0)))
    return out


KING = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
EXTREME = (F(10) ** 200, F(10) ** -200)

# central weightings with rational alpha and beta, read through the unit-weight stream
FOLD_CASES = (
    seeded_king_weightings(1, 3, lambda rng: F(rng.randint(1, 9), rng.randint(1, 9)), "p/q")
    + seeded_king_weightings(2, 2, lambda rng: rng.choice(EXTREME + (F(rng.randint(1, 9), 7),)),
                             "10^+-200")
    + [("1-d from 3", make_stepset([(1,), (-1,), (2,)], central_weights([(1,), (-1,), (2,)],
                                                                         [F(3, 5)], F(2, 7))), (3,)),
       ("3d from (1,0,2)", make_stepset(THREE_D, central_weights(THREE_D, [2, F(1, 3), F(5, 4)],
                                                                   F(1, 6))), (1, 0, 2)),
       ("longstep from (2,1)", make_stepset(LONG_STEP_SET, central_weights(
           LONG_STEP_SET, [F(1, 2), F(5, 7)], 3)), (2, 1)),
       ("stride (2,2) from (1,3)", make_stepset(((2, 0), (-2, 2), (0, -2), (2, -2)), central_weights(
           ((2, 0), (-2, 2), (0, -2), (2, -2)), [F(4, 3), F(1, 2)], F(9, 10))), (1, 3)),
       # integer weights 12, 18, 1: the counts stay ints
       ("integral from (0,2)", make_stepset(((1, 0), (0, 1), (-1, -1)), central_weights(
           ((1, 0), (0, 1), (-1, -1)), [2, 3], 6)), (0, 2))])
# central, but beta = sqrt(6) is irrational: the table stays on the weights L * w
IRRATIONAL = ("simple, beta = sqrt(6)", make_stepset(SIMPLE, [2, 3, 1, 6]), (1, 1))


def same(count, raw, scale):
    """Whether an exact count equals raw / scale, compared without a gcd."""
    count = F(count)
    return count.numerator * scale == raw * count.denominator


class TestCentralFold:
    """A central weighting's table runs on unit weights and folds beta**n * alpha**(p - start)
    into every read; the weighted stream itself is the oracle."""

    N = 40

    @pytest.mark.parametrize("name,model,start", FOLD_CASES + [IRRATIONAL],
                             ids=[c[0] for c in FOLD_CASES + [IRRATIONAL]])
    def test_reads_equal_the_weighted_stream(self, name, model, start):
        folded = name != IRRATIONAL[0]
        kind = int if all(w.denominator == 1 for w in model.weights) else F
        tracked = [start, (0,) * len(start), tuple(c + 1 for c in start)]
        table = count_walks(model, start, self.N, track=tracked)
        assert (set(table._weights) == {1}) == folded
        if not folded:
            assert table._weights == counting._kernel_weights(model, "exact")[0]
        for n, (scale, want) in enumerate(direct_layers(model, start, self.N)):
            total = table.total(n)
            assert same(total, sum(want.values()), scale) and type(total) is kind, n
            for p in tracked + [min(want), max(want)]:  # the last two untracked
                assert same(table.endpoint(p, n), want.get(p, 0), scale), (n, p)
            # a whole layer of counts 10**(200 n) apart takes seconds to reduce
            if "10^" not in name or n <= 10 or n % 20 == 0:
                got = table.layer(n)
                assert got.keys() == want.keys(), n
                assert all(same(got[p], c, scale) and type(got[p]) is kind
                           for p, c in want.items()), n

    @pytest.mark.parametrize("name,model,start", FOLD_CASES, ids=[c[0] for c in FOLD_CASES])
    def test_draws_equal_direct_weight_draws(self, name, model, start, monkeypatch):
        n = 30
        table = count_walks(model, start, n)
        with monkeypatch.context() as patch:
            patch.setattr(counting, "_fold", lambda model: None)
            direct = count_walks(model, start, n)
        assert set(table._weights) == {1} and direct._weights != table._weights
        for seed in range(5):
            assert sample_walk(table, n, seed) == sample_walk(direct, n, seed), seed

    # ROADMAP Q's ten models: the boundary identity against the sum of every cell
    TEN = [
        ("gb", builtin_model("gb", 1, 1), (0, 0)),
        ("gb(2/3,5/7) from (1,2)", builtin_model("gb", F(2, 3), F(5, 7)), (1, 2)),
        ("tandem(3/2,1/3)", builtin_model("tandem", F(3, 2), F(1, 3)), (0, 0)),
        ("gessel from (2,0)", builtin_model("gessel", 1, 1), (2, 0)),
        *[(f"king {steps}", make_stepset(steps, [F(rng.randint(1, 9), rng.randint(1, 9))
                                                 for _ in steps]), (1, 0))
          for rng in [random.Random(10)]
          for steps in [tuple(rng.sample(KING, k)) for k in (4, 5, 6, 8)]],
        ("3d weighted", make_stepset(THREE_D, [1, 2, F(1, 3), 1, 1, 5]), (1, 0, 2)),
        ("steps of length 2 and 3", make_stepset(((3, -1), (-2, 0), (0, 2), (-1, -3), (1, 1)),
                                                 [1, F(2, 3), 3, F(1, 2), 1]), (0, 0)),
    ]

    @pytest.mark.parametrize("name,model,start", TEN, ids=[c[0] for c in TEN])
    def test_boundary_totals_equal_the_cell_sum(self, name, model, start):
        table = count_walks(model, start, self.N)
        scale = counting._kernel_weights(model, "exact")[1]
        for n, (arr, *_), _ in counting._layers(model, start, self.N, "exact"):
            assert table.total(n) == F(sum(arr.ravel().tolist()), scale ** n), n


# 1-D step sets: the second lies on the coset 1 + 5Z
ONE_D_CASES = [
    ("(1, -1, 2)", make_stepset([(1,), (-1,), (2,)], [1, 2, 3]), (0,)),
    ("(3, -2) from 1", make_stepset([(3,), (-2,)], [F(1, 2), 5]), (1,)),
]


class TestOneDimension:
    @pytest.mark.parametrize("name,model,start", ONE_D_CASES, ids=[c[0] for c in ONE_D_CASES])
    def test_both_modes_equal_brute_force(self, name, model, start):
        exact = count_walks(model, start, 8)
        scaled = count_walks(model, start, 8, mode="scaled", keep_layers=True)
        for n in range(9):
            want = brute_force_count(model, start, n)
            assert exact.layer(n) == want, n
            assert exact.total(n) == sum(want.values())
            assert float(scaled.total(n)) == pytest.approx(float(sum(want.values())), rel=1e-12)
            for point, count in want.items():
                assert exact.endpoint(point, n) == count
                assert float(scaled.endpoint(point, n)) == pytest.approx(float(count), rel=1e-12)

    @pytest.mark.parametrize("mode", ["exact", "scaled"])
    @pytest.mark.parametrize("name,model,start", ONE_D_CASES, ids=[c[0] for c in ONE_D_CASES])
    def test_sample_walk(self, name, model, start, mode):
        table = count_walks(model, start, 8, mode=mode, keep_layers=True)
        ends = brute_force_count(model, start, 8)
        for seed in range(5):
            walk = sample_walk(table, 8, seed)
            assert len(walk.steps) == 8 and walk.stays_in_orthant()
            assert walk.end in ends


class TestMonotonicity:
    @pytest.mark.parametrize("name", ["gb", "tandem", "gessel", "simple"])
    def test_unweighted_totals_nondecreasing(self, name):
        # every confined walk extends by at least one step for these models
        table = count_walks(builtin_model(name, 1, 1), (0, 0), 25)
        totals = [table.total(n) for n in range(26)]
        assert all(t2 >= t1 for t1, t2 in zip(totals, totals[1:]))

    def test_weights_above_one_nondecreasing(self):
        model = make_stepset(LONG_STEP_SET, [2, 2, 2, 2])
        table = count_walks(model, (0, 0), 15)
        totals = [table.total(n) for n in range(16)]
        assert all(t2 >= t1 for t1, t2 in zip(totals, totals[1:]))


class TestSampling:
    def test_unique_walk(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 1)
        assert sample_walk(table, 1, seed=5).steps == ((1, 0),)

    def test_empty_walk(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 2)
        walk = sample_walk(table, 0, seed=1)
        assert walk.steps == () and walk.end == (0, 0)

    def test_determinism(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 30)
        assert sample_walk(table, 30, seed=42).steps == sample_walk(table, 30, seed=42).steps

    def test_walks_stay_in_orthant(self):
        table = count_walks(builtin_model("gessel", 2, 3), (0, 0), 25)
        for seed in range(25):
            walk = sample_walk(table, 25, seed)
            assert walk.stays_in_orthant()
            assert len(walk.steps) == 25

    def test_uniformity_n2(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 2)
        counts = Counter(sample_walk(table, 2, seed).steps for seed in range(10000))
        assert len(counts) == 3
        for freq in counts.values():
            assert abs(freq / 10000 - 1 / 3) <= 0.02

    def test_weighted_frequencies(self):
        # three length-2 walks with weights 4, 1, 3 (total 8)
        table = count_walks(builtin_model("gb", 2, 3), (0, 0), 2)
        counts = Counter(sample_walk(table, 2, seed).steps for seed in range(8000))
        freq = {k: v / 8000 for k, v in counts.items()}
        assert freq[((1, 0), (1, 0))] == pytest.approx(4 / 8, abs=0.03)
        assert freq[((1, 0), (-1, 0))] == pytest.approx(1 / 8, abs=0.03)
        assert freq[((1, 0), (-1, 1))] == pytest.approx(3 / 8, abs=0.03)

    def test_scaled_mode_sampling(self):
        model = builtin_model("gb", 1, 1)
        table = count_walks(model, (0, 0), 50, mode="scaled", keep_layers=True)
        walk = sample_walk(table, 50, seed=3)
        assert walk.stays_in_orthant() and len(walk.steps) == 50
        counts = Counter(sample_walk(table, 2, seed).steps for seed in range(3000))
        for freq in counts.values():
            assert abs(freq / 3000 - 1 / 3) <= 0.04

    # Walks drawn for seeds 0-4, as step indices into model.steps.  The draw
    # depends only on the counts, the seed and the order in which points and
    # steps are visited, so a change to how tables are stored must keep them.
    PINNED = [
        ("gb(1,1)", builtin_model("gb", 1, 1), (0, 0), 30, "exact", False,
         ["000201323203121023120010000120", "000222320001030130312200113003",
          "020312300100110203222323300111", "000012210101030320300232302320",
          "000200212012323301101322013003"]),
        ("gessel(2,3)", builtin_model("gessel", 2, 3), (0, 0), 25, "exact", False,
         ["2112222212212121220122222", "1111222222222221212022220",
          "2223222202222021321221222", "1121122220212222122221111",
          "2112222122212122212112220"]),
        ("gb(1,1)", builtin_model("gb", 1, 1), (0, 0), 50, "scaled", True,
         ["02020300300020201202033200023203233022013210211012",
          "00203221033022200110021001113200330210213003211123",
          "00022033022322302310000223001000123331103220223003",
          "00201020223000231303232130023022232021213013002212",
          "01002000201232302330101220332210222310012022310010"]),
        # the replayed segment from layer 255 to 272 crosses the renormalization at 258
        ("gb(1,1) from (3,2)", builtin_model("gb", 1, 1), (3, 2), 300, "scaled", True,
         ["020021033130111030001021030021230002021232222033322000312203210013030320023"
          "020021320230333101332120010212112312010021122231113000120203112211012113203"
          "203321030020120001033000300311222022320200313002032120333212323330212333333"
          "012200021212232322203210133020310310231202303133210123213333023023211312013",
          "020222321023300121200202013313021101310300203201323100212213220002033230113"
          "220300203123133201231003311120012011223302330300123131331021212023302220200"
          "032023001101112102001200200023033332000122211120230122323330320123203233201"
          "232001123211222012102233212313221033022301100021101013200330210213003212123",
          "303203201022302130220232021220102330010310323210100333312031112320232300013"
          "112030311020111023103013123213002102212330211201000301002102322110333220000"
          "020120302120310120123332310102210030120030020302010213003203002020323023200"
          "222123130302101232133131312123033133333302320100223111000123331102221233003",
          "003223230002303300021012021012313210012201012211120230000021120003203232032"
          "012130123122102023332303120010223203313330031111031013230033020013210313110"
          "210030132031121111210320033121202202102231021232222211331300210020132331202"
          "032101303301230223330233323221121213000331313233130123023232021313113002212",
          "120323222033233000020310212130300021201223031302223213001212102321210302131"
          "030231232003111312033023102312002123121323220203003222102203023303312223222"
          "133300222231323003100102331101113122031100200001301120001310101323133103233"
          "201010230003212112010311212003101212332312330102220332211333310012133310010"]),
        (*CONE_CASES[3][:3], 40, "scaled", True,
         ["0140100102044100014104444014014211411014", "4004410132022001014200440410414004412144",
          "0012403440100114101000114431101110244004", "0000140104141140014014143011414014003414",
          "0011400140101110444110444410001044431031"]),
        (*ONE_D_CASES[1], 60, "exact", False,
         ["001110100011110101110101010110100111110011001001100111110111",
          "000100010011110000101101101001111010111111101110011110011111",
          "011001001011011010110101011001111100000011100011111110111111",
          "000010110110011001110111011101000100100001010101011111001111",
          "001101101101010000111011111000100110110111100101101110101101"]),
        # n_max <= 3 gives stride 1: every layer is kept, so every read below n is in place
        ("gb(1,1)", builtin_model("gb", 1, 1), (0, 0), 3, "scaled", True,
         ["000", "023", "000", "001", "010"]),
        ("gessel(2,3) from (1,2)", builtin_model("gessel", 2, 3), (1, 2), 3, "scaled", True,
         ["222", "022", "222", "211", "211"]),
        (*CONE_CASES[3][:3], 3, "scaled", True, ["111", "044", "101", "404", "404"]),
        (*CONE_CASES[4][:3], 3, "scaled", True, ["202", "122", "203", "212", "212"]),
        (*ONE_D_CASES[1], 2, "scaled", True, ["01", "01", "00", "01", "01"]),
    ]

    @pytest.mark.parametrize("name,model,start,n,mode,keep,walks", PINNED,
                             ids=[f"{c[0]}-{c[4]}-n{c[3]}" for c in PINNED])
    def test_pinned_walks(self, name, model, start, n, mode, keep, walks):
        table = count_walks(model, start, n, mode=mode, keep_layers=keep)
        for seed, want in enumerate(walks):
            steps = sample_walk(table, n, seed).steps
            assert "".join(str(model.steps.index(s)) for s in steps) == want, seed

    def test_second_draw_does_not_replay_layer_n(self, monkeypatch):
        # layer 105 is not kept (stride 10); its first pick is kept for the last n drawn
        table = count_walks(builtin_model("gb", 2, 3), (0, 0), 120, mode="scaled",
                            keep_layers=True)
        replay, whole = table._replay, []

        def spy(n, *cone, **kwargs):
            if not cone:
                whole.append(n)
            return replay(n, *cone, **kwargs)

        monkeypatch.setattr(table, "_replay", spy)
        first = [sample_walk(table, 105, seed).steps for seed in range(3)]
        assert whole == [105]
        sample_walk(table, 103, 0)
        assert whole == [105, 103]
        assert [sample_walk(table, 105, seed).steps for seed in range(3)] == first
        assert whole == [105, 103, 105]

    def test_empty_layer_rejected(self):
        # tandem from origin has no length-1 walk returning ... to (0,0);
        # total layer is nonempty though, so use a model with a blocked layer
        blocked = make_stepset([(-1, 0), (1, 1), (-1, -1), (0, -1)], [1] * 4)
        table = count_walks(blocked, (0, 0), 2)
        assert table.total(1) == 1  # only (1,1)
        model_stuck = make_stepset([(-1, 0), (0, -1), (-1, -1)], [1] * 3)
        stuck = count_walks(model_stuck, (0, 0), 1)
        with pytest.raises(ValueError):
            sample_walk(stuck, 1, seed=0)
