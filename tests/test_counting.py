"""Counting tables: DP vs brute force, accessors, scaled arithmetic, sampling."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from orthantwalks import (ResourceGuardError, StepSetError, brute_force_count,
                          builtin_model, central_weights, count_walks,
                          make_stepset, sample_walk)

LONG_STEP_SET = ((2, 2), (1, 1), (-1, 0), (0, -1))


def all_models():
    out = []
    for name in ("gb", "tandem", "gessel", "simple"):
        out.append((name, builtin_model(name, 1, 1)))
        out.append((name + "(2,3)", builtin_model(name, 2, 3)))
    out.append(("longstep", make_stepset(LONG_STEP_SET, [1] * 4)))
    out.append(("longstep(2,3)", make_stepset(LONG_STEP_SET, central_weights(LONG_STEP_SET, (2, 3)))))
    return out


class TestOracle:
    @pytest.mark.parametrize("name,model", all_models())
    def test_dp_equals_brute_force(self, name, model):
        table = count_walks(model, (0, 0), 6, mode="exact")
        for n in range(7):
            assert table.layer(n) == brute_force_count(model, (0, 0), n), (name, n)

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

    def test_survives_large_n(self):
        table = count_walks(builtin_model("gb", 1, 1), (0, 0), 1500, mode="scaled")
        total = table.total(1500)
        # growth 4^n n^-2: log2 = 3000 - 2 log2(1500) + log2(8/pi) + o(1)
        assert total.log2() == pytest.approx(3000 - 2 * math.log2(1500) + math.log2(8 / math.pi), abs=0.05)

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

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError):
            count_walks(builtin_model("gb", 1, 1), (0, 0), 4000, mode="scaled",
                        guard=1000)


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
