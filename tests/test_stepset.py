"""Step-set construction, JSON reading, drift, inventory, and the singularity test."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantwalks import (StepSet, StepSetError, builtin_model, central_weights, drift,
                          inventory_eval, is_singular, make_stepset, stepset_from_json)
from orthantwalks.stepset import as_fraction

GB_STEPS = ((1, 0), (-1, 0), (-1, 1), (1, -1))


def gb_weight_map(a, b):
    return {(1, 0): F(a), (-1, 0): 1 / F(a), (-1, 1): F(b) / F(a), (1, -1): F(a) / F(b)}


class TestParsing:
    def test_builtin_gb_uniform(self):
        model = builtin_model("gb", 1, 1)
        assert dict(zip(model.steps, model.weights)) == {s: F(1) for s in GB_STEPS}

    def test_builtin_gb_weighted(self):
        model = builtin_model("gb", 2, 3)
        assert dict(zip(model.steps, model.weights)) == gb_weight_map(2, 3)
        assert sorted(model.weights) == [F(1, 2), F(2, 3), F(3, 2), F(2)]

    def test_duplicate_step_rejected(self):
        text = json.dumps({"dimension": 2,
                           "steps": [{"v": [1, 0], "w": "1"}, {"v": [1, 0], "w": "2"}]})
        with pytest.raises(StepSetError, match="duplicate step"):
            stepset_from_json(text)

    def test_json_roundtrip(self):
        text = json.dumps({"dimension": 2, "steps": [
            {"v": [2, 2], "w": "1/3"}, {"v": [-1, 0], "w": "4"}]})
        model = stepset_from_json(text)
        assert model.steps == ((2, 2), (-1, 0))
        assert model.weights == (F(1, 3), F(4))

    def test_malformed_json(self):
        with pytest.raises(StepSetError, match="malformed"):
            stepset_from_json("{not json")

    def test_steps_not_a_list_rejected(self):
        with pytest.raises(StepSetError, match="steps"):
            stepset_from_json('{"dimension": 2, "steps": 5}')

    def test_fractional_coordinate_rejected(self):
        # a fractional coordinate is an error, never truncated to an integer
        with pytest.raises(StepSetError, match="not a vector of integers"):
            stepset_from_json('{"dimension": 2, "steps": [{"v": [1.5, 0]}, {"v": [-1, 0]}]}')
        with pytest.raises(StepSetError, match="not a vector of integers"):
            make_stepset([(1, 0), (0.5, 1)], [1, 1])

    @pytest.mark.parametrize("dimension", [2.7, "2"])
    def test_non_integer_dimension_rejected(self, dimension):
        # read like a coordinate: never truncated, nor parsed from a string
        text = json.dumps({"dimension": dimension, "steps": [
            {"v": [1, 0]}, {"v": [-1, 1]}, {"v": [0, -1]}]})
        with pytest.raises(StepSetError, match="dimension"):
            stepset_from_json(text)

    @pytest.mark.parametrize("spec,message", [
        ({"dimension": 2, "steps": [{"v": [1, 0], "weight": "5"}, {"v": [-1, 0]}]},
         "unknown step-set JSON key 'weight'; expected ('v', 'w')"),
        ({"dimension": 1, "steps": [{"v": [1]}, {"v": [-1]}], "name": "walk"},
         "unknown step-set JSON key 'name'; expected ('dimension', 'steps')"),
        ({"dimension": True, "steps": [{"v": [1]}, {"v": [-1], "w": "2"}]},
         "dimension must be a positive integer"),
        ({"dimension": 1, "steps": [{"v": [True]}, {"v": [-1], "w": "2"}]},
         "step (True,) has non-integer coordinates"),
        ({"dimension": 1, "steps": [{"v": [1], "w": True}, {"v": [-1], "w": "2"}]},
         "cannot interpret True as a rational"),
    ], ids=["step-key", "top-key", "bool-dimension", "bool-coordinate", "bool-weight"])
    def test_only_the_schema_is_read(self, spec, message):
        # a misspelt key is not ignored, and JSON's true is not the integer 1
        for data in (spec, json.dumps(spec)):
            with pytest.raises(StepSetError) as info:
                stepset_from_json(data)
            assert str(info.value) == message

    def test_nonpositive_weight(self):
        with pytest.raises(StepSetError, match="positive"):
            make_stepset([(1, 0)], [0])

    def test_dimension_mismatch(self):
        with pytest.raises(StepSetError, match="dimension"):
            make_stepset([(1, 0), (1, 0, 0)], [1, 1])

    def test_float_weight_rejected(self):
        with pytest.raises(StepSetError, match="exact"):
            make_stepset([(1, 0)], [0.5])

    def test_unknown_model(self):
        with pytest.raises(StepSetError, match="unknown"):
            builtin_model("kreweras", 1)

    @pytest.mark.parametrize("call,message", [
        (lambda: as_fraction("abc"), "not an exact rational: 'abc'"),
        (lambda: as_fraction([1]), "cannot interpret [1] as a rational"),
        (lambda: StepSet(0, ((),), (F(1),)), "dimension must be a positive integer"),
        (lambda: StepSet(2, (), ()), "empty step set"),
        (lambda: StepSet(2, ((1, 0),), ()), "weights and steps must have equal length"),
        (lambda: StepSet(2, ((1.0, 0),), (F(1),)), "step (1.0, 0) has non-integer coordinates"),
        (lambda: StepSet(2, ((1, 0),), (1,)), "weight of step (1, 0) is not an exact rational"),
        (lambda: builtin_model("gb").reordered([0, 0, 1, 2]),
         "order must be a permutation of the step indices"),
        (lambda: make_stepset([], []), "empty step set"),
        (lambda: central_weights([(1, 0)], [0, 1]),
         "central weighting parameters must be positive"),
        (lambda: builtin_model("gb", 0, 1), "model parameters a, b must be positive rationals"),
        (lambda: stepset_from_json({"dimension": 2, "steps": [5]}), "bad step entry 5"),
        (lambda: inventory_eval(builtin_model("gb"), (1,)), "point dimension mismatch"),
        (lambda: inventory_eval(builtin_model("gb"), (1, "2")), "cannot evaluate at coordinate '2'"),
        (lambda: as_fraction(True), "cannot interpret True as a rational"),
        (lambda: make_stepset([(1,), (-1,)], [True, 1]), "cannot interpret True as a rational"),
        (lambda: make_stepset([(1, 0), (False, 1)], [1, 1]),
         "step (False, 1) has non-integer coordinates"),
        (lambda: make_stepset([(1,), (-1,)], [1, 1], dimension=True),
         "dimension must be a positive integer"),
        (lambda: builtin_model("gb", 2, True), "cannot interpret True as a rational"),
        (lambda: StepSet(True, ((1,),), (F(1),)), "dimension must be a positive integer"),
        (lambda: StepSet(1, ((True,),), (F(1),)), "step (True,) has non-integer coordinates"),
    ], ids=["rational-string", "rational-type", "dimension", "no-steps", "weight-count",
            "float-coordinate", "int-weight", "order", "no-steps-made", "central-parameter",
            "model-parameter", "step-entry", "point-dimension", "point-coordinate",
            "bool-rational", "bool-weight-made", "bool-coordinate-made", "bool-dimension-made",
            "bool-model-parameter", "bool-dimension", "bool-coordinate"])
    def test_rejected_input(self, call, message):
        with pytest.raises(StepSetError) as info:
            call()
        assert str(info.value) == message


class TestDrift:
    def test_gb_zero_drift(self):
        assert drift(builtin_model("gb", 1, 1)) == (0, 0)

    def test_gb_23(self):
        assert drift(builtin_model("gb", 2, 3)) == (F(2, 3), F(5, 6))

    def test_tandem_uniform(self):
        assert drift(builtin_model("tandem", 1, 1)) == (0, 0)

    @pytest.mark.parametrize("a", [F(1, 3), F(1, 2), 1, F(3, 2), 2, 3])
    @pytest.mark.parametrize("b", [F(1, 3), 1, F(5, 2), 4])
    def test_gb_closed_form_grid(self, a, b):
        # component formulas ((1+b)(a^2-b)/(ab), (a+b)(b-a)/(ab))
        a, b = F(a), F(b)
        dx, dy = drift(builtin_model("gb", a, b))
        assert dx == (1 + b) * (a * a - b) / (a * b)
        assert dy == (a + b) * (b - a) / (a * b)

    def test_tandem_closed_form(self):
        a, b = F(5, 3), F(7, 2)
        dx, dy = drift(builtin_model("tandem", a, b))
        assert (dx, dy) == (a - b / a, b / a - 1 / b)


class TestInventory:
    def test_uniform_at_ones(self):
        assert inventory_eval(builtin_model("gb", 1, 1), (1, 1)) == 4

    def test_half_weights_at_two(self):
        model = builtin_model("gb", F(1, 2), F(1, 2))
        assert inventory_eval(model, (2, 2)) == 4

    def test_gb23_at_ones(self):
        assert inventory_eval(builtin_model("gb", 2, 3), (1, 1)) == F(14, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(StepSetError):
            inventory_eval(builtin_model("gb", 1, 1), (0, 1))

    def test_float_point_gives_float(self):
        val = inventory_eval(builtin_model("gb", 1, 1), (1.0, 1.0))
        assert isinstance(val, float) and val == pytest.approx(4.0)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=8, unique=True),
           st.lists(st.fractions(min_value=F(1, 9), max_value=9), min_size=8, max_size=8))
    @settings(max_examples=60)
    def test_ones_point_is_weight_sum(self, steps, weights):
        model = make_stepset(steps, weights[:len(steps)])
        assert inventory_eval(model, (1,) * 2) == sum(model.weights)


class TestSingularity:
    def test_gb_nonsingular(self):
        assert not is_singular(builtin_model("gb", 1, 1))

    def test_diagonal_fan_singular(self):
        assert is_singular(make_stepset([(-1, 1), (1, 1), (1, -1)], [1, 1, 1]))

    def test_axis_pair_singular(self):
        assert is_singular(make_stepset([(1, 0), (0, 1)], [1, 1]))

    def test_full_rank_can_still_be_singular(self):
        # all steps satisfy x + y >= 0 although the step matrix has rank 3
        assert is_singular(make_stepset([(1, 0), (0, 1), (1, 1)], [1, 1, 1]))

    def test_exact_half_turn_gap(self):
        assert is_singular(make_stepset([(1, 0), (-1, 0)], [1, 1]))

    def test_three_dim(self):
        assert not is_singular(make_stepset(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
            [1] * 6))
        assert is_singular(make_stepset(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], [1] * 4))

    def test_one_dim(self):
        assert is_singular(make_stepset([(1,)], [1]))
        assert not is_singular(make_stepset([(1,), (-2,)], [1, 1]))

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=1, max_size=7, unique=True).filter(lambda s: any(any(v) for v in s)),
           st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_invariance_under_permutation_and_scaling(self, steps, rng):
        model = make_stepset(steps, [1] * len(steps))
        base = is_singular(model)
        order = list(range(len(steps)))
        rng.shuffle(order)
        assert is_singular(model.reordered(order)) == base
        assert is_singular(model.with_weights([w * F(7, 3) for w in model.weights])) == base

    def test_agrees_with_direction_enumeration_2d(self):
        # compare the dual-cone test against a brute search over normals
        import itertools
        for r in (1, 2, 3, 4):
            for steps in itertools.combinations(
                    [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)], r):
                model = make_stepset(steps, [1] * len(steps))
                normals = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
                brute = any(all(u[0] * s[0] + u[1] * s[1] >= 0 for s in steps)
                            for u in normals)
                assert is_singular(model) == brute, steps


    def test_agrees_with_direction_enumeration_1d(self):
        import itertools
        for r in range(1, 8):
            for coords in itertools.combinations(range(-3, 4), r):
                brute = any(all(u * c >= 0 for c in coords) for u in (-1, 1))
                assert is_singular(make_stepset([(c,) for c in coords], [1] * r)) == brute, coords

    def test_agrees_with_direction_enumeration_3d(self):
        # extreme rays of the dual cone are cross products of two steps in
        # {-1, 0, 1}^3, so normals in [-2, 2]^3 find every one
        import itertools
        import random
        pool = list(itertools.product((-1, 0, 1), repeat=3))
        normals = [u for u in itertools.product(range(-2, 3), repeat=3) if any(u)]
        rng = random.Random(5)
        for _ in range(600):
            steps = rng.sample(pool, rng.randint(1, 8))
            brute = any(all(sum(a * b for a, b in zip(u, s)) >= 0 for s in steps)
                        for u in normals)
            assert is_singular(make_stepset(steps, [1] * len(steps))) == brute, steps

class TestCentralWeights:
    def test_gb_form(self):
        weights = central_weights(GB_STEPS, (F(2), F(3)))
        assert weights == [F(2), F(1, 2), F(3, 2), F(2, 3)]

    def test_beta_scaling(self):
        weights = central_weights([(1, 1)], (F(2), F(3)), beta=F(5))
        assert weights == [F(30)]
