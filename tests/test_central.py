"""Central-weighting algebra: step matrix, path pairs, centrality, solve, equivalence."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantwalks import (NotCentralError, SingularModelError, are_equivalent,
                          builtin_model, central_weights, classify, find_path_pairs,
                          is_central, is_singular, make_stepset, rank_full,
                          solve_central, step_matrix)
from orthantwalks.central import CentralDecomposition, central_check, pair_holds

GB_STEPS = ((1, 0), (-1, 0), (-1, 1), (1, -1))
LONG_STEP_SET = ((2, 2), (1, 1), (-1, 0), (0, -1))


def long_step_model(weights=None):
    return make_stepset(LONG_STEP_SET, weights or [1] * 4)


class TestStepMatrix:
    def test_gb(self):
        model = builtin_model("gb", 1, 1)
        assert step_matrix(model) == ((1, 0, 1), (-1, 0, 1), (-1, 1, 1), (1, -1, 1))

    def test_long_step_matrix(self):
        assert step_matrix(long_step_model()) == ((2, 2, 1), (1, 1, 1), (-1, 0, 1), (0, -1, 1))

    def test_singleton(self):
        assert step_matrix(make_stepset([(1, 1)], [1])) == ((1, 1, 1),)


class TestRank:
    def test_gb_full(self):
        assert rank_full(builtin_model("gb", 1, 1)) == (3, True)

    def test_collinear_deficient(self):
        model = make_stepset([(1, 1), (2, 2), (-1, -1)], [1, 1, 1])
        rank, full = rank_full(model)
        assert rank <= 2 and not full

    def test_long_step_full_rank(self):
        assert rank_full(long_step_model()) == (3, True)

    def test_nonsingular_implies_full_rank(self):
        # rank d+1 for every non-singular set; deficient rank forces singularity
        from orthantwalks import is_singular
        import itertools
        pool = [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)]
        for steps in itertools.combinations(pool, 4):
            model = make_stepset(steps, [1] * 4)
            rank, full = rank_full(model)
            if not is_singular(model):
                assert full
            if not full:
                assert is_singular(model)


class TestPathPairs:
    def test_gb_alternative_base(self):
        # base {(1,0), (-1,0), (1,-1)} leaves s = (-1,1) and the two-step pair
        model = builtin_model("gb", 1, 1)
        base, pairs = find_path_pairs(model, base=(0, 1, 3))
        assert base == (0, 1, 3)
        (pair,) = pairs
        assert pair.step_index == 2
        assert dict(pair.left) == {2: 1, 3: 1}    # (-1,1) then (1,-1)
        assert dict(pair.right) == {0: 1, 1: 1}   # (1,0) then (-1,0)
        assert sum(m for _, m in pair.left) == 2 and pair.endpoint == (0, 0)

    def test_gb_default_base_same_relation(self):
        model = builtin_model("gb", 1, 1)
        base, pairs = find_path_pairs(model)
        assert base == (0, 1, 2)
        (pair,) = pairs
        # same multiset relation, derived for s = (1,-1)
        assert dict(pair.left) == {2: 1, 3: 1}
        assert dict(pair.right) == {0: 1, 1: 1}

    def test_long_step_relation(self):
        base, pairs = find_path_pairs(long_step_model(), base=(1, 2, 3))
        (pair,) = pairs
        assert pair.step_index == 0
        assert dict(pair.left) == {0: 3, 2: 1, 3: 1}   # 3x(2,2), (-1,0), (0,-1)
        assert dict(pair.right) == {1: 5}               # 5x(1,1)
        assert sum(m for _, m in pair.left) == 5 and pair.endpoint == (5, 5)

    def test_pair_invariants(self):
        for name in ("gb", "gessel", "simple"):
            model = builtin_model(name, 1, 1)
            base, pairs = find_path_pairs(model)
            for pair in pairs:
                left_len = sum(m for _, m in pair.left)
                right_len = sum(m for _, m in pair.right)
                assert left_len == right_len
                assert dict(pair.left)[pair.step_index] >= 1
                assert pair.step_index not in dict(pair.right)
                assert pair.step_index not in base

    def test_singular_rejected(self):
        with pytest.raises(SingularModelError):
            find_path_pairs(make_stepset([(-1, 1), (1, 1), (1, -1)], [1, 1, 1]))

    @pytest.mark.parametrize("call,base", [(find_path_pairs, (-1, 0, 1)),
                                           (solve_central, (-1, 0, 1)),
                                           (find_path_pairs, (0, 1, 4))],
                             ids=["pairs-negative", "solve-negative", "pairs-past-end"])
    def test_base_index_out_of_range_rejected(self, call, base):
        # index -1 would name step 3 both inside and outside the base
        with pytest.raises(ValueError, match="not an independent subset") as info:
            call(builtin_model("gb", 2, 3), base)
        assert type(info.value) is ValueError


def random_central_gb(a, b):
    return builtin_model("gb", a, b)


class TestIsCentral:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (F(1, 2), F(5, 7)), (F(9, 4), F(9, 4))])
    def test_gb_family_central(self, a, b):
        central, witness = is_central(builtin_model("gb", a, b))
        assert central and witness is None

    def test_noncentral_witness(self):
        model = builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])
        central, witness = is_central(model)
        assert not central
        # violated relation a(-1,1) a(1,-1) = a(1,0) a(-1,0): 3 * 1 != 2 * 1/2
        assert dict(witness.left) == {2: 1, 3: 1}
        assert dict(witness.right) == {0: 1, 1: 1}
        assert not pair_holds(model, witness)

    def test_three_step_always_central(self):
        for weights in ([1, 1, 1], [F(7, 2), F(1, 5), F(9)], [2, 3, 4]):
            model = make_stepset(((1, 0), (-1, 1), (0, -1)), weights)
            assert is_central(model) == (True, None)

    def test_central_check_rejects_singular(self):
        with pytest.raises(SingularModelError) as info:
            central_check(make_stepset([(1, 0), (0, 1), (1, 1)], [1, 1, 1]))
        assert str(info.value) == "centrality is only defined for non-singular models"

    def test_order_independence(self):
        base = builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])
        import itertools
        for order in itertools.permutations(range(4)):
            assert is_central(base.reordered(order))[0] is False
        central = builtin_model("gb", F(5, 3), F(2, 7))
        for order in itertools.permutations(range(4)):
            assert is_central(central.reordered(order))[0] is True


class TestSolveCentral:
    def test_long_step_closed_forms(self):
        model = long_step_model(central_weights(LONG_STEP_SET, (F(2), F(3))))
        dec = solve_central(model, base=(0, 1, 3))
        # alpha1 = a22^2 a0-1 / a11^3, alpha2 = a11^2/(a22 a0-1), beta = a11^2/a22
        assert dec.alpha[0].exponents == (F(2), F(-3), F(0), F(1))
        assert dec.alpha[1].exponents == (F(-1), F(2), F(0), F(-1))
        assert dec.beta.exponents == (F(-1), F(2), F(0), F(0))
        assert dec.alpha_exact() == (F(2), F(3))
        assert dec.beta_exact() == F(1)

    def test_gb_alpha_a_beta_one(self):
        for a, b in [(2, 3), (F(1, 2), F(7, 5))]:
            dec = solve_central(builtin_model("gb", a, b))
            assert dec.alpha_exact() == (F(a), F(b))
            assert dec.beta_exact() == F(1)

    def test_uniform_weights_identity(self):
        for name in ("gb", "tandem", "gessel", "simple"):
            dec = solve_central(builtin_model(name, 1, 1))
            assert dec.alpha_exact() == (F(1), F(1))
            assert dec.beta_exact() == F(1)

    def test_not_central_raises_with_witness(self):
        model = builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])
        with pytest.raises(NotCentralError) as err:
            solve_central(model)
        assert err.value.witness is not None

    def test_failed_round_trip_raises(self, monkeypatch):
        # the last guard: alpha and beta that do not give back the weights are refused
        monkeypatch.setattr(CentralDecomposition, "verify", lambda self: False)
        with pytest.raises(NotCentralError, match="round-trip"):
            solve_central(builtin_model("gb", 2, 3))

    def test_base_choice_changes_monomial_not_value(self):
        model = long_step_model(central_weights(LONG_STEP_SET, (F(5, 3), F(7, 2)), beta=F(2)))
        default = solve_central(model)
        explicit = solve_central(model, base=(0, 1, 3))
        assert default.alpha_exact() == explicit.alpha_exact() == (F(5, 3), F(7, 2))
        assert default.beta_exact() == explicit.beta_exact() == F(2)

    @given(st.fractions(min_value=F(1, 7), max_value=7),
           st.fractions(min_value=F(1, 7), max_value=7),
           st.fractions(min_value=F(1, 7), max_value=7))
    @settings(max_examples=40)
    def test_roundtrip_on_random_central_weightings(self, a, b, beta):
        for name in ("gb", "tandem", "gessel", "simple"):
            steps = builtin_model(name, 1, 1).steps
            model = make_stepset(steps, central_weights(steps, (a, b), beta=beta))
            dec = solve_central(model)
            assert dec.verify()
            assert dec.alpha_exact() == (a, b)
            assert dec.beta_exact() == beta


class TestSharedBaseSolve:
    """find_path_pairs and solve_central read one base and its exact inverse."""

    def test_not_central_witness_equals_is_central(self):
        import itertools
        import random
        rng = random.Random(11)
        pool = [s for s in itertools.product((-1, 0, 1), repeat=2) if any(s)]
        models = [builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])]
        for _ in range(300):
            steps = rng.sample(pool, rng.randint(4, 8))
            models.append(make_stepset(steps, [F(rng.randint(1, 9), rng.randint(1, 9))
                                               for _ in steps]))
        checked = 0
        for model in models:
            try:
                central, witness = is_central(model)
            except SingularModelError:
                with pytest.raises(SingularModelError):
                    solve_central(model)
                continue
            if central:
                assert solve_central(model).verify()
                continue
            with pytest.raises(NotCentralError) as err:
                solve_central(model)
            got = err.value.witness
            assert (got.step_index, got.left, got.right) == (
                witness.step_index, witness.left, witness.right)
            assert str(err.value) == f"weighting is not central; violated relation {witness.describe()}"
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("steps", [GB_STEPS, LONG_STEP_SET], ids=["gb", "longstep"])
    def test_every_base_agrees(self, steps):
        import itertools
        model = make_stepset(steps, central_weights(steps, (F(5, 3), F(2, 7)), beta=F(3)))
        bases = [base for base in itertools.combinations(range(len(steps)), 3)
                 if rank_full(make_stepset([steps[i] for i in base], [1] * 3))[1]]
        assert len(bases) >= 3
        for base in bases:
            chosen, pairs = find_path_pairs(model, base)
            assert chosen == base
            assert sorted(p.step_index for p in pairs) == sorted(set(range(len(steps))) - set(base))
            assert all(pair_holds(model, pair) for pair in pairs)
            dec = solve_central(model, base)
            assert dec.verify()
            for mono in (dec.beta, *dec.alpha):
                assert all(q == 0 for k, q in enumerate(mono.exponents) if k not in base)
            assert dec.alpha_exact() == (F(5, 3), F(2, 7)) and dec.beta_exact() == F(3)


class TestLeftKernelPairs:
    """Path pairs are the integer left kernel of the step matrix, solved once per step set."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pairs_are_primitive_left_kernel_vectors(self, d):
        import itertools
        import math
        import random
        rng = random.Random(19 + d)
        pool = [s for s in itertools.product(range(-2, 3), repeat=d) if any(s)]
        checked = 0
        for _ in range(60):
            steps = rng.sample(pool, rng.randint(d + 1, min(len(pool), d + 5)))
            model = make_stepset(steps, [1] * len(steps))
            if is_singular(model):
                continue
            matrix = step_matrix(model)
            default, _ = find_path_pairs(model)
            bases = [default] + rng.sample(list(itertools.combinations(range(len(steps)), d + 1)),
                                           min(4, math.comb(len(steps), d + 1)))
            for base in bases:
                try:
                    chosen, pairs = find_path_pairs(model, base)
                except ValueError:
                    assert rank_full(make_stepset([steps[i] for i in base], [1] * (d + 1)))[1] is False
                    continue
                assert chosen == base
                assert sorted(p.step_index for p in pairs) == sorted(set(range(len(steps))) - set(base))
                for pair in pairs:
                    mu = [dict(pair.left).get(k, 0) - dict(pair.right).get(k, 0)
                          for k in range(len(steps))]
                    assert all(sum(m * row[c] for m, row in zip(mu, matrix)) == 0
                               for c in range(d + 1))
                    assert math.gcd(*mu) == 1
                    assert mu[pair.step_index] > 0
                    assert all(mu[k] == 0 for k in range(len(steps))
                               if k not in base and k != pair.step_index)
                checked += 1
        assert checked > 50

    def test_one_solve_per_step_set(self, monkeypatch):
        import importlib
        from orthantwalks import central
        calls = []

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        solve = central.solve
        monkeypatch.setattr(central, "solve", counting_solve)
        central._base_solve.cache_clear()
        importlib.import_module("orthantwalks.classify")._central_rule.cache_clear()
        steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))  # zero unweighted drift
        weightings = [central_weights(steps, (F(2, 3), F(5, 7)), beta=F(3)),
                      central_weights(steps, (F(1, 2), F(1, 3))),
                      [2, 1, 1, 1, 1, 1]]
        models = [make_stepset(steps, weights) for weights in weightings]
        for model in models:
            find_path_pairs(model)
            if is_central(model)[0]:
                solve_central(model)
            are_equivalent(model, models[0])
        assert classify(models[1]).family == "reluctant"
        assert len(calls) == 1


class TestEquivalence:
    def test_self_equivalent(self):
        model = builtin_model("gb", 2, 3)
        assert are_equivalent(model, model)

    def test_gb_central_weightings_equivalent(self):
        assert are_equivalent(builtin_model("gb", 2, 3), builtin_model("gb", 1, 1))

    def test_noncentral_not_equivalent_to_uniform(self):
        bad = builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])
        assert not are_equivalent(bad, builtin_model("gb", 1, 1))

    def test_central_iff_equivalent_to_uniform(self):
        for weights in ([2, F(1, 2), 3, 1], list(central_weights(GB_STEPS, (F(3, 2), F(5, 9))))):
            model = make_stepset(GB_STEPS, weights)
            uniform = model.unweighted()
            assert is_central(model)[0] == are_equivalent(model, uniform)

    def test_step_list_mismatch(self):
        from orthantwalks import StepSetError
        with pytest.raises(StepSetError):
            are_equivalent(builtin_model("gb", 1, 1), builtin_model("tandem", 1, 1))
