"""Null-space checker: assembled equations, the echelon core, refutation lengths."""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantwalks import (ResourceGuardError, builtin_model, conjecture2_nullspace,
                          make_stepset, minimal_refutation_length)
from orthantwalks.conjecture import _lengths, residuals
from orthantwalks.counting import DEFAULT_GUARD
from orthantwalks.linalg import EchelonBasis, solve

# tandem with its steps in the reverse order; row reduction of its cap-1
# system leaves the last column a pivot with nothing to its right
REVERSED_TANDEM = ((0, -1), (-1, 1), (1, 0))


class TestGBNullspace:
    def test_dimensions_by_cap(self):
        gb = builtin_model("gb", 1, 1)
        assert conjecture2_nullspace(gb, 1).nullity == 3
        assert conjecture2_nullspace(gb, 2).nullity == 1
        assert conjecture2_nullspace(gb, 3).nullity == 0

    def test_cap1_forces_only_east_step(self):
        # mu_(1,0) = 0 is forced; the other three coordinates stay free
        gb = builtin_model("gb", 1, 1)
        basis = conjecture2_nullspace(gb, 1).basis
        assert all(vec[0] == 0 for vec in basis)
        spanned = {tuple(v != 0 for v in vec) for vec in basis}
        assert len(basis) == 3

    def test_cap2_leaves_southeast_step_free(self):
        gb = builtin_model("gb", 1, 1)
        (vec,) = conjecture2_nullspace(gb, 2).basis
        assert vec == (0, 0, 0, 1)  # mu_(1,-1) unconstrained

    def test_verified_flag(self):
        gb = builtin_model("gb", 1, 1)
        assert not conjecture2_nullspace(gb, 2).verified
        assert conjecture2_nullspace(gb, 3).verified


class TestRefutationLength:
    def test_gb_is_three(self):
        assert minimal_refutation_length(builtin_model("gb", 1, 1), 6) == 3

    def test_delayed_step_set_is_four(self):
        model = make_stepset([(1, 0), (-1, 1), (-1, -1)], [1, 1, 1])
        assert minimal_refutation_length(model, 6) == 4

    @pytest.mark.parametrize("name,expected_max", [
        ("gb", 4), ("tandem", 4), ("gessel", 4), ("simple", 4)])
    def test_builtins_at_most_four(self, name, expected_max):
        n_s = minimal_refutation_length(builtin_model(name, 1, 1), 4)
        assert n_s is not None and n_s <= expected_max

    def test_all_ones_step_gives_two(self):
        rng = random.Random(20260810)
        for d in (2, 3):
            pool = [s for s in itertools.product((-1, 0, 1), repeat=d) if any(s)]
            negatives = [s for s in pool if min(s) < 0]
            ones = (1,) * d
            for _ in range(10):
                extra = rng.sample(negatives, rng.randrange(1, 5))
                steps = list(dict.fromkeys([ones] + extra))
                model = make_stepset(steps, [1] * len(steps))
                assert minimal_refutation_length(model, 4) == 2

    def test_checker_stops_at_n_s(self):
        # the table to n = 399 holds far more than 1,000 cells; the stream stops at N_S
        model = builtin_model("gb", 1, 1)
        assert minimal_refutation_length(model, 400, guard=1000) == 3
        report = conjecture2_nullspace(model, 400, guard=1000)
        assert report.nullity == 0 and report.refutation_length == 3

    def test_guard_holds_for_the_stream(self):
        # N_S = 3 needs GB's layer 2, built from layer 1 (1 cell) into a window of 4
        model = builtin_model("gb", 1, 1)
        assert minimal_refutation_length(model, 400, guard=5) == 3
        with pytest.raises(ResourceGuardError):
            minimal_refutation_length(model, 400, guard=4)

    def test_absent_when_cap_too_small(self):
        assert minimal_refutation_length(builtin_model("gb", 1, 1), 2) is None

    def test_nullity_monotone_in_cap(self):
        for name in ("gb", "tandem", "gessel"):
            model = builtin_model(name, 1, 1)
            dims = [conjecture2_nullspace(model, cap).nullity for cap in (1, 2, 3, 4)]
            assert all(d2 <= d1 for d1, d2 in zip(dims, dims[1:]))


class TestSoundness:
    @pytest.mark.parametrize("cap", [1, 2])
    def test_basis_vectors_annihilate_all_equations(self, cap):
        gb = builtin_model("gb", 1, 1)
        for vec in conjecture2_nullspace(gb, cap).basis:
            assert all(r == 0 for r in residuals(gb, vec, cap))

    def test_residuals_match_fraction_substitution(self):
        # the integer dot products against the plain rational formula
        rng = random.Random(17)
        king = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if (i, j) != (0, 0)]
        for _ in range(5):
            steps = rng.sample(king, rng.randrange(3, 9))
            model = make_stepset(steps, [1] * len(steps))
            rows = [row for _, rows in _lengths(model, 5, DEFAULT_GUARD) for row in rows]
            vec = tuple(rng.choice([0, 1, -3, F(2, 3), F(-5, 7), F(10 ** 20, 3)])
                        for _ in model.steps)
            got = residuals(model, vec, 5)
            assert got == [sum(F(c) * q for c, q in zip(row, vec)) for row in rows]
            assert all(type(r) is F for r in got)

    def test_four_dim_example_runs(self):
        # the 16-step dimension-4 set: 4 base vectors plus the 12 coordinate
        # permutations of (-1,1,1,0); a stretch input, checked at cap 2 only
        base = [tuple(int(k == i) for k in range(4)) for i in range(4)]
        perms = sorted(set(itertools.permutations((-1, 1, 1, 0))))
        steps = base + perms
        assert len(steps) == 16
        model = make_stepset(steps, [1] * 16)
        report = conjecture2_nullspace(model, 2)
        assert report.nullity > 0  # not yet refuted at cap 2
        for vec in report.basis:
            assert all(r == 0 for r in residuals(model, vec, 2))


class TestRejectedInput:
    @pytest.mark.parametrize("call,message", [
        (lambda gb: conjecture2_nullspace(gb, 0), "n_cap must be at least 1"),
        (lambda gb: minimal_refutation_length(gb, 0), "cap must be at least 1"),
        (lambda gb: residuals(gb, (1, 2), 3), "mu has 2 entries, not one per step (4)"),
        (lambda gb: residuals(gb, (1,) * 5, 3), "mu has 5 entries, not one per step (4)"),
        (lambda gb: EchelonBasis(3).add([1, 2]), "row of length 2 in a basis of width 3"),
        (lambda gb: solve([[1, 2], [2, 4]], [[1, 0]]), "singular linear system"),
    ], ids=["nullspace-cap", "refutation-cap", "residuals-short", "residuals-long",
            "basis-row", "singular-solve"])
    def test_rejected_input(self, call, message):
        with pytest.raises(ValueError) as info:
            call(builtin_model("gb"))
        assert str(info.value) == message


class TestElimination:
    def fraction_nullspace(self, rows, width):
        # plain rational Gaussian elimination as an independent oracle
        mat = [[F(x) for x in row] for row in rows]
        pivots, rank = [], 0
        for c in range(width):
            pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
            if pivot is None:
                continue
            mat[rank], mat[pivot] = mat[pivot], mat[rank]
            mat[rank] = [x / mat[rank][c] for x in mat[rank]]
            for r in range(len(mat)):
                if r != rank and mat[r][c] != 0:
                    f = mat[r][c]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
            pivots.append(c)
            rank += 1
        basis = []
        for free in (c for c in range(width) if c not in pivots):
            vec = [F(0)] * width
            vec[free] = F(1)
            for r in range(rank - 1, -1, -1):
                c = pivots[r]
                vec[c] = -sum(mat[r][k] * vec[k] for k in range(c + 1, width))
            basis.append(vec)
        return basis

    def test_core_matches_fraction_elimination(self):
        rng = random.Random(99)
        for _ in range(40):
            rows = [[rng.randrange(-4, 5) for _ in range(5)] for _ in range(rng.randrange(1, 8))]
            if not any(any(row) for row in rows):
                continue
            ours = EchelonBasis(5, [r for r in rows if any(r)]).null_space()
            reference = self.fraction_nullspace([r for r in rows if any(r)], 5)
            assert len(ours) == len(reference)
            for vec in ours:
                assert all(sum(F(c) * q for c, q in zip(row, vec)) == 0
                           for row in rows)

    def test_core_entries_stay_integral(self):
        rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8], [9, 7, 9, 3]]
        assert EchelonBasis(4, rows).rank == 4
        (vec,) = EchelonBasis(4, rows[:3]).null_space()
        assert all(isinstance(x, int) for x in vec)
        assert gcd(*vec) == 1 and vec[3] > 0

    def test_pivot_in_last_column(self):
        assert EchelonBasis(2, [[0, 1]]).null_space() == [(1, 0)]

    @given(st.integers(1, 8).flatmap(lambda width: st.lists(
        st.lists(st.integers(-5, 5), min_size=width, max_size=width), max_size=10)
        .map(lambda rows: (width, rows))), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_core_properties(self, case, rnd):
        width, rows = case
        basis = EchelonBasis(width)
        for k, row in enumerate(rows):
            before = len(self.fraction_nullspace(rows[:k], width))
            after = len(self.fraction_nullspace(rows[:k + 1], width))
            assert basis.add(row) == (after < before)
        null = basis.null_space()
        assert basis.rank + len(null) == width
        assert all(sum(c * x for c, x in zip(row, vec)) == 0 for row in rows for vec in null)
        for vec, ref in zip(null, self.fraction_nullspace(rows, width)):
            # vec must be a positive multiple of ref, which is 1 at its free column
            scale = vec[ref.index(1)]
            assert scale > 0 and [F(x, scale) for x in vec] == ref
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert EchelonBasis(width, shuffled).null_space() == null


class TestReorderedSteps:
    """A permuted step list permutes the null space and keeps N_S."""

    def test_reversed_tandem_matches_builtin(self):
        tandem = builtin_model("tandem", 1, 1)
        order = [tandem.steps.index(s) for s in REVERSED_TANDEM]
        model = make_stepset(REVERSED_TANDEM, [1] * 3)
        for cap in (1, 2, 3, 4):
            ours, ref = conjecture2_nullspace(model, cap), conjecture2_nullspace(tandem, cap)
            assert ours.nullity == ref.nullity
            assert sorted(ours.basis) == sorted(tuple(vec[k] for k in order)
                                                for vec in ref.basis)
            assert ours.refutation_length == ref.refutation_length
        assert (minimal_refutation_length(model, 12)
                == minimal_refutation_length(tandem, 12) == 3)
