"""Exact weighted/unweighted coefficient and excursion relations."""

import dataclasses
from fractions import Fraction as F

import pytest

from orthantwalks import (Monomial, NotCentralError, builtin_model, central_weights,
                          check_excursion_relation, check_gf_relation,
                          count_walks, make_stepset, solve_central)

LONG_STEP_SET = ((2, 2), (1, 1), (-1, 0), (0, -1))
FRACTIONAL_STEPS = ((1, 0), (-1, 0), (-1, 1), (1, -1))


def product(m, other):
    """The monomial m * other: exponents add."""
    return Monomial(tuple(p + q for p, q in zip(m.exponents, other.exponents)))


def test_identity_weighting():
    model = builtin_model("gb", 1, 1)
    dec = solve_central(model)
    assert check_gf_relation(model, dec, 6)


def test_gb_23_coefficientwise():
    model = builtin_model("gb", 2, 3)
    dec = solve_central(model)
    assert check_gf_relation(model, dec, 8)


@pytest.mark.parametrize("name", ["gb", "tandem", "gessel", "simple"])
def test_all_builtins_coefficientwise_to_12(name):
    model = builtin_model(name, 2, 3)
    assert check_gf_relation(model, solve_central(model), 12)


def test_non_central_rejected():
    model = builtin_model("gb", 1, 1).with_weights([2, F(1, 2), 3, 1])
    good = solve_central(builtin_model("gb", 2, 3))
    with pytest.raises(NotCentralError):
        check_gf_relation(model, good, 4)


def test_fractional_exponent_weighting():
    # a weighting whose alpha has non-unit exponent denominators still checks exactly
    model = make_stepset(FRACTIONAL_STEPS,
                         central_weights(FRACTIONAL_STEPS, (F(2), F(9, 4)), beta=F(3)))
    dec = solve_central(model)
    assert check_gf_relation(model, dec, 6)
    assert check_excursion_relation(model, dec, 10)


@pytest.mark.parametrize("model", [
    builtin_model("gb", 2, 3),
    make_stepset(FRACTIONAL_STEPS, central_weights(FRACTIONAL_STEPS, (F(2), F(9, 4)), beta=F(3))),
], ids=["gb(2,3)", "fractional-exponents"])
def test_wrong_beta_rejected(model):
    # beta replaced by beta * alpha_0: both relations fail on a central model
    dec = solve_central(model)
    wrong = dataclasses.replace(dec, beta=product(dec.beta, dec.alpha[0]))
    assert check_gf_relation(model, dec, 12) and check_excursion_relation(model, dec, 12)
    assert not check_gf_relation(model, wrong, 12)
    assert not check_excursion_relation(model, wrong, 12)


def test_reversed_alpha_rejected_off_the_origin():
    # alpha_k enters as alpha_k**p_k, so swapping alpha_1 and alpha_2 breaks the
    # relation off the origin only: the origin carries alpha**0 = 1
    model = builtin_model("gb", 2, 3)
    dec = solve_central(model)
    swapped = dataclasses.replace(dec, alpha=tuple(reversed(dec.alpha)))
    assert dec.alpha_exact()[0] != dec.alpha_exact()[1]
    assert not check_gf_relation(model, swapped, 10)
    assert check_excursion_relation(model, swapped, 10)


def test_three_dimensional_central_model():
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
    model = make_stepset(steps, central_weights(steps, (2, F(1, 3), 5), beta=F(3, 2)))
    dec = solve_central(model)
    assert check_gf_relation(model, dec, 8) and check_excursion_relation(model, dec, 8)
    wrong = dataclasses.replace(dec, beta=product(dec.beta, dec.alpha[2]))
    assert not check_gf_relation(model, wrong, 8) and not check_excursion_relation(model, wrong, 8)


def test_excursion_relation_beta_one():
    for a, b in [(2, 3), (F(1, 2), F(7, 3))]:
        model = builtin_model("gb", a, b)
        dec = solve_central(model)
        assert check_excursion_relation(model, dec, 20)
        unweighted = count_walks(model.unweighted(), (0, 0), 20)
        weighted = count_walks(model, (0, 0), 20)
        for n in range(21):
            assert weighted.endpoint((0, 0), n) == unweighted.endpoint((0, 0), n)


def test_excursion_relation_beta_two():
    model = make_stepset(LONG_STEP_SET, [2, 2, 2, 2])  # alpha = (1,1), beta = 2
    dec = solve_central(model)
    assert dec.beta_exact() == 2
    assert check_excursion_relation(model, dec, 10)
    unweighted = count_walks(model.unweighted(), (0, 0), 10)
    weighted = count_walks(model, (0, 0), 10)
    for n in range(11):
        assert weighted.endpoint((0, 0), n) == 2 ** n * unweighted.endpoint((0, 0), n)


def test_excursion_relation_trivial_cap():
    model = builtin_model("gb", 2, 3)
    dec = solve_central(model)
    assert check_excursion_relation(model, dec, 0)
