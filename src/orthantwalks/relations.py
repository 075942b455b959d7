"""Exact coefficientwise relations between weighted and unweighted counting tables.

A central weighting with decomposition (alpha, beta) satisfies, coefficient
by coefficient from the origin,

    weighted(i, n) = beta**n * prod_k alpha_k**i_k * unweighted(i, n),

and at the origin endpoint the excursion relation e_a(n) = beta**n e(n).
Because alpha and beta are monomials with rational exponents in the weights,
both identities are verified in exponent-cleared form: the count ratio is
raised to the lcm of the exponent denominators so every comparison is an
equality of exact rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .central import CentralDecomposition, NotCentralError, is_central, monomial_equals
from .counting import count_walks
from .stepset import StepSet


def _combined_exponents(dec: CentralDecomposition, endpoint, n: int) -> tuple[Fraction, ...]:
    mono = dec.beta ** n
    for k, coord in enumerate(endpoint):
        if coord:
            mono = mono * (dec.alpha[k] ** coord)
    return mono.exponents


def check_gf_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of weighted(i, n) = beta**n prod alpha_k**i_k unweighted(i, n), n <= n_max."""
    central, witness = is_central(model)
    if not central:
        raise NotCentralError(
            f"relation check requires a central weighting; violated {witness.describe()}",
            witness)
    origin = (0,) * model.dimension
    weighted = count_walks(model, origin, n_max, mode="exact")
    unweighted = count_walks(model.unweighted(), origin, n_max, mode="exact")
    for n in range(n_max + 1):
        layer_w = weighted.layer(n)
        layer_u = unweighted.layer(n)
        if set(layer_w) != set(layer_u):
            return False
        for endpoint, u_count in layer_u.items():
            w_count = layer_w[endpoint]
            exponents = _combined_exponents(dec, endpoint, n)
            if not monomial_equals(model.weights, exponents,
                                   Fraction(w_count) / Fraction(u_count)):
                return False
    return True


def check_excursion_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of the excursion relation e_a(n) = beta**n e(n) for n <= n_max."""
    central, witness = is_central(model)
    if not central:
        raise NotCentralError(
            f"relation check requires a central weighting; violated {witness.describe()}",
            witness)
    origin = (0,) * model.dimension
    weighted = count_walks(model, origin, n_max, mode="exact")
    unweighted = count_walks(model.unweighted(), origin, n_max, mode="exact")
    for n in range(n_max + 1):
        e_w = Fraction(weighted.endpoint(origin, n))
        e_u = Fraction(unweighted.endpoint(origin, n))
        if (e_w == 0) != (e_u == 0):
            return False
        if e_u == 0:
            continue
        if not monomial_equals(model.weights, (dec.beta ** n).exponents, e_w / e_u):
            return False
    return True
