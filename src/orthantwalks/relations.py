"""Exact coefficientwise relations between weighted and unweighted counting tables.

A central weighting with decomposition (alpha, beta) satisfies, coefficient
by coefficient from the origin,

    weighted(p, n) = beta**n * prod_k alpha_k**p_k * unweighted(p, n),

and at the origin endpoint the excursion relation e_a(n) = beta**n e(n).
Because alpha and beta are monomials with rational exponents in the weights,
both identities are verified in exponent-cleared form: raised to the lcm D of
the exponent denominators, beta and alpha_k are exact rationals, and every
comparison is an equality of integers.
"""

from __future__ import annotations

from math import lcm

from .central import CentralDecomposition, NotCentralError, is_central
from .counting import count_walks
from .stepset import StepSet


def _relation_holds(model: StepSet, dec: CentralDecomposition, n_max: int,
                    origin_only: bool) -> bool:
    """The relation at every endpoint p, or at the origin only, for n <= n_max.

    The weighted table is built with the weights times their common
    denominator L, so it holds the integers w = L**n weighted(p, n).  With
    (L beta)**D = B / B' and alpha_k**D = A_k / A'_k in lowest terms, the
    relation reads w**D B'**n prod A'_k**p_k == u**D B**n prod A_k**p_k.
    """
    central, witness = is_central(model)
    if not central:
        raise NotCentralError(
            f"relation check requires a central weighting; violated {witness.describe()}",
            witness)
    origin = (0,) * model.dimension
    scale = lcm(*(w.denominator for w in model.weights))
    tables = (count_walks(model.with_weights([w * scale for w in model.weights]),
                          origin, n_max, mode="exact"),
              count_walks(model.unweighted(), origin, n_max, mode="exact"))
    d = dec.denominator
    beta = (dec.beta.raised(model.weights, d) * scale ** d).as_integer_ratio()
    top = 0 if origin_only else n_max * max(0, *map(max, model.steps))  # largest p_k
    powers = [[(num ** p, den ** p) for p in range(top + 1)] for num, den
              in (alpha.raised(model.weights, d).as_integer_ratio() for alpha in dec.alpha)]
    beta_n = (1, 1)
    for n in range(n_max + 1):
        layer_w, layer_u = ({origin: t.endpoint(origin, n)} if origin_only else t.layer(n)
                            for t in tables)
        if layer_w.keys() != layer_u.keys():
            return False
        for p, u in layer_u.items():
            lhs, rhs = layer_w[p] ** d * beta_n[1], u ** d * beta_n[0]
            for table, c in zip(powers, p):
                lhs, rhs = lhs * table[c][1], rhs * table[c][0]
            if lhs != rhs:
                return False
        beta_n = (beta_n[0] * beta[0], beta_n[1] * beta[1])
    return True


def check_gf_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of weighted(p, n) = beta**n prod alpha_k**p_k unweighted(p, n), n <= n_max."""
    return _relation_holds(model, dec, n_max, origin_only=False)


def check_excursion_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of the excursion relation e_a(n) = beta**n e(n) for n <= n_max."""
    return _relation_holds(model, dec, n_max, origin_only=True)
