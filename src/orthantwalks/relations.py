"""Exact coefficientwise relations between weighted and unweighted counting tables.

A central weighting with decomposition (alpha, beta) satisfies, coefficient
by coefficient from the origin,

    weighted(p, n) = beta**n * prod_k alpha_k**p_k * unweighted(p, n),

and at the origin endpoint the excursion relation e_a(n) = beta**n e(n).
Because alpha and beta are monomials with rational exponents in the weights,
both identities are verified in exponent-cleared form: raised to the lcm D of
the exponent denominators, beta and alpha_k are exact rationals, and every
comparison is an equality of integers.

A `WalkTable` of a central weighting reads its counts through this very
identity, from the unit-weight stream.  So the checks build the weighted
stream directly, with `_layers` on the weights themselves, and never through
a table: a table would compare the identity with itself.
"""

from __future__ import annotations

import numpy as np

from .central import CentralDecomposition, NotCentralError, is_central
from .counting import _kernel_weights, _lattice, _layers
from .stepset import StepSet


def _relation_holds(model: StepSet, dec: CentralDecomposition, n_max: int,
                    origin_only: bool) -> bool:
    """The relation at every endpoint p, or at the origin only, for n <= n_max.

    The weighted and unweighted exact streams are read in lockstep.  The
    weighted one holds the integers w = L**n weighted(p, n), L the common
    denominator of the weights.  With (L beta)**D = B / B' and alpha_k**D =
    A_k / A'_k in lowest terms, the relation reads, cell by cell on the
    shared window, w**D B'**n prod A'_k**p_k == u**D B**n prod A_k**p_k.
    """
    central, witness = is_central(model)
    if not central:
        raise NotCentralError(
            f"relation check requires a central weighting; violated {witness.describe()}",
            witness)
    origin = (0,) * model.dimension
    lattice, (_, scale) = _lattice(model.steps), _kernel_weights(model, "exact")
    d = dec.denominator
    beta = (dec.beta.raised(model.weights, d) * scale ** d).as_integer_ratio()
    alphas = [alpha.raised(model.weights, d).as_integer_ratio() for alpha in dec.alpha]
    beta_n = (1, 1)
    for (_, (w, _, window, *_), _), (_, (u, _, other, *_), _) in zip(
            _layers(model, origin, n_max, "exact"),
            _layers(model.unweighted(), origin, n_max, "exact")):
        if window != other:
            return False
        if origin_only:  # the origin is the first cell of a window that starts there
            cut = (slice(0, int(window[0] == origin)),) * model.dimension
            w, u = w[cut], u[cut]
        lhs, rhs = w ** d * beta_n[1], u ** d * beta_n[0]
        for k, (l, m, (num, den)) in enumerate(zip(window[0], lattice, alphas)):
            axis = [1] * model.dimension
            axis[k] = w.shape[k]
            p_k = range(l, l + m * w.shape[k], m)
            lhs = lhs * np.array([den ** p for p in p_k], dtype=object).reshape(axis)
            rhs = rhs * np.array([num ** p for p in p_k], dtype=object).reshape(axis)
        if not np.array_equal(lhs, rhs):
            return False
        beta_n = (beta_n[0] * beta[0], beta_n[1] * beta[1])
    return True


def check_gf_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of weighted(p, n) = beta**n prod alpha_k**p_k unweighted(p, n), n <= n_max."""
    return _relation_holds(model, dec, n_max, origin_only=False)


def check_excursion_relation(model: StepSet, dec: CentralDecomposition, n_max: int) -> bool:
    """Exact check of the excursion relation e_a(n) = beta**n e(n) for n <= n_max."""
    return _relation_holds(model, dec, n_max, origin_only=True)
