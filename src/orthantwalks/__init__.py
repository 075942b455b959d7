"""orthantwalks: weighted lattice walks confined to orthants.

Exact and extended-range counting of confined weighted walks, the product-form
(central) weighting algebra of a step set, closed-form asymptotics of the
weighted Gouyou-Beauchamps model, model-agnostic universality classification
by convex minimization, and a finite checker for the kernel-uniqueness
conjecture.
"""

from .central import (CentralDecomposition, Monomial, NotCentralError, PathPair,
                      SingularModelError, are_equivalent, find_path_pairs,
                      is_central, rank_full, solve_central, step_matrix)
from .classify import (AmbiguousClassError, Classification, ClassifyError,
                       classify, drift_diagram)
from .conjecture import (ConjectureReport, conjecture2_nullspace,
                         minimal_refutation_length)
from .counting import (ResourceGuardError, Walk, WalkTable, brute_force_count,
                       count_walks, sample_walk)
from .gb import (GBClassification, GBParams, check_harmonicity, gb_classify,
                 gb_contributing, gb_critical_points, gb_estimate,
                 gb_excursion_estimate, gb_kappa_V, universal_harmonic)
from .relations import check_excursion_relation, check_gf_relation
from .stepset import (StepSet, StepSetError, builtin_model, central_weights,
                      drift, inventory_eval, is_singular, make_stepset,
                      stepset_from_json)
from .validate import ValidationReport, validate_excursions, validate_totals
from .xfloat import XFloat

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClassError", "CentralDecomposition", "Classification",
    "ClassifyError", "ConjectureReport", "GBClassification", "GBParams",
    "Monomial", "NotCentralError", "PathPair", "ResourceGuardError",
    "SingularModelError", "StepSet", "StepSetError", "ValidationReport",
    "Walk", "WalkTable", "XFloat", "are_equivalent", "brute_force_count",
    "builtin_model", "central_weights", "check_excursion_relation",
    "check_gf_relation", "check_harmonicity", "classify",
    "conjecture2_nullspace", "count_walks", "drift", "drift_diagram",
    "find_path_pairs", "gb_classify", "gb_contributing", "gb_critical_points",
    "gb_estimate", "gb_excursion_estimate", "gb_kappa_V", "inventory_eval",
    "is_central", "is_singular", "make_stepset", "minimal_refutation_length",
    "rank_full", "sample_walk", "solve_central",
    "step_matrix", "stepset_from_json", "universal_harmonic",
    "validate_excursions", "validate_totals",
]
