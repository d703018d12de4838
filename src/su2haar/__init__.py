"""Exact Haar integration on SU(2) and support-hull vanishing tests.

The package computes integrals of products and powers of irreducible
matrix elements in closed form over an exact radical-rational value field,
decides the convex-hull criterion for the vanishing of all power integrals,
and ships a seeded fuzzing harness plus a floating-point Monte Carlo oracle
that cross-checks every exact result.
"""

__version__ = "0.1.0"

from ._kernel import backend_name
from .scalars import RadicalScalar, half_str, parse_half, radical_normalize
from .wigner import MatrixElementIndex, matrix_element_trigpoly
from .integrals import ProductSpec, frequency_of, integrate_product
from .powers import (
    FiniteFunction,
    NoSolutionError,
    enumerate_balanced_compositions,
    minimal_balanced_pair,
    power_integral,
    power_integral_with_witness,
    power_scan,
)
from .hull import (
    HullCertificate,
    OriginInHullError,
    SupportHull,
    hull_certificate,
    origin_in_hull,
    rank_classification,
    two_term_criterion,
    vanishing_threshold,
)
from .harness import (
    FuzzConfig,
    FuzzSummary,
    InstanceReport,
    check_proven_direction,
    classify_instance,
    fuzz,
    run_verification_suite,
)
from .numeric import (
    EulerAngles,
    McEstimate,
    eval_matrix_element,
    mc_integral,
    mc_scan,
)

__all__ = [
    "__version__",
    "backend_name",
    "parse_half",
    "half_str",
    "RadicalScalar",
    "radical_normalize",
    "MatrixElementIndex",
    "matrix_element_trigpoly",
    "ProductSpec",
    "frequency_of",
    "integrate_product",
    "FiniteFunction",
    "NoSolutionError",
    "enumerate_balanced_compositions",
    "minimal_balanced_pair",
    "power_integral",
    "power_integral_with_witness",
    "power_scan",
    "HullCertificate",
    "OriginInHullError",
    "SupportHull",
    "hull_certificate",
    "origin_in_hull",
    "rank_classification",
    "two_term_criterion",
    "vanishing_threshold",
    "FuzzConfig",
    "FuzzSummary",
    "InstanceReport",
    "check_proven_direction",
    "classify_instance",
    "fuzz",
    "run_verification_suite",
    "EulerAngles",
    "McEstimate",
    "eval_matrix_element",
    "mc_integral",
    "mc_scan",
]
