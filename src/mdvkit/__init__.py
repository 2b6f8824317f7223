"""Minimal displacement vectors of nonexpansive maps: estimation and verification."""

from .displacement import (
    DisplacementEstimate,
    displacement_exact_affine,
    displacement_iterative,
    displacement_range_affine,
    minimal_displacement,
)
from .errors import NumericalError, UnsupportedOperatorError, ValidationError
from .numeric import AffineSubspace, minkowski_sum_affine, orthonormal_range_basis
from .operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    GradientStep,
    MonotoneAffine,
    Operator,
    ReflectedResolvent,
    Resolvent,
    SetProjector,
    cocoercivity_modulus,
    flatten_to_affine,
)
from .sets import Ball, Box, ConvexSet, Halfspace, full_space
from .verify import CheckReport, builtin_suite, run_randomized_suite, suite_passed

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "AffineSubspace",
    "Ball",
    "Box",
    "CheckReport",
    "Composition",
    "ConvexCombination",
    "ConvexSet",
    "DisplacementEstimate",
    "GradientStep",
    "Halfspace",
    "MonotoneAffine",
    "NumericalError",
    "Operator",
    "ReflectedResolvent",
    "Resolvent",
    "SetProjector",
    "UnsupportedOperatorError",
    "ValidationError",
    "builtin_suite",
    "cocoercivity_modulus",
    "displacement_exact_affine",
    "displacement_iterative",
    "displacement_range_affine",
    "flatten_to_affine",
    "full_space",
    "minimal_displacement",
    "minkowski_sum_affine",
    "orthonormal_range_basis",
    "run_randomized_suite",
    "suite_passed",
    "__version__",
]
