"""Prolate spheroidal eigenbases and spectral-summation diagnostics.

The package computes the generalized (weighted, on (-1, 1)) and circular
(radial, on (0, 1)) prolate families as eigen systems of their
Sturm-Liouville operators, applies the associated finite Fourier and Hankel
integral transforms, forms spectrally weighted partial sums with weight
(1 - chi/R)_+^delta, and verifies the structural properties the summation
theory rests on: eigenvalue sandwiches, orthonormality, norm-growth
exponents, dyadic multiplier identities, and convergence above the critical
smoothness index.
"""

from .prolate import EigenSystem, Family, ProlateSpec, build_galerkin, check_bounds, solve
from .riesz import ExponentTable, RieszConfig, delta_threshold, riesz_mean, riesz_weight
from .specfun import QuadratureRule, bessel_j, gauss_jacobi
from .transforms import SampledFunction, finite_fourier, finite_hankel

__version__ = "0.1.0"

__all__ = [
    "EigenSystem",
    "ExponentTable",
    "Family",
    "ProlateSpec",
    "QuadratureRule",
    "RieszConfig",
    "SampledFunction",
    "bessel_j",
    "build_galerkin",
    "check_bounds",
    "delta_threshold",
    "finite_fourier",
    "finite_hankel",
    "gauss_jacobi",
    "riesz_mean",
    "riesz_weight",
    "solve",
    "__version__",
]
