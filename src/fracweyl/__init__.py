"""Numerics for two-term spectral asymptotics of the fractional Laplacian.

Submodules
----------
quadcore
    Sphere areas, the fractional form constant, the fixed Gauss-Legendre
    panel rule, and adaptive reference quadrature.
halfline
    The half-line model operator: phase shift, generalized eigenfunctions,
    kernels, boundary layer, and energy shift.
constants
    The bulk and surface coefficients of the two-term trace expansion and
    the coefficient conversions between summation conventions.
lattice
    Dense lattice discretizations: restricted fractional Laplacians,
    fractional Dirichlet powers, Riesz means, two-term fits, and the
    operator-level property checks.
localization
    Multiscale ball covering with distance-adapted scales and the
    continuous partition of unity.
cli
    Command-line workbench over the above.
"""

from .quadcore import QuadratureSpec, IntegralResult, NonConvergenceError
from .halfline import FractionalOrder, HalfLineModel

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "NonConvergenceError",
    "FractionalOrder",
    "HalfLineModel",
]
