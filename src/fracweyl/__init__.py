"""Numerics for two-term spectral asymptotics of the fractional Laplacian.

Submodules
----------
quadcore
    Sphere areas and the Gauss-Legendre panel rule, fixed or adaptively
    bisected as the reference quadrature.
halfline
    The half-line model operator: phase shift, spectral density and
    Laplace tails, kernels, boundary layer, and energy shift.
constants
    The bulk and surface coefficients of the two-term trace expansion and
    the coefficient conversions between summation conventions.
lattice
    Lattice operators P M_s P and Dirichlet powers, checked spectra, Riesz
    means, two-term fits, and the trace-bound, ordering and half-space checks.
localization
    Multiscale ball covering with distance-adapted scales and the
    continuous partition of unity.
cli
    Command-line workbench over the above.
"""

from .quadcore import IntegralResult, NonConvergenceError
from .halfline import FractionalOrder, HalfLineModel

__all__ = [
    "IntegralResult",
    "NonConvergenceError",
    "FractionalOrder",
    "HalfLineModel",
]
