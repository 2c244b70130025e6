"""Coefficients of the two-term trace expansion and their conversions.

The bulk coefficient has a closed radial form.  The surface coefficient
has no closed form; it is computed by three structurally different routes
that must agree within combined error estimates:

* ``surface_via_layer`` integrates the boundary-layer profile over its
  depth variable (the defining route, free of any regularization),
* ``surface_via_eigenfunctions`` integrates the t-integrated eigenfunction
  density against the dispersion weight over the spectral parameter,
* ``surface_via_energy_shift`` integrates the energy shift over the
  tangential frequency ball.

The comparison constant for the fractional power of the Dirichlet
Laplacian runs the same layer machinery with sine eigenfunctions (zero
phase, no Laplace tail), so the local path exercises the generic code; an
exact closed form for that case makes it an oracle as well.
"""

from __future__ import annotations

import math

import numpy as np

from .quadcore import sphere_area, integrate, panel_quad
from .halfline import FractionalOrder, HalfLineModel, DirichletLineModel

__all__ = [
    "bulk_coefficient",
    "bulk_coefficient_quadrature",
    "surface_via_layer",
    "surface_via_eigenfunctions",
    "surface_via_energy_shift",
    "surface_dirichlet_power",
    "compute_weyl_coefficients",
    "cesaro_riesz_convert",
    "cesaro_riesz_invert",
    "eigenvalue_sum_coefficients",
]


def _check_exponents(a: float, b: float):
    # boundary case b = a-1 is admitted: the subleading term then carries
    # no N-growth and the conversion formulas remain the right limits
    if not (a > 0 and a - 1 <= b < a):
        raise ValueError(
            f"exponents must satisfy -1 < a-1 <= b < a, got a={a}, b={b}")


def _in_range(name: str, compute, positive: bool = False) -> float:
    """``compute()``; ArithmeticError naming ``name`` unless it is finite
    and, with ``positive``, above zero."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) or (positive and not value > 0):
        raise ArithmeticError(f"{name} = {value} is out of floating-point range")
    return value


def bulk_coefficient(order: FractionalOrder) -> float:
    """Closed radial form of the phase-space volume coefficient."""
    s, d = order.s, order.d
    return sphere_area(d - 1) / (2.0 * math.pi) ** d * 2.0 * s / (d * (d + 2.0 * s))


def bulk_coefficient_quadrature(order: FractionalOrder) -> float:
    """Direct quadrature of the defining momentum integral (cross-check)."""
    s, d = order.s, order.d
    val = integrate(lambda r: (1.0 - r ** (2.0 * s)) * r ** (d - 1.0),
                    0.0, 1.0).value
    return sphere_area(d - 1) / (2.0 * math.pi) ** d * val


def _power_tail(t: np.ndarray, vals: np.ndarray, t_hi: float) -> float:
    """Integral over (t_hi, inf) of a power law |vals| ~ c t^-p fitted to
    the samples (p held at 1.5 or more): c t_hi^(1-p)/(p-1).  Zero when
    fewer than 4 samples are nonzero."""
    vs = np.abs(vals)
    good = vs > 0
    if good.sum() < 4:
        return 0.0
    coef = np.polyfit(np.log(t[good]), np.log(vs[good]), 1)
    p = max(1.5, -coef[0])
    return math.exp(coef[1]) * t_hi ** (1.0 - p) / (p - 1.0)


def _layer_t_integral(layer_fn):
    """Integral of a boundary-layer profile over (0, inf).

    Fixed oscillation-resolving panels up to t = 60 plus a fitted
    power-law tail; returns (value, err) with the tail magnitude and fit
    scatter folded into err.
    """
    t_hi = 60.0
    edges = np.concatenate([np.linspace(0.0, 10.0, 26), np.linspace(10.0, t_hi, 35)[1:]])
    t, w = panel_quad(edges, 8)
    vals = layer_fn(t)
    main = float(np.dot(w, vals))
    sel = t > 0.55 * t_hi
    return main, abs(_power_tail(t[sel], vals[sel], t_hi))


def surface_via_layer(order: FractionalOrder):
    """Surface coefficient as the depth integral of the boundary layer."""
    return _layer_t_integral(HalfLineModel(order).boundary_layer)


def surface_via_eigenfunctions(order: FractionalOrder):
    """Surface coefficient from the t-integrated eigenfunction density.

    The Abel-regularized oscillation contributes the closed pi/4 boundary
    term at the spectral bottom plus the -sin(2 phase)/(2 lam) density;
    tail moments of the Laplace term are closed forms over the density
    table.  The three pieces of the density cancel to O(lam^-3) at large
    lam, so the window (0, lam_hi) with a fitted power-law remainder is
    enough; the remainder goes into the error estimate.
    """
    s, d = order.s, order.d
    lam_hi = 120.0
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 0.1, 4),
                            np.linspace(0.1, 6.0, 13)[1:],
                            np.geomspace(6.0, lam_hi, 10)[1:]])
    lam, w = panel_quad(edges, 12)
    dens = HalfLineModel(order).t_integrated_gap_density(lam)
    weight = (lam ** 2 + 1.0) ** (-(d - 1) / 2.0)
    main = math.pi / 4.0 + float(np.dot(w, dens * weight))
    sel = lam > 0.4 * lam_hi
    err = _power_tail(lam[sel], dens[sel] * weight[sel], lam_hi)
    c_d = 4.0 * s * sphere_area(d - 2) / ((d - 1 + 2.0 * s) * (d - 1) * (2.0 * math.pi) ** d)
    return c_d * main, c_d * abs(err)


def surface_via_energy_shift(order: FractionalOrder):
    """Surface coefficient as the tangential-frequency integral of the
    energy shift."""
    s, d = order.s, order.d
    r, w = panel_quad(np.array([0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0]), 10)
    vals = HalfLineModel(order).energy_shift(r ** (-2.0 * s))
    pref = sphere_area(d - 2) / (2.0 * math.pi) ** (d - 1)
    value = pref * float(np.dot(w, r ** (d - 2.0) * vals))
    # refinement delta as the error proxy
    r2, w2 = panel_quad(np.array([0.0, 0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0]), 6)
    vals2 = np.interp(r2, r, vals)
    coarse = pref * float(np.dot(w2, r2 ** (d - 2.0) * vals2))
    return value, max(abs(value - coarse), 1e-7 * abs(value))


def surface_dirichlet_power(order: FractionalOrder):
    """Comparison constant for the fractional power of the Dirichlet
    Laplacian: the local layer integral scaled by s(d+1)/(d-1+2s).

    The local layer runs through the generic machinery with sine
    eigenfunctions rather than its closed form
    |S^(d-2)| / (2 (d-1) (d+1) (2 pi)^(d-1)), which the tests hold it to.
    """
    s, d = order.s, order.d
    local, err = _layer_t_integral(DirichletLineModel(d).boundary_layer)
    scale = s * (d + 1.0) / (d - 1.0 + 2.0 * s)
    return scale * local, scale * err


def compute_weyl_coefficients(
        order: FractionalOrder) -> dict[str, tuple[float, float, str]]:
    """All coefficient routes for one order, keyed by record name.

    Each entry is ``(value, err, route)``.  ``L2`` is the canonical
    (layer-route) value; the other two ``L2_*`` routes cross-validate it.
    The entries hold whatever the routes computed: whether
    0 < L2 < L2_tilde is a verdict for their reader (``fracweyl
    constants`` flags it and exits 4).
    """
    l1 = bulk_coefficient(order)
    return {
        "L1": (l1, abs(l1 - bulk_coefficient_quadrature(order)),
               "closed_radial_form"),
        "L2": (*surface_via_layer(order), "L2:K_integral"),
        "L2_eigenfunction": (*surface_via_eigenfunctions(order),
                             "L2:eigenfunction_form"),
        "L2_energy_shift": (*surface_via_energy_shift(order), "L2:energy_shift"),
        "L2_tilde": (*surface_dirichlet_power(order), "dirichlet_power_layer"),
    }


def cesaro_riesz_convert(A: float, B: float, a: float, b: float) -> tuple[float, float]:
    """Map partial-sum coefficients (A, B) to Riesz-mean coefficients (C, D).

    If sum_{k<=N} lam_k = A N^(a+1) + B N^(b+1) (1+o(1)) then
    sum_k (X - lam_k)_+ = C X^((1+a)/a) - D X^((1+b)/a) (1+o(1)).
    """
    _check_exponents(a, b)
    if not A > 0:
        raise ValueError("A must be positive")
    C = _in_range("C", lambda: A ** (-1.0 / a) * a * (a + 1.0) ** (-(1.0 + a) / a),
                  positive=True)
    D = _in_range("D", lambda: B * (A * (a + 1.0)) ** (-(1.0 + b) / a))
    return C, D


def cesaro_riesz_invert(C: float, D: float, a: float, b: float) -> tuple[float, float]:
    """Algebraic inverse of cesaro_riesz_convert."""
    _check_exponents(a, b)
    if not C > 0:
        raise ValueError("C must be positive")
    A = a ** a * (a + 1.0) ** (-(1.0 + a)) * C ** (-a)
    B = D * (A * (a + 1.0)) ** ((1.0 + b) / a)
    return A, B


def eigenvalue_sum_coefficients(order: FractionalOrder, volume: float,
                                surface: float, l2: float) -> tuple[float, float]:
    """Cesaro-mean coefficients (C1, C2) of the averaged eigenvalue sum

        N^-1 sum_{n<=N} lam_n = C1 |Omega|^(-2s/d) N^(2s/d)
                               + C2 |bdry| |Omega|^(-(d-1+2s)/d) N^((2s-1)/d),

    obtained by inverting the Riesz-mean expansion
    sum (X - lam)_+ = L1 |Omega| X^((1+a)/a) - l2 |bdry| X^((1+b)/a),
    a = 2s/d and b = (2s-1)/d, with L1 = bulk_coefficient; the map's
    convention carries the minus, so its D is +l2*|bdry|.
    """
    if not (volume > 0 and surface > 0):
        raise ValueError("volume and surface must be positive")
    s, d = order.s, order.d
    l1 = bulk_coefficient(order)
    a = 2.0 * s / d
    b = (2.0 * s - 1.0) / d
    A, B = cesaro_riesz_invert(l1 * volume, l2 * surface, a, b)
    c1 = A * volume ** (2.0 * s / d)
    c2 = B * volume ** ((d - 1.0 + 2.0 * s) / d) / surface
    return c1, c2
