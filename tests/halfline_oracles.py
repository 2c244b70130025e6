"""Closed forms and pointwise kernels of the half-line model that the
library never evaluates, kept as oracles for the tests: the generalized
eigenfunction, the closed-form double Laplace transform of the spectral
density with its outer function, the projector profile off the diagonal,
the kernel deficit with a sine and a cosine per dense node, and the local
(s = 1) surface coefficient."""

import math

import numpy as np

from fracweyl.halfline import (_dispersion_prime, _osc_panels, _pchip_eval, _pchip_fit,
                               _product_error, _uniform_panels)
from fracweyl.quadcore import sphere_area


def eigenfunction(model, lam: float, x):
    """Generalized eigenfunction F(lam, x) = sin(lam x + phase) - tail;
    vanishes at x = 0 and is bounded by 2 in modulus."""
    x = np.asarray(x, dtype=float)
    return np.sin(lam * x + model.phase_vec(lam)) - model.laplace_tail(lam, x)


def outer_function(model, lam: float, t: float) -> float:
    """Exponential of the Poisson integral of the log spectral ratio: 1 at
    t = 0, decaying like t^(1-s) relative to the free factor.  Its Poisson
    exponent is the direct kernel's at the one column t."""
    if t == 0.0:
        return 1.0
    s = model.order.s
    lam2 = lam * lam
    # kappa = ln(lam^2 psi'(lam^2) / psi(lam^2))
    log_kappa = (math.log(s) + math.log(lam2) + (s - 1.0) * math.log1p(lam2)
                 - math.log(math.expm1(s * math.log1p(lam2))))
    c0 = 0.5 * (math.log(s) - (1.0 - s) * math.log1p(lam2) - log_kappa)
    q = float(model._poisson_decay(np.array([lam]), np.array([t]))[0, 0])
    return (1.0 + t) ** (1.0 - s) * math.exp(c0 + q / math.pi)


def closed_form_double_laplace(model, lam: float, t: float) -> float:
    """Closed form of the double Laplace transform of the density."""
    s = model.order.s
    lam2 = lam * lam
    th = model.phase_vec(lam)
    ratio = _dispersion_prime(lam2, s) / math.expm1(s * math.log1p(lam2))
    phi = outer_function(model, lam, t)
    return ((lam * math.cos(th) + t * math.sin(th)) / (lam2 + t * t)
            - lam2 * math.sqrt(ratio) * phi / (lam2 + t * t))


def projector_profile(model, t: float, u, mu: float) -> np.ndarray:
    """Kernel e(t, u_j, mu) of the spectral projector below mu over an
    array of offsets; zero for mu <= 1."""
    u = np.asarray(u, dtype=float)
    if mu <= 1.0:
        return np.zeros_like(u)
    return model._projector(t, u, model._edge_tables([mu])[0])


def _angle(x: float, lam: np.ndarray, th: np.ndarray):
    """x lam + th at each node, as its rounded value and what rounding cut
    off (Dekker's two-product, then Knuth's two-sum).  Rounded alone, an
    angle near 1800 is off by up to 1.1e-13, and summed over the nodes
    that moves kernel_gap at s = 0.25, mu = 30, x = 1 by 1e-12 of its
    largest value."""
    p = x * lam
    a = p + th
    b = a - p
    return a, _product_error(x, lam, p) + ((p - (a - b)) + (th - b))


def kernel_gap_direct(model, x: float, mu: float) -> float:
    """kernel_gap at one depth x for mu > 1, on the library's grids, with
    sin(x lam + phase) and cos(2 x lam + 2 phase) taken at every node of
    the dense grid, of angles carried to first order past their rounding,
    and the tails exp(-x xi) @ tables.T over every xi."""
    s = model.order.s
    w_g, lam_aug, tables = model._edge_tables([mu])[0]
    lam_g, edge = lam_aug[1:-1], lam_aug[-1]
    g = np.exp(-x * model._xi_nodes) @ tables.T
    lam, w = _uniform_panels(edge, [int(_osc_panels(2.0 * x * edge))])
    th = model.phase_vec(lam)
    wt = mu - (1.0 + lam ** 2) ** s
    a, da = _angle(x, lam, th)
    out = np.dot(wt * (np.cos(2.0 * a) - 2.0 * da * np.sin(2.0 * a)), w)
    if x > 12.0:
        # the tail terms on the edge grid
        lam, w, g = lam_g, w_g, g[:-1]
        wt = mu - (1.0 + lam ** 2) ** s
        a, da = _angle(x, lam, model.phase_vec(lam))
    else:
        # the tails interpolated onto the dense grid; they vanish at lam = 0
        g = _pchip_eval(_pchip_fit(lam_aug, np.append(0.0, g)), lam_aug, lam)
    sine = np.sin(a) + da * np.cos(a)
    out += np.dot(wt * (4.0 * sine * g - 2.0 * g * g), w)
    return float(out) / math.pi


def surface_local_exact(d: int) -> float:
    """Closed form of the local (s = 1) surface coefficient."""
    return sphere_area(d - 2) / (2.0 * (d - 1) * (d + 1) * (2.0 * math.pi) ** (d - 1))
