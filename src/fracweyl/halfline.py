"""Model operator (1 - d^2/dt^2)^s on the half-line and its spectral toolkit.

The half-line operator with a Dirichlet-type exterior condition is
diagonalized by generalized eigenfunctions

    F(lam, x) = sin(lam*x + phase(lam)) - laplace_tail(lam, x),

where the tail is the Laplace transform of a nonnegative spectral density
supported on [1, inf).  The tail is subtracted: laplace_tail(lam, 0)
equals sin(phase(lam)) exactly, so F vanishes at the boundary, and this
is the sign under which F passes the weak eigenfunction pairing against
the Fourier-multiplier operator (the additive sign fails by orders of
magnitude; see the tests).  Everything else here is assembled from those
two ingredients: the projector and Riesz-mean kernels, the boundary-layer
profile whose integral is the surface coefficient of the two-term trace
expansion, and the integrated energy shift.  Each of them contracts the
sine and the tail separately; F itself, the closed-form double Laplace
transform of the density and the projector profile off the diagonal are
test oracles (tests/halfline_oracles.py).

Numerical core
--------------
All log-ratio integrands are reduced to the single stable function

    N(L) = ln|expm1(L)| - (1-s) L - ln|expm1(s L)|,   L = log((1+z^2)/(1+lam^2)),

which decays at both ends of the z-axis.  Poisson integrals of the full
log-ratio split into a closed-form part plus a Poisson integral of N; this
is what makes the density evaluable to ~1e-8 in bulk quantities.

Conditionally convergent integrals over the half-line variable t are never
left to naive quadrature: the pure-oscillation component is integrated in
closed form (Abel regularization), which contributes both the familiar
-sin(2*phase)/(2*lam) density *and* a boundary term (mu-1)/4 from lam -> 0;
the remaining tail terms are absolutely convergent.

Every integral here uses the fixed Gauss-Legendre panels of
``quadcore.panel_quad``.  The phase is tabulated on [1e-4, 1e4] and
evaluated directly outside it; at lam = 1e8 to 1e16 the direct form
lies within 3e-11 of its limit pi(1-s)/4 for s from 0.1 to 0.95.

The density's Poisson exponent q(lam, xi) is tabulated once per model on
the density quadrature's xi nodes, on [1e-8, 1e4] in log lam: one panel
per decade, degree-16 barycentric interpolation at Chebyshev points of
the second kind, 193 rows of the direct kernel, built on the first
density call with a lam in range.  For s from 0.05 to 0.95 it lies
within 7e-11 of the direct kernel below lam = 1e2 and within 7e-9 above,
where the direct kernel itself carries 3e-9 to 6e-9 of rounding noise in
q.  Rows outside the range, and columns other than the nodes, take the
direct kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quadcore import panel_quad, sphere_area

__all__ = [
    "FractionalOrder",
    "HalfLineModel",
    "DirichletLineModel",
    "spectral_edge",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional exponent s in (0,1) with the ambient dimension d >= 2."""

    s: float
    d: int = 2

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional order must lie in (0,1), got {self.s}")
        if self.d != int(self.d) or self.d < 2:
            raise ValueError(f"ambient dimension must be an integer >= 2, got {self.d}")


def _dispersion_prime(E, s: float):
    return s * np.exp((s - 1.0) * np.log1p(E))


def _decay_logratio(L: np.ndarray, s: float) -> np.ndarray:
    """N(L) = ln|expm1 L| - (1-s) L - ln|expm1(s L)|, with N(0) = -ln s, as a
    new array; L is overwritten."""
    zero = L == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.expm1(L)
        np.abs(out, out=out)
        np.log(out, out=out)
        sl = L * s
        np.expm1(sl, out=sl)
        np.abs(sl, out=sl)
        np.log(sl, out=sl)
    L *= 1.0 - s
    out -= L
    out -= sl
    out[zero] = -math.log(s)
    return out


def _geometric_edges(lo: float, hi: float, ratio: float = 3.0):
    edges = [0.0, lo]
    x = lo
    while x < hi:
        x *= ratio
        edges.append(min(x, hi))
    return np.array(edges)


def _osc_panels(total_phase, base: int = 6, cap: int = 600):
    """Panel count that resolves a given phase sweep; elementwise on arrays.

    ArithmeticError where a sweep needs more than ``cap`` panels: a grid
    cut to the cap would return a wrong number."""
    phase = np.asarray(total_phase, dtype=float)
    sweeps = phase / (2.0 * math.pi) * 1.6
    # base + int(sweeps) <= cap, compared before the cast so nan refuses too
    if not np.all(sweeps < cap - base + 1):
        raise ArithmeticError(f"a phase sweep of {np.max(phase):.4g} rad needs more "
                              f"than the cap of {cap} quadrature panels")
    return base + sweeps.astype(int)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope of PCHIP, kept shape-preserving."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flip, 0.0, np.where(overshoot, 3.0 * m0, d))


def _pchip_fit(x, y):
    """Coefficients of the PCHIP interpolant of y over the increasing 1-D x
    (at least 3 nodes, along y's first axis), bit for bit those of
    ``scipy.interpolate.PchipInterpolator(x, y).c``: shape
    (4, x.size - 1) + y.shape[1:], highest power first."""
    if not np.all(np.isfinite(y)):
        raise ValueError("PCHIP data must be finite")
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = (y[1:] - y[:-1]) / h
    # interior slopes: weighted harmonic mean of the neighbouring secants,
    # zero where they differ in sign or one vanishes
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    dk = np.zeros_like(y)
    dk[1:-1][~flat] = 1.0 / whmean[~flat]
    dk[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (dk[:-1] + dk[1:] - 2.0 * m) / h
    return np.stack((t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]))


def _pchip_eval(c, breaks, x):
    """The piecewise cubic of _pchip_fit's coefficients c over breaks at the
    1-D array x, shape x.shape + c.shape[2:].  Bit for bit scipy's PPoly:
    x in [breaks[i], breaks[i+1]) uses interval i (the last one also at and
    past the last break, the first before the first), and the powers of
    d = x - breaks[i] are summed as ((c3 + c2 d) + c1 d^2) + c0 (d^2 d)."""
    i = np.searchsorted(breaks[1:-1], x, side="right")
    d = (x - breaks[i]).reshape(x.shape + (1,) * (c.ndim - 2))
    out = (c[3] + 0.0)[i]  # PPoly's sum starts from 0.0
    term = c[2][i]
    term *= d
    out += term
    dpow = d * d
    # mode="clip" (i is in range anyway) lets take write into term unbuffered
    np.take(c[1], i, axis=0, out=term, mode="clip")
    term *= dpow
    out += term
    dpow *= d
    np.take(c[0], i, axis=0, out=term, mode="clip")
    term *= dpow
    out += term
    return out


def _uniform_panels(edge: float, counts):
    """panel_quad(np.linspace(0, edge, p + 1), 8) for each p of counts,
    concatenated and bit for bit, from one panel_quad call: linspace's k-th
    edge is k (edge/p), its last edge is edge itself, and the panels that
    join one grid's last edge to the next grid's 0 are dropped."""
    counts = np.asarray(counts)
    ends = np.cumsum(counts + 1)
    k = np.arange(ends[-1]) - np.repeat(ends - counts - 1, counts + 1)
    edges = k * np.repeat(edge / counts, counts + 1)
    edges[ends - 1] = edge
    keep = np.ones(ends[-1] - 1, dtype=bool)
    keep[ends[:-1] - 1] = False
    nodes, weights = panel_quad(edges, 8)
    return nodes.reshape(-1, 8)[keep].ravel(), weights.reshape(-1, 8)[keep].ravel()


# _poisson_decay's z grid reaches _Z_REACH times its largest x and squares
# z; a density node above _LOG_NODE_LIMIT (as a log) would overflow that
# square, x^2 + z^2 keeping a factor 2 to spare
_Z_REACH = 1e7
_LOG_NODE_LIMIT = math.log(math.sqrt(sys.float_info.max) / (2.0 * _Z_REACH))


def _poisson_grid(x: np.ndarray, lam_max: float):
    """z nodes and weights of _poisson_decay for columns x and rows up to
    lam_max, with its Poisson matrix x_j/(x_j^2 + z^2)."""
    hi = _Z_REACH * max(float(x.max()), lam_max, 1.0)
    z, w = panel_quad(_geometric_edges(1e-16 * min(1.0, float(x.min())), hi), 16)
    return z, w, x[:, None] / (x[:, None] ** 2 + z[None, :] ** 2)


# tangential-frequency nodes r in (0, 1) of the boundary-layer integral
_LAYER_R, _LAYER_W = panel_quad(np.array([0.0, 0.02, 0.06, 0.15, 0.3,
                                           0.5, 0.7, 0.85, 0.95, 1.0]), 8)

# z nodes in (0, 1) of the phase's direct form: decades from 1e-18 to 0.5
# (the (0, 1e-18) sliver skipped), then three panels up to 1
_PHASE_Z, _PHASE_W = panel_quad(np.concatenate([
    _geometric_edges(1e-18, 0.5, ratio=10.0)[1:], [0.7, 0.85, 1.0]]), 16)
# log-spaced phase table: range and size
_THETA_LO, _THETA_HI, _THETA_NODES = 1e-4, 1e4, 400
# Poisson exponent table: range, and equal panels in log lam (one per
# decade), each interpolated at _Q_DEGREE + 1 Chebyshev points of the second
# kind, neighbours sharing their end points
_Q_LO, _Q_HI, _Q_PANELS, _Q_DEGREE = 1e-8, 1e4, 12, 16
# barycentric weights of those points: alternating signs, halved at the ends
_Q_BARY = np.where(np.arange(_Q_DEGREE + 1) % 2, -1.0, 1.0)
_Q_BARY[[0, -1]] *= 0.5
# lam per block of the phase's direct form, which keeps each of its
# (block, z) temporaries under 100 kB whatever the number of lam
_PHASE_BLOCK = 32


def _layer_profile(gap_columns, t, s: float, d: int):
    """Boundary-layer profile: the kernel deficit at depth t*r and energy
    mu = r^-2s, integrated over the tangential frequency r in (0, 1) with
    weight r^(d-1+2s).  gap_columns(t, nodes) yields kernel_gap(t r, mu)
    for each (r, mu) of nodes, in order, each column covering every t."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError(f"boundary_layer requires t > 0, got {t}")
    pref = sphere_area(d - 2) / (2.0 * math.pi) ** (d - 1)
    # one scalar power per node: numpy's SIMD array power may round
    # differently, and mu enters every grid below
    nodes = [(r, r ** (-2.0 * s)) for r in _LAYER_R]
    gaps = np.stack(list(gap_columns(t, nodes)), axis=-1)
    out = pref * ((_LAYER_R ** (d - 1.0 + 2.0 * s) * gaps) @ _LAYER_W)
    return float(out) if out.ndim == 0 else out


def spectral_edge(mu: float, s: float) -> float:
    """Largest lam with (lam^2+1)^s < mu; zero when mu <= 1."""
    if mu <= 1.0:
        return 0.0
    return math.sqrt(math.expm1(math.log(mu) / s))


class HalfLineModel:
    """Spectral data of the half-line operator for one fractional order.

    Construction precomputes a monotone phase-shift table on a log grid.
    Spectral-density tables are pure functions of (order, lam), built on
    demand with one row per lam of a grid.  What they keep is built on
    first use: the table of the Poisson exponent q on the density
    quadrature's columns for lam in [1e-8, 1e4] (_q_table), which the
    direct kernel fills; rows past that range, and columns other than the
    nodes, take the kernel itself.
    """

    def __init__(self, order: FractionalOrder):
        self.order = order
        self._xi_nodes, self._xi_weights = self._build_xi_quadrature()
        grid = np.logspace(math.log10(_THETA_LO), math.log10(_THETA_HI), _THETA_NODES)
        vals = self._phase_direct(grid)
        if np.any(np.diff(vals) < -1e-12):
            raise AssertionError("phase table lost monotonicity")
        self._theta_log = np.log(grid)
        self._theta_coef = _pchip_fit(self._theta_log, vals)

    # -- phase shift --------------------------------------------------

    def _phase_direct(self, lam: np.ndarray) -> np.ndarray:
        """Phase shift from the substituted z-form, smooth on (0, 1), at
        each lam of a 1-D array."""
        s = self.order.s
        z = _PHASE_Z
        one_minus_z2 = (1.0 - z) * (1.0 + z)
        out = np.empty(lam.size)
        for i in range(0, lam.size, _PHASE_BLOCK):
            lam2 = (lam[i:i + _PHASE_BLOCK] ** 2)[:, None]
            v = lam2 * one_minus_z2 / (1.0 + lam2)
            # 1 - v = (1 + lam^2 z^2)/(1 + lam^2); once lam passes ~1e8, v
            # rounds to 1 at the smallest z, and only there that form is used
            rounded = v >= 1.0
            L1 = np.log1p(-np.where(rounded, 0.0, v))  # < 0
            row, col = np.nonzero(rounded)
            L1[rounded] = (np.log1p(lam2[row, 0] * z[col] ** 2)
                           - np.log1p(lam2[row, 0]))
            L2 = np.log1p(v / (z * z))   # > 0
            num = np.log(-np.expm1(s * L1))
            den = np.log(np.expm1(s * L2))
            integrand = (num - den - 2.0 * np.log(z)) / one_minus_z2
            # one dot per row: a matrix product would round differently
            out[i:i + _PHASE_BLOCK] = [np.dot(_PHASE_W, r) for r in integrand]
        return out / math.pi

    def phase_vec(self, lam):
        """Scattering phase of the generalized eigenfunctions, from 0 at
        lam -> 0 to pi(1-s)/4 at lam -> inf.  It is increasing on the table
        [1e-4, 1e4].  Above the table the direct form approaches the limit
        but need not increase: from lam = 1e8 on it lies within 3e-11 of it
        for s from 0.1 to 0.95, and at s = 0.1 it steps down by 4.8e-12
        between lam = 1e12 and 1e16.  Takes an array of lam > 0; a scalar
        gives a float."""
        lam = np.asarray(lam, dtype=float)
        if not np.all(lam > 0):
            raise ValueError(f"phase requires lam > 0, got {lam}")
        flat = lam.ravel()
        out = np.empty(flat.size)
        inside = (flat >= _THETA_LO) & (flat <= _THETA_HI)
        if inside.any():
            out[inside] = _pchip_eval(self._theta_coef, self._theta_log,
                                      np.log(flat[inside]))
        if not inside.all():
            out[~inside] = self._phase_direct(flat[~inside])
        return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)

    # -- spectral density and Laplace tails ----------------------------

    def _build_xi_quadrature(self):
        """Fixed nodes/weights for integrals of the density over (1, inf).

        Near xi = 1 the density vanishes like (xi-1)^s, handled by the
        substitution xi = 1 + v^(1/s); the algebraic tail ~ xi^(-1-s) is
        flattened exactly by xi = 2 w^(-1/s).  Nodes xi_a that round to 1.0
        (the smallest v, at s below about 0.5) carry no density and are
        dropped.
        Below s ~ 0.043 the largest xi_b node leaves the range the density
        tables can square; the order is then refused with ArithmeticError
        before those nodes are formed.
        """
        s = self.order.s
        v, wv = panel_quad(np.array([1e-8, 1e-5, 1e-3, 0.03, 0.2, 0.6, 1.0]), 16)
        xi_a = 1.0 + v ** (1.0 / s)
        w_a = wv * v ** (1.0 / s - 1.0) / s
        live = xi_a > 1.0
        u, wu = panel_quad(np.array([1e-9, 1e-4, 0.02, 0.15, 0.45, 1.0]), 16)
        log_node = math.log(2.0) - math.log(float(u.min())) / s
        if not log_node < _LOG_NODE_LIMIT:
            raise ArithmeticError(
                f"s = {s} is too small for the density quadrature: its largest "
                f"node 2 u^(-1/s) = e^{log_node:.1f} exceeds e^{_LOG_NODE_LIMIT:.1f}")
        xi_b = 2.0 * u ** (-1.0 / s)
        w_b = wu * (2.0 / s) * u ** (-1.0 / s - 1.0)
        return np.concatenate([xi_a[live], xi_b]), np.concatenate([w_a[live], w_b])

    def _poisson_decay(self, lams: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Q[i, j] = int_0^inf x_j/(x_j^2+z^2) N(log((1+z^2)/(1+lam_i^2))) dz
        for 1-D arrays of lam (rows) and of x > 0 (columns).

        Every lam shares one geometric z grid from 1e-16 min(1, x) to
        1e7 max(x, lam, 1) and one Poisson matrix (_poisson_grid), built on
        each call; N is contracted against it 64 lam at a time.

        This is the direct kernel.  gamma_values reads rows with lam in
        [_Q_LO, _Q_HI] on the node columns from _q_table, which this kernel
        fills once per model, and calls the kernel itself for rows outside
        that range and for other columns.
        """
        z, w, poisson = _poisson_grid(x, float(lams.max()))
        out = np.empty((lams.size, x.size))
        for i in range(0, lams.size, 64):
            lam = lams[i:i + 64, None]
            L = (z - lam) * (z + lam) / (1.0 + lam * lam)
            # 1 + L = (1 + z^2)/(1 + lam^2); once lam passes ~1e8, L rounds
            # to -1 at the smallest z, and only there that form is used (up
            # to lam = 1e7, 1 + L >= 1e-14 stays far above L's rounding)
            rounded = L <= -1.0 if lam.max() > 1e7 else None
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log1p(L, out=L)
            if rounded is not None and rounded.any():
                L[rounded] = (np.log1p(z * z) - np.log1p(lam * lam))[rounded]
            n = _decay_logratio(L, self.order.s)
            n *= w
            out[i:i + 64] = n @ poisson.T
        return out

    @cached_property
    def _q_table(self):
        """(log lam, q) of the Poisson exponent table: _Q_PANELS * _Q_DEGREE
        + 1 nodes in log lam, and the rows of _poisson_decay at them on the
        density quadrature's node columns.  The nodes are the logs of the
        rounded lam, so a lam equal to a node hits it exactly."""
        cheb = 0.5 * (1.0 - np.cos(np.arange(_Q_DEGREE) * math.pi / _Q_DEGREE))
        steps = np.append((np.arange(_Q_PANELS)[:, None] + cheb).ravel(), _Q_PANELS)
        lam = np.exp(math.log(_Q_LO) + steps * (math.log(_Q_HI / _Q_LO) / _Q_PANELS))
        return np.log(lam), self._poisson_decay(lam, self._xi_nodes)

    def _tabled_decay(self, lams: np.ndarray) -> np.ndarray:
        """_poisson_decay on the node columns for a 1-D array of lam in
        [_Q_LO, _Q_HI], interpolated from _q_table: each row is the
        barycentric combination of its panel's rows, with one product per
        panel touched; a lam on a node returns that node's row."""
        nodes, rows = self._q_table
        u = np.log(lams)
        panel = ((u - math.log(_Q_LO)) * (_Q_PANELS / math.log(_Q_HI / _Q_LO))).astype(int)
        np.minimum(panel, _Q_PANELS - 1, out=panel)
        out = np.empty((lams.size, rows.shape[1]))
        for p in np.unique(panel):
            sel = panel == p
            span = slice(p * _Q_DEGREE, (p + 1) * _Q_DEGREE + 1)
            diff = u[sel, None] - nodes[span]
            hit = diff == 0.0
            with np.errstate(divide="ignore"):
                c = _Q_BARY / diff
            on_node = hit.any(axis=1)
            c[on_node] = hit[on_node]
            c /= c.sum(axis=1, keepdims=True)
            out[sel] = c @ rows[span]
        return out

    def gamma_values(self, lam, xi) -> np.ndarray:
        """Spectral density of the Laplace tail, elementwise over (lam, xi):
        one row per lam of a 1-D array, a 1-D row for a scalar lam.  Rows
        with lam <= 0 and columns with xi <= 1 are zero.

        The denominator is the modulus squared
        |(xi^2-1)^s e^{i pi s} - (1+lam^2)^s|^2: of the algebraic forms the
        density could take, it is the one whose double Laplace transform
        reproduces the closed form (tests/halfline_oracles.py; see
        test_reading_selection).

        On the density quadrature's node columns, the Poisson exponent q
        of rows with lam in [_Q_LO, _Q_HI] = [1e-8, 1e4] is read from a
        piecewise Chebyshev table in log lam, built from the direct kernel
        on the first such call (_q_table); other rows, and any other
        columns, take the direct _poisson_decay.
        """
        s = self.order.s
        lam = np.asarray(lam, dtype=float)
        lams = np.atleast_1d(lam)
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.zeros((lams.size, xi.size))
        rows, cols = lams > 0.0, xi > 1.0
        if rows.any() and cols.any():
            lv = lams[rows, None]
            xv = xi[cols]
            lam2 = lv * lv
            pow_s = ((xv - 1.0) * (xv + 1.0)) ** s
            cos_pi_s = math.cos(math.pi * s)
            sin_pi_s = math.sin(math.pi * s)
            shift_s = (1.0 + lam2) ** s
            den = (pow_s - shift_s) ** 2 + 2.0 * shift_s * pow_s * (1.0 - cos_pi_s)
            live = lams[rows]
            q = np.empty((live.size, xv.size))
            tabled = (live >= _Q_LO) & (live <= _Q_HI)
            tabled &= np.array_equal(xv, self._xi_nodes)
            if tabled.any():
                q[tabled] = self._tabled_decay(live[tabled])
            if not tabled.all():
                q[~tabled] = self._poisson_decay(live[~tabled], xv)
            expfac = ((1.0 + xv) ** (s - 1.0)
                      * np.sqrt((1.0 + lam2) ** (1.0 - s) / s)
                      * np.exp(-q / math.pi))
            num = lv * _dispersion_prime(lam2, s) * sin_pi_s * pow_s / math.pi
            with np.errstate(divide="ignore"):
                out[np.ix_(rows, cols)] = num / den * expfac
        return out[0] if lam.ndim == 0 else out

    def gamma_table(self, lam):
        """(nodes, density*weights) quadrature table for tail integrals;
        one row per lam of a 1-D array, a 1-D row for a scalar lam."""
        xi = self._xi_nodes
        return xi, self._xi_weights * self.gamma_values(lam, xi)

    def _tails(self, x: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """G(lam, x) for every depth of the 1-D array x (rows) and every
        row of the stacked tables (columns): exp(-x xi) @ tables.T.
        Blocks of 64 depths keep the exp(-x xi) matrix small."""
        g = np.empty((x.size, tables.shape[0]))
        for i in range(0, x.size, 64):
            e = np.multiply.outer(-x[i:i + 64], self._xi_nodes)
            g[i:i + 64] = np.exp(e, out=e) @ tables.T
        return g

    def laplace_tail(self, lam: float, x):
        """G(lam, x) = int_1^inf exp(-x*xi) gamma(xi) dxi, in [0, 1], for
        one lam.  The kernels contract their tails in _tails; this one-lam
        form is what the benchmark tracer wraps."""
        x_arr = np.asarray(x, dtype=float)
        vals = self._tails(x_arr.ravel(), self.gamma_table([lam])[1])[:, 0]
        return float(vals[0]) if x_arr.ndim == 0 else vals.reshape(x_arr.shape)

    # -- kernels -------------------------------------------------------

    def _g_grid(self, mus, n: int = 32):
        """Edge-substituted lam grids on the spectral windows, with weights
        and edges: one row per mu of a 1-D sequence."""
        edge = np.array([[spectral_edge(m, self.order.s)] for m in mus])
        phi, w = panel_quad(np.array([0.0, math.pi / 2.0]), n)
        lam = edge * np.sin(phi)
        return lam, edge * np.cos(phi) * w, edge

    def _edge_tables(self, mus):
        """One (w, lam_aug, tables) per mu of a sequence: the weights of the
        32-node edge grid lam of _g_grid, lam_aug = [0, lam, edge], and the
        stacked density tables at lam_aug[1:].  The tables of every mu
        come from one gamma_table call."""
        lam, w, edge = self._g_grid(mus)
        lam_aug = np.concatenate([np.zeros_like(edge), lam, edge], axis=1)
        tables = self.gamma_table(lam_aug[:, 1:].ravel())[1]
        tables = tables.reshape(len(mus), lam_aug.shape[1] - 1, -1)
        return list(zip(w, lam_aug, tables))

    def kernel_gap(self, x, mu: float):
        """Diagonal deficit a(mu) - a_half(x, mu) of the Riesz-mean kernels.

        Decomposed through 1 - 2 F^2 = cos(2 lam x + 2 phase)
        + 4 sin(lam x + phase) G - 2 G^2: the cosine sweep is integrated on
        an oscillation-resolving grid, the tail terms on a smooth edge
        grid, interpolated where the sine factor oscillates.

        ``x`` may be an array: the tails G for all x are matrix products
        of exp(-x xi) with the edge grid's stacked tables, and depths whose
        sweeps need the same panel count share one dense grid and phase
        lookup.  A scalar x gives a float.
        """
        x = np.asarray(x, dtype=float)
        if mu > 1.0:
            grid, = self._edge_tables([mu])
            out = self._kernel_gap_flat(x.ravel(), mu, grid).reshape(x.shape)
        else:
            out = np.zeros(x.shape)
        return float(out) if out.ndim == 0 else out

    def _kernel_gap_flat(self, x: np.ndarray, mu: float, grid) -> np.ndarray:
        """kernel_gap at a 1-D array of depths for mu > 1, from one entry
        of _edge_tables.  The tails of all depths x <= 12 share one PCHIP
        fit over lam_aug; each panel group evaluates its own columns of it.
        The dense grids of all panel groups are laid in one pass
        (_uniform_panels), with one phase lookup and one weight power for
        all their nodes; each group then reads its slice."""
        s = self.order.s
        w_g, lam_aug, tables = grid
        lam_g, edge = lam_aug[1:-1], lam_aug[-1]
        out = np.zeros(x.size)
        g = self._tails(x, tables)
        far = x > 12.0
        if far.any():
            th_g = self.phase_vec(lam_g)
            wt_g = mu - (1.0 + lam_g ** 2) ** s
            gf = g[far, :-1]
            sf = np.sin(np.multiply.outer(x[far], lam_g) + th_g)
            out[far] = (wt_g * (4.0 * sf * gf - 2.0 * gf * gf)) @ w_g
        near = ~far
        if near.any():
            # the tails vanish at lam_aug[0] = 0
            coef = _pchip_fit(lam_aug, np.pad(g[near], ((0, 0), (1, 0))).T)
            col = np.cumsum(near) - 1  # column of each near depth in coef
        panels = _osc_panels(2.0 * x * edge)
        counts = np.unique(panels)
        lam_all, w_all = _uniform_panels(edge, counts)
        th_all = self.phase_vec(lam_all)
        th2_all = 2.0 * th_all
        wt_all = mu - (1.0 + lam_all ** 2) ** s
        stop = 0
        for p in counts:
            start, stop = stop, stop + 8 * p
            lam_d, w_d, wt_d = lam_all[start:stop], w_all[start:stop], wt_all[start:stop]
            sel = np.nonzero(panels == p)[0]
            arg = np.multiply.outer(x[sel], lam_d)
            # wt * cos(2 arg + 2 phase), in place
            osc = arg * 2.0
            osc += th2_all[start:stop]
            np.cos(osc, out=osc)
            osc *= wt_d
            out[sel] += osc @ w_d
            near_sel = near[sel]
            if near_sel.any():
                rows = sel[near_sel]
                gd = _pchip_eval(coef[:, :, col[rows]], lam_aug, lam_d).T
                # wt * (4 sin(arg + phase) G - 2 G^2), in place
                term = arg[near_sel]
                term += th_all[start:stop]
                np.sin(term, out=term)
                term *= 4.0
                term *= gd
                square = gd * 2.0
                square *= gd
                term -= square
                term *= wt_d
                out[rows] += term @ w_d
        return out / math.pi

    def riesz_kernel_line(self, mu: float) -> float:
        """Diagonal of the whole-line Riesz-mean kernel (t-independent)."""
        if mu <= 1.0:
            return 0.0
        (lam,), (w,), _ = self._g_grid([mu], n=64)
        return float(np.dot(w, mu - (1.0 + lam ** 2) ** self.order.s)) / math.pi

    def projector_diagonal(self, t, mu: float) -> np.ndarray:
        """Diagonal e(t_j, t_j, mu) of the spectral projector below mu over
        an array of depths; zero for mu <= 1.  Each depth is one
        ``_projector(t_j, [t_j], ...)`` value, from one build of the density
        tables of mu."""
        t = np.asarray(t, dtype=float)
        if mu <= 1.0:
            return np.zeros_like(t)
        grid = self._edge_tables([mu])[0]
        return np.array([self._projector(tj, tj[None], grid)[0] for tj in t])

    def _projector(self, t: float, u: np.ndarray, grid) -> np.ndarray:
        """Kernel e(t, u_j, mu) of the spectral projector below mu > 1 over
        an array of offsets, from one entry of _edge_tables.

        Single oscillation-resolving grid sized for max(u); the tails at t
        and at every u_j come from one stacked-table contraction and are
        interpolated onto that grid in blocks of 2048 offsets.
        """
        _, lam_aug, tables = grid
        edge = lam_aug[-1]
        span = abs(t) + float(np.max(u))
        panels = int(_osc_panels(span * edge, cap=1600))
        lam_d, w_d = _uniform_panels(edge, [panels])
        th_d = self.phase_vec(lam_d)
        g = self._tails(np.append(t, u), tables)
        g_cols = np.concatenate([np.zeros((1, u.size + 1)), g.T])
        out = np.empty(u.size)
        step = 2048
        for j0 in range(0, u.size, step):
            j1 = min(j0 + step, u.size)
            # column 0 (depth t) rides along with every block
            gi = _pchip_eval(_pchip_fit(lam_aug, g_cols[:, np.r_[0, j0 + 1:j1 + 1]]),
                             lam_aug, lam_d)
            ft = np.sin(lam_d * t + th_d) - gi[:, 0]
            fu = np.outer(lam_d, u[j0:j1])  # F(lam, u_j), built in place
            fu += th_d[:, None]
            np.sin(fu, out=fu)
            fu -= gi[:, 1:]
            out[j0:j1] = (w_d * ft) @ fu
            del gi, fu  # let the next block's interpolation reuse this memory
        return 2.0 / math.pi * out

    # -- boundary layer -------------------------------------------------

    def boundary_layer(self, t):
        """Boundary-layer profile K(t): tangential-frequency integral of the
        kernel deficit, vanishing as t -> inf; integrates to the surface
        coefficient.  Takes an array of depths; a scalar gives a float.

        Equals the composition of kernel_gap over the 72 r nodes; their
        density tables are built 4 nodes per gamma_table call, and each
        node fits one PCHIP interpolant to the tails of all its depths
        t r <= 12."""
        return _layer_profile(self._layer_gaps, t, self.order.s, self.order.d)

    def _layer_gaps(self, t, nodes):
        """kernel_gap(t r, mu) for each (r, mu) of nodes.  The density
        tables of 4 nodes (132 lam rows) come from one gamma_table call and
        are built block by block, as the columns are consumed."""
        for i in range(0, len(nodes), 4):
            block = nodes[i:i + 4]
            grids = self._edge_tables([mu for _, mu in block])
            for (r, mu), grid in zip(block, grids):
                yield self._kernel_gap_flat((t * r).ravel(), mu, grid).reshape(t.shape)

    # -- integrated t-densities and shifts ------------------------------

    def _moments(self, lam: np.ndarray, th: np.ndarray):
        """Closed forms of int_0^inf sin(lam t + phase) G dt and
        int_0^inf G^2 dt for every lam of a 1-D array with its phases th.

        Over the stacked tables C (one row per lam) the first is an
        elementwise sum; the second is the row sums of (C @ H) * C with
        H = 1 / (xi_i + xi_j), free of lam.
        """
        xi = self._xi_nodes
        tables = self.gamma_table(lam)[1]
        num = np.multiply.outer(np.sin(th), xi) + (lam * np.cos(th))[:, None]
        h = 1.0 / np.add.outer(xi, xi)
        sine = np.sum(tables * (num / np.add.outer(lam * lam, xi * xi)), axis=1)
        return sine, np.sum((tables @ h) * tables, axis=1)

    def t_integrated_gap_density(self, lam):
        """Regular part of int_0^inf (1 - 2 F^2) dt at spectral parameter lam.

        The Abel-regularized cosine component contributes
        -sin(2 phase)/(2 lam) here; its lam -> 0 boundary term (a constant
        pi/4 per unit of the outer integral's weight at the spectral
        bottom) is accounted for by the callers.  Takes an array of lam;
        a scalar gives a float.  Tables hold at most 256 lam, bounding memory.
        """
        lam = np.asarray(lam, dtype=float)
        th = np.ravel(self.phase_vec(lam))
        flat = lam.ravel()
        sine, square = np.concatenate([self._moments(flat[i:i + 256], th[i:i + 256])
                                       for i in range(0, flat.size, 256)], axis=1)
        out = -np.sin(2.0 * th) / (2.0 * flat) + 4.0 * sine - 2.0 * square
        return float(out[0]) if lam.ndim == 0 else out.reshape(lam.shape)

    def energy_shift(self, mu):
        """Integrated kernel deficit zeta(mu) = mu^-1 int (a - a_half) dt,
        over an array of mu > 1 in one density pass; a scalar gives a float."""
        mu = np.asarray(mu, dtype=float)
        if not np.all(mu > 1.0):
            raise ValueError(f"energy_shift requires mu > 1, got {mu}")
        flat = mu.ravel()
        lam, w, _ = self._g_grid(flat, n=48)
        wt = flat[:, None] - (1.0 + lam ** 2) ** self.order.s
        dens = self.t_integrated_gap_density(lam)
        # one dot product per row, summed as np.dot sums it
        gap = np.matmul(w[:, None, :], (wt * dens)[:, :, None])[:, 0, 0]
        out = ((flat - 1.0) / 4.0 + gap / math.pi) / flat
        return float(out[0]) if mu.ndim == 0 else out.reshape(mu.shape)


class DirichletLineModel:
    """Local (s = 1) analogue with sine eigenfunctions: zero phase shift and
    no Laplace tail.  The kernel deficit has a closed form, which both
    drives the power-of-the-Dirichlet-Laplacian comparison constant and
    serves as an exact oracle for the generic layer machinery."""

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("dimension must be >= 2")
        self.d = d

    @staticmethod
    def kernel_gap(x, mu: float):
        """Closed-form kernel deficit; ``x`` may be an array, a scalar
        gives a float."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        if mu > 1.0:
            edge = math.sqrt(mu - 1.0)
            u = 2.0 * edge * x
            with np.errstate(divide="ignore", invalid="ignore"):
                j = np.where(u < 1e-3, 1.0 / 3.0 - u * u / 30.0 + u ** 4 / 840.0,
                             (np.sin(u) - u * np.cos(u)) / u ** 3)
            out = 2.0 * edge ** 3 * j / math.pi
        return float(out) if out.ndim == 0 else out

    def boundary_layer(self, t):
        # s = 1 in the layer reduction
        return _layer_profile(self._layer_gaps, t, 1.0, self.d)

    def _layer_gaps(self, t, nodes):
        return (self.kernel_gap(t * r, mu) for r, mu in nodes)
