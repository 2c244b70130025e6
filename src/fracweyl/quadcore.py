"""Deterministic numerical kernels shared by every other module.

Provides sphere surface areas and the two one-dimensional quadratures:
:func:`panel_quad`, the fixed Gauss-Legendre panel rule behind the
coefficient routes and the covering's scale grid, and :func:`integrate`,
adaptive Gauss-Kronrod with error control, the reference the fixed rule
is checked against.

Integrands passed to :func:`integrate` must accept a 1-D ``numpy`` array
of abscissae and return an array of the same shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "NonConvergenceError",
    "sphere_area",
    "integrate",
    "panel_quad",
]


class NonConvergenceError(ArithmeticError):
    """Raised when adaptive subdivision exhausts its budget above tolerance."""

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Error-control contract for adaptive quadrature."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.abs_tol < 0:
            raise ValueError(f"abs_tol must be nonnegative, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")

    def tolerance(self, value: float) -> float:
        return max(self.rel_tol * abs(value), self.abs_tol)


@dataclass(frozen=True)
class IntegralResult:
    value: float
    err_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be nonnegative")


# 7-point Gauss / 15-point Kronrod pair on [-1, 1].
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss weights sit at the odd Kronrod nodes.
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _gk15(f, a: float, b: float):
    """Gauss-Kronrod estimate of int_a^b f with the standard error proxy."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    x = mid + half * _XK
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input")
    ik = half * float(np.dot(_WK, y))
    ig = half * float(np.dot(_WG, y[1::2]))
    # QUADPACK-style rescaled error estimate.
    avg = ik / (b - a)
    resasc = half * float(np.dot(_WK, np.abs(y - avg)))
    err = abs(ik - ig)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return ik, err


def integrate(f, a, b, spec: QuadratureSpec = QuadratureSpec()) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over ``(a, b)``.

    ``b`` may be ``math.inf``; a decaying tail is mapped to a finite
    interval by the substitution x = c/u.

    Raises
    ------
    NonConvergenceError
        If ``spec.max_subdivisions`` panels are not enough to reach
        ``max(rel_tol*|I|, abs_tol)``.
    """
    a = float(a)
    if b != math.inf:
        b = float(b)
    if not (b > a):
        raise ValueError(f"integration bounds must satisfy a < b, got ({a}, {b})")

    pieces = []  # (g, lo, hi) finite subintervals after substitutions
    if b == math.inf:
        cut = max(a, 0.0) + 1.0
        # x = cut/u maps u in (0, 1] onto [cut, inf).
        def tail(u, cut=cut):
            x = cut / u
            return f(x) * cut / u ** 2
        pieces.append((tail, 0.0, 1.0))
        b = cut

    pieces.append((f, a, b))

    heap = []  # (-err, seq, value, err, g, lo, hi)
    total = 0.0
    total_err = 0.0
    evals = 0
    seq = 0
    for g, lo, hi in pieces:
        v, e = _gk15(g, lo, hi)
        evals += 15
        total += v
        total_err += e
        heapq.heappush(heap, (-e, seq, v, e, g, lo, hi))
        seq += 1

    panels = len(pieces)
    while total_err > spec.tolerance(total) and heap:
        if panels >= spec.max_subdivisions:
            raise NonConvergenceError(
                f"failed to reach tolerance after {panels} panels "
                f"(value={total!r}, err={total_err!r})",
                total, total_err)
        _, _, v, e, g, lo, hi = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(g, lo, mid)
        v2, e2 = _gk15(g, mid, hi)
        evals += 30
        panels += 1
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, seq, v1, e1, g, lo, mid))
        heapq.heappush(heap, (-e2, seq + 1, v2, e2, g, mid, hi))
        seq += 2

    return IntegralResult(total, total_err, evals)


@lru_cache(maxsize=64)
def _gl(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_quad(edges: np.ndarray, n: int):
    """Gauss-Legendre nodes/weights on a sequence of contiguous panels."""
    x, w = _gl(n)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def sphere_area(n: int) -> float:
    """Surface measure of the unit n-sphere embedded in R^(n+1).

    sphere_area(0) = 2, sphere_area(1) = 2*pi, sphere_area(2) = 4*pi.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"sphere dimension must be a nonnegative integer, got {n}")
    n = int(n)
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
