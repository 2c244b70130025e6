"""Deterministic numerical kernels shared by every other module.

Provides sphere surface areas and the one-dimensional Gauss-Legendre
rule: :func:`panel_quad`, the fixed panels behind the coefficient routes
and the covering's scale grid, and :func:`integrate`, which bisects those
panels under error control and is the reference the fixed panels are
checked against.

Integrands passed to :func:`integrate` must accept a 1-D ``numpy`` array
of abscissae and return an array of the same shape.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
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
class IntegralResult:
    value: float
    err_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be nonnegative")


# Gauss-Legendre nodes per panel of integrate, its absolute error floor and
# its panel budget
_ORDER = 8
_ABS_TOL = 1e-12
_MAX_PANELS = 2000


def _rule(g, edges):
    """panel_quad weights on ``edges`` and the integrand at their nodes."""
    x, w = panel_quad(np.array(edges), _ORDER)
    y = np.asarray(g(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return an array matching its input")
    return w, y


def integrate(f, a, b, rel_tol: float = 1e-8) -> IntegralResult:
    """Adaptive integration of ``f`` over ``(a, b)`` by bisected
    :func:`panel_quad` panels.

    Each panel holds its one-panel value and the value over its two
    halves; it contributes the latter, with their difference as its
    error.  The panel of largest error is bisected, each half reusing its
    value as its one-panel value, until the errors sum below
    ``max(rel_tol*|I|, 1e-12)``.  ``b`` may be ``math.inf``; a decaying
    tail is mapped to a finite interval by the substitution x = c/u.

    Raises
    ------
    NonConvergenceError
        If 2000 panels are not enough to reach the tolerance.
    """
    if not rel_tol > 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
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

    heap = []  # (-err, seq, value, halves, g, lo, hi)
    total = 0.0
    total_err = 0.0
    evals = 0
    seq = itertools.count()

    def add(g, lo, hi, whole):
        nonlocal total, total_err, evals
        mid = 0.5 * (lo + hi)
        w, y = _rule(g, [lo, mid, hi])
        evals += y.size
        v = float(np.dot(w, y))
        halves = (float(np.dot(w[:_ORDER], y[:_ORDER])),
                  float(np.dot(w[_ORDER:], y[_ORDER:])))
        e = abs(v - whole)
        total += v
        total_err += e
        heapq.heappush(heap, (-e, next(seq), v, halves, g, lo, hi))

    for g, lo, hi in pieces:
        w, y = _rule(g, [lo, hi])
        evals += y.size
        add(g, lo, hi, float(np.dot(w, y)))

    panels = len(pieces)
    while total_err > max(rel_tol * abs(total), _ABS_TOL):
        if panels >= _MAX_PANELS:
            raise NonConvergenceError(
                f"failed to reach tolerance after {panels} panels "
                f"(value={total!r}, err={total_err!r})",
                total, total_err)
        neg_e, _, v, (v1, v2), g, lo, hi = heapq.heappop(heap)
        total -= v
        total_err += neg_e
        mid = 0.5 * (lo + hi)
        add(g, lo, mid, v1)
        add(g, mid, hi, v2)
        panels += 1

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
