"""Multiscale ball covering with boundary-adapted scales.

The covering assigns every center u a scale

    l(u) = q / (2 (q + 1)),      q = sqrt(d(u)^2 + l0^2),

where d(u) is the distance to the complement of the domain, so the balls
shrink toward the boundary and saturate at radius 1/2 deep inside.  The
weights

    phi_u(x) = profile((x - u)/l(u)) * sqrt(1 + grad l(u) . (x - u)/l(u))

carry the Jacobian of the map u -> (x - u)/l(u); by the change of
variables that Jacobian makes exact, they form a continuous partition of
unity: the integral of phi_u(x)^2 l(u)^-dim over centers equals one at
every point.  The quadrature version of that identity is the module's
main verification surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadcore import QuadratureSpec, integrate, panel_quad

__all__ = [
    "DomainGeometry",
    "interval_geometry",
    "rectangle_geometry",
    "disk_geometry",
    "LocalizationFamily",
    "partition_check",
    "neighborhood_integrals",
]


@dataclass(frozen=True)
class DomainGeometry:
    """Shape with distance functions; d(u) vanishes outside the domain and
    is 1-Lipschitz.

    Points are arrays whose last axis holds the ``dim`` coordinates, so an
    (N, dim) array gives N values and a single point of shape (dim,) one.
    """

    shape: str
    parameters: tuple

    @property
    def dim(self) -> int:
        return 1 if self.shape == "interval" else 2

    def distance(self, pts) -> np.ndarray:
        """Distance to the complement of the domain."""
        pts = np.asarray(pts, dtype=float)
        if self.shape == "interval":
            (a,) = self.parameters
            return np.clip(np.minimum(pts[..., 0], a - pts[..., 0]), 0.0, None)
        if self.shape == "rectangle":
            a, b = self.parameters
            faces = np.minimum(np.minimum(pts[..., 0], a - pts[..., 0]),
                               np.minimum(pts[..., 1], b - pts[..., 1]))
            return np.clip(faces, 0.0, None)
        r = self.parameters[0]
        return np.clip(r - np.hypot(pts[..., 0], pts[..., 1]), 0.0, None)

    def boundary_distance(self, pts) -> np.ndarray:
        """Distance to the boundary, from either side."""
        pts = np.asarray(pts, dtype=float)
        if self.shape == "interval":
            (a,) = self.parameters
            return np.minimum(np.abs(pts[..., 0]), np.abs(a - pts[..., 0]))
        if self.shape == "rectangle":
            a, b = self.parameters
            cx = np.clip(pts[..., 0], 0.0, a)
            cy = np.clip(pts[..., 1], 0.0, b)
            outside = np.hypot(pts[..., 0] - cx, pts[..., 1] - cy)
            return np.where(outside > 0.0, outside, self.distance(pts))
        r = self.parameters[0]
        return np.abs(r - np.hypot(pts[..., 0], pts[..., 1]))

    def grad_distance(self, pts) -> np.ndarray:
        """Gradient of d at interior non-ridge points; zero outside."""
        pts = np.asarray(pts, dtype=float)
        inside = self.distance(pts) > 0.0
        if self.shape == "interval":
            (a,) = self.parameters
            g = np.where(pts[..., :1] < a - pts[..., :1], 1.0, -1.0)
        elif self.shape == "rectangle":
            a, b = self.parameters
            faces = np.stack([pts[..., 0], a - pts[..., 0], pts[..., 1], b - pts[..., 1]],
                             axis=-1)
            grads = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
            g = grads[np.argmin(faces, axis=-1)]
        else:
            rho = np.hypot(pts[..., 0], pts[..., 1])[..., None]
            with np.errstate(invalid="ignore", divide="ignore"):
                g = np.where(rho == 0.0, 0.0, -pts / rho)
        return np.where(inside[..., None], g, 0.0)

    def interior_box(self):
        if self.shape == "interval":
            return (np.array([0.0]), np.array([self.parameters[0]]))
        if self.shape == "rectangle":
            a, b = self.parameters
            return (np.array([0.0, 0.0]), np.array([a, b]))
        r = self.parameters[0]
        return (np.array([-r, -r]), np.array([r, r]))


def interval_geometry(length: float = 4.0) -> DomainGeometry:
    return DomainGeometry("interval", (float(length),))


def rectangle_geometry(a: float, b: float) -> DomainGeometry:
    return DomainGeometry("rectangle", (float(a), float(b)))


def disk_geometry(radius: float = 2.0) -> DomainGeometry:
    return DomainGeometry("disk", (float(radius),))


@lru_cache(maxsize=8)
def _profile_norm(dim: int) -> float:
    """Normalization making the bump profile unit in L2."""
    if dim == 1:
        val = integrate(lambda y: np.exp(-2.0 / (1.0 - y * y)), -1.0, 1.0,
                        QuadratureSpec(rel_tol=1e-12)).value
    else:
        val = 2.0 * math.pi * integrate(
            lambda r: r * np.exp(-2.0 / (1.0 - r * r)), 0.0, 1.0,
            QuadratureSpec(rel_tol=1e-12)).value
    return 1.0 / math.sqrt(val)


@dataclass(frozen=True)
class LocalizationFamily:
    """Covering family over one geometry with base scale l0 in (0, 1/2]."""

    geometry: DomainGeometry
    l0: float

    def __post_init__(self):
        if not 0.0 < self.l0 <= 0.5:
            raise ValueError(f"l0 must lie in (0, 1/2], got {self.l0}")

    # -- scale function ------------------------------------------------

    def scale(self, pts) -> np.ndarray:
        """l(u) at points u, an array whose last axis holds coordinates."""
        q = np.hypot(self.geometry.distance(pts), self.l0)
        return q / (2.0 * (q + 1.0))

    def scale_gradient(self, pts) -> np.ndarray:
        d = self.geometry.distance(pts)
        q = np.hypot(d, self.l0)
        return self.geometry.grad_distance(pts) * (d / (2.0 * q * (q + 1.0) ** 2))[..., None]

    # -- weights ---------------------------------------------------------

    def profile_r2(self, r2) -> np.ndarray:
        """Smooth radial bump (unit L2 norm) as a function of |y|^2."""
        r2 = np.atleast_1d(np.asarray(r2, dtype=float))
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return _profile_norm(self.geometry.dim) * out

    def weight(self, xs, us) -> np.ndarray:
        """phi_u(x): profile at the rescaled offset times the Jacobian root.

        ``xs`` and ``us`` hold coordinates on their last axis and broadcast
        over the others, so one point against many centers, many points
        against one center, or a grid of pairs are all one call.
        """
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        y = (xs - us) / self.scale(us)[..., None]
        r2 = np.sum(y * y, axis=-1)
        jac = 1.0 + np.sum(self.scale_gradient(us) * y, axis=-1)
        vals = self.profile_r2(r2).reshape(r2.shape) * np.sqrt(np.clip(jac, 0.0, None))
        return np.where(r2 < 1.0, vals, 0.0)

    # -- center grids ----------------------------------------------------

    def scale_grid(self, resolution: int,
                   lo: float | None = None, hi: float | None = None):
        """1-D quadrature over centers: panels marched at the local scale
        (width 4 l(u)/resolution) with 6 Gauss-Legendre nodes inside.  The
        default range pads the domain by 0.6 on each side, beyond the
        reach 1/2 of the largest ball.

        Returns (centers, weights, scales).
        """
        if self.geometry.dim != 1:
            raise ValueError("scale_grid is 1-D; use cell_grid in 2-D")
        box_lo, box_hi = self.geometry.interior_box()
        u = float(box_lo[0]) - 0.6 if lo is None else lo
        end = float(box_hi[0]) + 0.6 if hi is None else hi
        edges = [u]
        while u < end:
            u += 4.0 * float(self.scale([u])) / resolution
            edges.append(u)
        us, ws = panel_quad(np.array(edges), 6)
        return us, ws, self.scale(us[:, None])

    def cell_grid(self, center: np.ndarray, halfwidth: float, resolution: int,
                  prune=None):
        """Adaptive 2-D cells: split until size <= l(cell)/resolution.

        Level-synchronous refinement over arrays, so the cost is a few
        vector operations per depth level.  ``prune(centers, halves)``
        may mark whole cells as irrelevant; they are dropped unrefined.
        A cell's refinement does not depend on its neighbours, so the
        pruned grid is the unpruned one minus the descendants of the
        dropped cells.  ``partition_check`` prunes the cells out of its
        point's reach, ``neighborhood_integrals`` those far outside the
        domain; both rely on l being 1/2-Lipschitz to bound l over a cell.
        """
        centers = np.asarray(center, dtype=float)[None, :]
        halves = np.array([halfwidth])
        out_c, out_a = [], []
        quarters = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        while centers.size:
            if prune is not None:
                keep = ~prune(centers, halves)
                centers, halves = centers[keep], halves[keep]
                if not centers.size:
                    break
            done = 2.0 * halves <= self.scale(centers) / resolution
            if done.any():
                out_c.append(centers[done])
                out_a.append((2.0 * halves[done]) ** 2)
            centers = centers[~done]
            halves = halves[~done]
            if centers.size:
                q = 0.5 * halves
                centers = (centers[:, None, :]
                           + quarters[None, :, :] * q[:, None, None]).reshape(-1, 2)
                halves = np.repeat(q, 4)
        if not out_c:
            return np.empty((0, 2)), np.empty(0)
        return np.concatenate(out_c), np.concatenate(out_a)


def partition_check(x, family: LocalizationFamily, resolution: int = 8) -> float:
    """Quadrature value of the partition integral at one point; tends to 1
    as the center grid refines.

    Only centers within reach of ``x`` (``|x - u| < l(u)``) carry weight.
    In 1-D the scale grid spans x +- 0.75, past the largest scale 1/2; in
    2-D ``cell_grid`` drops, unrefined, every cell whose centers all lie
    out of reach, so the sum is the one over the full grid of the
    +-0.75 box with its exact zeros left out."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if family.geometry.dim == 1:
        # centers can only reach x from within max scale 1/2
        us, ws, ls = family.scale_grid(resolution, lo=x[0] - 0.75, hi=x[0] + 0.75)
        centers = us[:, None]
    else:
        def out_of_reach(cs, hs):
            # l is 1/2-Lipschitz, so every center u of a cell with center c
            # and half-diagonal delta has |x - u| >= |x - c| - delta and
            # l(u) <= l(c) + delta/2: once the first bound reaches the
            # second, no center in the cell reaches x.  Such cells hold only
            # offsets with r^2 >= 1, whose weight is exactly 0.0 (the bump
            # exp(-1/(1 - r^2)) already underflows to 0.0 for r^2 > 0.9987,
            # far beyond the rounding of either side), so dropping them
            # changes the sum only through its order
            delta = hs * math.sqrt(2.0)
            dist = np.hypot(cs[:, 0] - x[0], cs[:, 1] - x[1])
            return dist - delta >= family.scale(cs) + 0.5 * delta

        centers, ws = family.cell_grid(x, 0.75, resolution, prune=out_of_reach)
        ls = family.scale(centers)
    w = family.weight(x, centers)
    return float(np.sum(w * w / ls ** family.geometry.dim * ws))


def neighborhood_integrals(geometry: DomainGeometry,
                           l0_values=(0.04, 0.02, 0.01),
                           a_exponent: float = 0.0,
                           resolution: int = 10) -> dict:
    """Empirical scaling in l0 of the bulk and collar integrals.

    Bulk: integral of l(u)^-2 over domain points whose ball misses the
    boundary (expected ~ l0^-1).  Collar: integral of l(u)^a over centers
    whose ball meets the boundary (expected ~ l0^(a+1)).
    """
    bulk_vals, collar_vals = [], []
    for l0 in l0_values:
        fam = LocalizationFamily(geometry, l0)
        if geometry.dim == 1:
            us, ws, ls = fam.scale_grid(resolution)
            centers = us[:, None]
        else:
            lo, hi = geometry.interior_box()
            center = 0.5 * (lo + hi)
            half = 0.5 * float(np.max(hi - lo)) + 0.6

            def far_exterior(cs, hs, fam=fam, geometry=geometry):
                # cells with no domain points and no collar reach: the
                # scale is 1/2-Lipschitz, so l inside the cell stays below
                # l(center) + diag/2
                diag = hs * math.sqrt(2.0)
                exterior = geometry.distance(cs) == 0.0
                no_collar = (geometry.boundary_distance(cs)
                             > fam.scale(cs) + 1.5 * diag)
                return exterior & no_collar

            centers, ws = fam.cell_grid(center, half, resolution // 2,
                                        prune=far_exterior)
            ls = fam.scale(centers)
        meets = geometry.boundary_distance(centers) < ls
        interior = geometry.distance(centers) > 0.0
        collar = float(np.sum(ls[meets] ** a_exponent * ws[meets]))
        keep = interior & ~meets
        bulk = float(np.sum(ls[keep] ** -2.0 * ws[keep]))
        for name, val in (("bulk", bulk), ("collar", collar)):
            if not val > 0:
                raise ArithmeticError(f"{name} integral is {val} at l0 = {l0}; "
                                      "its log-log exponent needs it positive")
        bulk_vals.append(bulk)
        collar_vals.append(collar)
    logl0 = np.log(np.asarray(l0_values))
    bulk_exp = float(np.polyfit(logl0, np.log(bulk_vals), 1)[0])
    collar_exp = float(np.polyfit(logl0, np.log(collar_vals), 1)[0])
    return {
        "l0_values": tuple(l0_values),
        "bulk_values": tuple(bulk_vals),
        "collar_values": tuple(collar_vals),
        "bulk_exponent": bulk_exp,
        "collar_exponent": collar_exp,
        "expected_bulk_exponent": -1.0,
        "expected_collar_exponent": a_exponent + 1.0,
    }
