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

Centers are summed on a quadrature grid fitted to the local scale: Gauss
panels in 1-D (``scale_grid``), square cells refined until their side is
below l/resolution in 2-D (``cell_grid``).  The 2-D grid is streamed in
bounded batches of finished cells, and the partition and neighbourhood
integrals are sums over it, so neither holds the whole grid: at
l0 = 0.01 on the disk of radius 2 it has 662k cells, and
``neighborhood_integrals`` peaks at about 5 MiB of traced allocations.
Each quantity has one form, a function of the distance fields: the scale
``l(d)``, the gradients ``grad_distance(u, d)`` and ``scale_gradient(u,
d)`` and the weight ``weight(x, u, l, d)`` read the distance d to the
complement that ``DomainGeometry.distance_fields`` returns with the
distance to the boundary.  Both grids evaluate those fields once per
center and yield them with the center, so the scale, the pruning, the
partition weight and the integrals all read one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .quadcore import integrate, panel_quad

__all__ = [
    "DomainGeometry",
    "interval_geometry",
    "rectangle_geometry",
    "disk_geometry",
    "LocalizationFamily",
    "partition_check",
    "neighborhood_integrals",
]

# most cells ``LocalizationFamily.cell_grid`` scales and tests at once
_CELL_BATCH = 2 ** 15
# offset signs of a cell's four children, in the order they are refined
_QUARTERS = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))


@dataclass(frozen=True)
class DomainGeometry:
    """Shape with distance functions; d(u) vanishes outside the domain and
    is 1-Lipschitz.

    A ``"box"`` is the axis-aligned box [0, a_1] x ... x [0, a_dim] of its
    side lengths ``parameters``: an interval in 1-D, a rectangle in 2-D.
    A ``"disk"`` is the disk of radius ``parameters[0]`` about the origin.
    Points are arrays whose last axis holds the ``dim`` coordinates, so an
    (N, dim) array gives N values and a single point of shape (dim,) one.
    """

    shape: str
    parameters: tuple

    @property
    def dim(self) -> int:
        return len(self.parameters) if self.shape == "box" else 2

    def distance_fields(self, pts):
        """``(d, b)`` at points: the distance d to the complement of the
        domain and the distance b to the boundary, from either side.  A
        box takes both from its faces one coordinate column at a time
        (numpy maps columns several times faster than it reduces over a
        short last axis); the disk from one ``hypot``."""
        pts = np.asarray(pts, dtype=float)
        if self.shape == "box":
            faces = [np.minimum(pts[..., j], a - pts[..., j])
                     for j, a in enumerate(self.parameters)]
            d = np.clip(reduce(np.minimum, faces), 0.0, None)
            # a coordinate lies -face outside the box where its face is negative
            outside = reduce(np.hypot, [np.clip(-f, 0.0, None) for f in faces])
            return d, np.where(outside > 0.0, outside, d)
        gap = self.parameters[0] - np.hypot(pts[..., 0], pts[..., 1])
        return np.clip(gap, 0.0, None), np.abs(gap)

    def grad_distance(self, pts: np.ndarray, d) -> np.ndarray:
        """Gradient of d at interior non-ridge points whose distance to the
        complement is d; zero outside."""
        inside = d > 0.0
        if self.shape == "box":
            # faces x_1, a_1 - x_1, x_2, a_2 - x_2, ... and their gradients
            faces = np.stack([pts, np.asarray(self.parameters) - pts], axis=-1)
            grads = np.kron(np.eye(self.dim), [[1.0], [-1.0]])
            g = grads[np.argmin(faces.reshape(pts.shape[:-1] + (-1,)), axis=-1)]
        else:
            rho = np.hypot(pts[..., 0], pts[..., 1])[..., None]
            with np.errstate(invalid="ignore", divide="ignore"):
                g = np.where(rho == 0.0, 0.0, -pts / rho)
        return np.where(inside[..., None], g, 0.0)

    def interior_box(self):
        if self.shape == "box":
            return (np.zeros(self.dim), np.array(self.parameters))
        r = self.parameters[0]
        return (np.array([-r, -r]), np.array([r, r]))


def interval_geometry(length: float = 4.0) -> DomainGeometry:
    return DomainGeometry("box", (float(length),))


def rectangle_geometry(a: float, b: float) -> DomainGeometry:
    return DomainGeometry("box", (float(a), float(b)))


def disk_geometry(radius: float = 2.0) -> DomainGeometry:
    return DomainGeometry("disk", (float(radius),))


@lru_cache(maxsize=8)
def _profile_norm(dim: int) -> float:
    """Normalization making the bump profile unit in L2."""
    if dim == 1:
        val = integrate(lambda y: np.exp(-2.0 / (1.0 - y * y)), -1.0, 1.0,
                        rel_tol=1e-12).value
    else:
        val = 2.0 * math.pi * integrate(
            lambda r: r * np.exp(-2.0 / (1.0 - r * r)), 0.0, 1.0,
            rel_tol=1e-12).value
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

    def scale(self, d):
        """l as a function of the distance d(u) to the complement, for an
        array or a float."""
        q = np.hypot(d, self.l0)
        return q / (2.0 * (q + 1.0))

    def scale_gradient(self, pts: np.ndarray, d) -> np.ndarray:
        """grad l at points whose distance to the complement is d."""
        q = np.hypot(d, self.l0)
        return self.geometry.grad_distance(pts, d) * (d / (2.0 * q * (q + 1.0) ** 2))[..., None]

    # -- weights ---------------------------------------------------------

    def profile_r2(self, r2) -> np.ndarray:
        """Smooth radial bump (unit L2 norm) as a function of |y|^2."""
        r2 = np.atleast_1d(np.asarray(r2, dtype=float))
        out = np.zeros_like(r2)
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return _profile_norm(self.geometry.dim) * out

    def weight(self, xs, us: np.ndarray, ls, d) -> np.ndarray:
        """phi_u(x): profile at the rescaled offset times the Jacobian root,
        at centers u whose scale is ``ls`` and distance to the complement
        d, as a center grid yields them.

        ``xs`` and ``us`` hold coordinates on their last axis and broadcast
        over the others (``ls`` and d over all but the last of ``us``), so
        one point against many centers, many points against one center,
        or a grid of pairs are all one call.
        """
        xs = np.asarray(xs, dtype=float)
        y = (xs - us) / ls[..., None]
        r2 = np.sum(y * y, axis=-1)
        jac = 1.0 + np.sum(self.scale_gradient(us, d) * y, axis=-1)
        return self.profile_r2(r2).reshape(r2.shape) * np.sqrt(np.clip(jac, 0.0, None))

    # -- center grids ----------------------------------------------------

    def scale_grid(self, resolution: int,
                   lo: float | None = None, hi: float | None = None):
        """1-D quadrature over centers: panels marched at the local scale
        (width 4 l(u)/resolution) with 6 Gauss-Legendre nodes inside.  The
        default range pads the domain by 0.6 on each side, beyond the
        reach 1/2 of the largest ball.  The march takes each edge's l from
        the float distance max(min(u, a - u), 0) to the complement of
        [0, a].

        Returns ``(centers, weights, scales, distances, boundary)``, laid
        out as one ``cell_grid`` batch: centers of shape (N, 1) and the
        geometry's ``distance_fields`` at them, evaluated once.  Raises
        ValueError unless ``resolution >= 1``: a smaller one would march
        backwards or not at all.
        """
        if self.geometry.dim != 1:
            raise ValueError("scale_grid is 1-D; use cell_grid in 2-D")
        _check_resolution(resolution, 1)
        length = self.geometry.parameters[0]
        u = -0.6 if lo is None else float(lo)
        end = length + 0.6 if hi is None else hi
        edges = [u]
        while u < end:
            u += 4.0 * float(self.scale(max(min(u, length - u), 0.0))) / resolution
            edges.append(u)
        us, ws = panel_quad(np.array(edges), 6)
        centers = us[:, None]
        dists, boundary = self.geometry.distance_fields(centers)
        return centers, ws, self.scale(dists), dists, boundary

    def cell_grid(self, center: np.ndarray, halfwidth: float, resolution: int,
                  prune=None):
        """Adaptive 2-D cells: split until size <= l(cell)/resolution.

        A generator of ``(centers, areas, scales, distances, boundary)``
        batches of finished cells; the last two are the geometry's
        ``distance_fields`` at the centers.  The frontier is refined
        depth first, at most ``_CELL_BATCH`` cells at a time, so memory
        stays bounded by the batch size times the depth instead of growing
        with the grid; a frontier that fits one batch is refined level by
        level, in the order of a level-synchronous sweep.  Each batch holds
        the cells of one level, whose half-width is one float.  The
        distance fields are evaluated once per cell; they give l and are
        passed with it to ``prune(centers, half, scales, distances,
        boundary)``, which may mark whole cells as irrelevant; they are
        dropped unrefined.  A cell's refinement does not depend on its
        neighbours, so the pruned grid is the unpruned one minus the
        descendants of the dropped cells.  ``partition_check`` prunes the
        cells out of its point's reach, ``neighborhood_integrals`` those
        far outside the domain; both rely on l being 1/2-Lipschitz to bound
        l over a cell.

        Raises ValueError at the call unless ``resolution >= 1``: a smaller
        one would refine forever or not at all.
        """
        _check_resolution(resolution, 1)
        return self._cell_batches(np.asarray(center, dtype=float)[None, :],
                                  float(halfwidth), resolution, prune)

    def _cell_batches(self, centers, half, resolution, prune):
        parents = _CELL_BATCH // 4
        pending = []
        while True:
            dists, boundary = self.geometry.distance_fields(centers)
            scales = self.scale(dists)
            done = 2.0 * half <= scales / resolution
            keep = True if prune is None else ~prune(centers, half, scales, dists, boundary)
            # index gathers: a boolean mask gathers the (n, 2) centers
            # several times slower than ``take`` of its indices
            finished = np.flatnonzero(keep & done)
            refined = np.flatnonzero(keep & ~done)
            if finished.size:
                side = 2.0 * half
                yield (centers.take(finished, axis=0), np.full(finished.size, side * side),
                       scales.take(finished), dists.take(finished), boundary.take(finished))
            if refined.size:
                pending.append((centers.take(refined, axis=0), half))
            if not pending:
                return
            centers, half = pending.pop()
            if len(centers) > parents:
                pending.append((centers[parents:], half))
                centers = centers[:parents]
            half *= 0.5
            # one add per quarter and axis: numpy broadcasts over a
            # 2-long last axis several times slower than it adds columns
            children = np.empty((len(centers), 4, 2))
            for k, signs in enumerate(_QUARTERS):
                for j, sign in enumerate(signs):
                    np.add(centers[:, j], sign * half, out=children[:, k, j])
            centers = children.reshape(-1, 2)


def _check_resolution(resolution, least: int):
    if not resolution >= least:
        raise ValueError(f"resolution must be at least {least}, got {resolution}")


def partition_check(x, family: LocalizationFamily, resolution: int = 8) -> float:
    """Quadrature value of the partition integral at one point; tends to 1
    as the center grid refines.

    Only centers within reach of ``x`` (``|x - u| < l(u)``) carry weight.
    In 1-D the scale grid spans x +- 0.75, past the largest scale 1/2; in
    2-D ``cell_grid`` drops, unrefined, every cell whose centers all lie
    out of reach, so the sum is the one over the full grid of the
    +-0.75 box with its exact zeros left out.  The weights read the scale
    and the distance each center's grid evaluated.  Raises ValueError
    unless ``resolution >= 1``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if family.geometry.dim == 1:
        # centers can only reach x from within max scale 1/2
        batches = [family.scale_grid(resolution, lo=x[0] - 0.75, hi=x[0] + 0.75)]
    else:
        def out_of_reach(cs, half, ls, dists, boundary):
            # l is 1/2-Lipschitz, so every center u of a cell with center c
            # and half-diagonal delta has |x - u| >= |x - c| - delta and
            # l(u) <= l(c) + delta/2: once the first bound reaches the
            # second, no center in the cell reaches x.  Such cells hold only
            # offsets with r^2 >= 1, whose weight is exactly 0.0 (the bump
            # exp(-1/(1 - r^2)) already underflows to 0.0 for r^2 > 0.9987,
            # far beyond the rounding of either side), so dropping them
            # changes the sum only through its order
            delta = half * math.sqrt(2.0)
            dist = np.hypot(cs[:, 0] - x[0], cs[:, 1] - x[1])
            return dist - delta >= ls + 0.5 * delta

        batches = family.cell_grid(x, 0.75, resolution, prune=out_of_reach)
    centers, ws, ls, dists, _ = map(np.concatenate, zip(*batches))
    w = family.weight(x, centers, ls, dists)
    return float(np.sum(w * w / ls ** family.geometry.dim * ws))


def neighborhood_integrals(geometry: DomainGeometry,
                           l0_values=(0.04, 0.02, 0.01),
                           resolution: int = 10) -> dict:
    """Empirical scaling in l0 of the bulk and collar integrals.

    Bulk: integral of l(u)^-2 over domain points whose ball misses the
    boundary (expected ~ l0^-1).  Collar: measure of the centers whose
    ball meets the boundary (expected ~ l0).  Both read the
    distance fields the grid has evaluated at each center.  Raises
    ValueError unless ``resolution >= 1`` (``>= 2`` in 2-D, where the
    cells refine to l/(resolution // 2)).
    """
    _check_resolution(resolution, 1 if geometry.dim == 1 else 2)

    def far_exterior(cs, half, ls, dists, boundary):
        # cells with no domain points and no collar reach: the scale is
        # 1/2-Lipschitz, so l inside the cell stays below l(center) + diag/2
        diag = half * math.sqrt(2.0)
        return (dists == 0.0) & (boundary > ls + 1.5 * diag)

    bulk_vals, collar_vals = [], []
    for l0 in l0_values:
        fam = LocalizationFamily(geometry, l0)
        if geometry.dim == 1:
            batches = [fam.scale_grid(resolution)]
        else:
            lo, hi = geometry.interior_box()
            center = 0.5 * (lo + hi)
            half = 0.5 * float(np.max(hi - lo)) + 0.6
            batches = fam.cell_grid(center, half, resolution // 2, prune=far_exterior)
        bulk = collar = 0.0
        for _, ws, ls, dists, boundary in batches:
            meets = boundary < ls
            interior = dists > 0.0
            collar += float(np.sum(ws[meets]))
            keep = interior & ~meets
            bulk += float(np.sum(ls[keep] ** -2.0 * ws[keep]))
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
        "bulk_values": tuple(bulk_vals),
        "collar_values": tuple(collar_vals),
        "bulk_exponent": bulk_exp,
        "collar_exponent": collar_exp,
    }
