import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid
from hypothesis import given, settings, strategies as st

from fracweyl import localization as loc
from fracweyl.localization import (LocalizationFamily, interval_geometry,
                                   rectangle_geometry, disk_geometry,
                                   partition_check, neighborhood_integrals)


def _scale(fam, pts):
    """l at points, from their distance to the complement."""
    return fam.scale(fam.geometry.distance_fields(pts)[0])


def _weight(fam, xs, us):
    """phi_u(x) at centers us, with the scale and distance read at them."""
    us = np.asarray(us, dtype=float)
    d = fam.geometry.distance_fields(us)[0]
    return fam.weight(xs, us, fam.scale(d), d)


class TestScale:
    def test_boundary_value(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.5)
        assert _scale(fam, [0.0]) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_deep_interior_limit(self):
        fam = LocalizationFamily(interval_geometry(400.0), 0.1)
        assert _scale(fam, [200.0]) == pytest.approx(0.5, abs=1e-2)

    @given(u=st.floats(-1.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_two_sided_bounds(self, u):
        geom = interval_geometry(4.0)
        fam = LocalizationFamily(geom, 0.25)
        d, boundary = geom.distance_fields([u])
        l = fam.scale(d)
        assert l >= max(min(d, 1.0) / 4.0, fam.l0 / 4.0) - 1e-12
        assert l <= 0.5
        if boundary < l:
            assert l <= fam.l0 / math.sqrt(3.0) + 1e-12

    @given(u=st.floats(-1.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_gradient_bound(self, u):
        geom = interval_geometry(4.0)
        fam = LocalizationFamily(geom, 0.25)
        pts = np.array([u])
        assert abs(fam.scale_gradient(pts, geom.distance_fields(pts)[0])[0]) <= 0.5 + 1e-14

    def test_l0_validation(self):
        with pytest.raises(ValueError):
            LocalizationFamily(interval_geometry(4.0), 0.7)


class TestWeights:
    def test_support(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        u = [2.0]
        l = _scale(fam, u)
        assert _weight(fam, [2.0 + 1.01 * l], u) == 0.0
        assert _weight(fam, [2.0 + 0.5 * l], u) > 0.0

    def test_flat_region_reduces_to_profile(self):
        geom = interval_geometry(600.0)
        fam = LocalizationFamily(geom, 0.25)
        u = [300.0]
        l = _scale(fam, u)
        y = 0.4
        w = _weight(fam, [300.0 + y * l], u)
        assert w == pytest.approx(float(fam.profile_r2(y * y)[0]), rel=1e-3)

    @given(u=st.floats(-0.5, 4.5), y=st.floats(-0.99, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_jacobian_positive(self, u, y):
        geom = interval_geometry(4.0)
        fam = LocalizationFamily(geom, 0.25)
        pts = np.array([u])
        jac = 1.0 + fam.scale_gradient(pts, geom.distance_fields(pts)[0])[0] * y
        assert jac >= 0.5 - 1e-12

    def test_profile_normalized(self):
        for geom in (interval_geometry(4.0), disk_geometry(2.0)):
            fam = LocalizationFamily(geom, 0.25)
            if geom.dim == 1:
                ys = np.linspace(-1, 1, 20001)
                norm = trapezoid(fam.profile_r2(ys * ys) ** 2, ys)
            else:
                rs = np.linspace(0, 1, 20001)
                norm = 2 * math.pi * trapezoid(
                    rs * fam.profile_r2(rs * rs) ** 2, rs)
            assert norm == pytest.approx(1.0, rel=1e-6)


class TestPartition:
    def test_interior_interval(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        val = partition_check([2.0], fam, 8)
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_near_boundary_refines(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        val = partition_check([0.05], fam, 8)
        assert val == pytest.approx(1.0, abs=1e-2)

    def test_refinement_improves(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        pts = [0.3, 1.1, 2.7]
        err4 = max(abs(partition_check([x], fam, 4) - 1.0) for x in pts)
        err8 = max(abs(partition_check([x], fam, 8) - 1.0) for x in pts)
        assert err8 <= 0.6 * err4 + 1e-12

    def test_disk(self):
        fam = LocalizationFamily(disk_geometry(2.0), 0.25)
        for x in ((0.0, 0.0), (1.2, 0.6)):
            assert partition_check(x, fam, 12) == pytest.approx(1.0, abs=1e-3)

    def test_rectangle(self):
        fam = LocalizationFamily(rectangle_geometry(3.0, 2.0), 0.2)
        assert partition_check((1.5, 1.0), fam, 8) == pytest.approx(1.0, abs=1e-3)


# 2-D points deep inside, within 0.05 of an edge and within 0.05 of a corner
REACH_CASES = [
    (disk_geometry(2.0), 0.25, [(0.0, 0.0), (1.2, 0.6), (1.97, 0.0),
                                (1.96 * math.cos(2.3), 1.96 * math.sin(2.3))]),
    (rectangle_geometry(3.0, 2.0), 0.2, [(1.5, 1.0), (0.03, 1.1), (2.2, 1.98),
                                         (0.04, 0.02), (2.97, 1.96)]),
]


def _recorded_prunes(monkeypatch):
    """Patches cell_grid to record what its prune sees; returns the list
    of (centers, half, dropped) it fills, one entry per batch."""
    seen = []
    cell_grid = LocalizationFamily.cell_grid

    def recording(self, center, halfwidth, resolution, prune=None):
        def recorded(cs, half, ls, dists, boundary):
            drop = prune(cs, half, ls, dists, boundary)
            seen.append((cs, half, drop))
            return drop
        return cell_grid(self, center, halfwidth, resolution, prune=recorded)

    monkeypatch.setattr(LocalizationFamily, "cell_grid", recording)
    return seen


def _whole_grid(fam, center, halfwidth, resolution, prune=None):
    """All batches of ``cell_grid`` concatenated: (centers, areas, scales,
    distances, boundary)."""
    batches = fam.cell_grid(np.asarray(center, dtype=float), halfwidth, resolution, prune)
    return tuple(map(np.concatenate, zip(*batches)))


class TestReachPruning:
    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_matches_unpruned_grid(self, geom, l0, points):
        fam = LocalizationFamily(geom, l0)
        for x in points:
            # brute force: every cell of the +-0.75 box, exact zeros included
            centers, ws, ls, dists, boundary = _whole_grid(fam, x, 0.75, 12)
            whole_dists, whole_boundary = geom.distance_fields(centers)
            np.testing.assert_array_equal(ls, fam.scale(whole_dists))
            np.testing.assert_array_equal(dists, whole_dists)
            np.testing.assert_array_equal(boundary, whole_boundary)
            w = fam.weight(np.array(x), centers, ls, dists)
            full = float(np.sum(w * w / ls ** 2 * ws))
            assert partition_check(x, fam, 12) == pytest.approx(full, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_dropped_cells_carry_no_weight(self, geom, l0, points, monkeypatch):
        fam = LocalizationFamily(geom, l0)
        seen = _recorded_prunes(monkeypatch)
        rng = np.random.default_rng(11)
        for x in points:
            seen.clear()
            partition_check(x, fam, 12)
            cs = np.concatenate([c[drop] for c, _, drop in seen])
            hs = np.concatenate([np.full(np.count_nonzero(drop), h) for _, h, drop in seen])
            assert len(hs) > 100
            # random centers in each dropped cell, and the one nearest x
            us = cs[:, None, :] + hs[:, None, None] * rng.uniform(-1.0, 1.0, (len(hs), 8, 2))
            nearest = np.clip(x, cs - hs[:, None], cs + hs[:, None])[:, None, :]
            us = np.concatenate([us, nearest], axis=1)
            assert np.all(_weight(fam, np.array(x), us) == 0.0)


class TestStreamedGrid:
    def test_small_batches_give_the_same_cells(self, monkeypatch):
        fam = LocalizationFamily(disk_geometry(2.0), 0.1)
        centers, areas, *_ = _whole_grid(fam, (0.0, 0.0), 2.6, 2)
        monkeypatch.setattr(loc, "_CELL_BATCH", 7)
        batches = list(fam.cell_grid(np.zeros(2), 2.6, 2))
        assert max(len(a) for _, a, *_ in batches) <= 7
        small_c, small_a, small_l, *_ = map(np.concatenate, zip(*batches))
        assert len(small_a) == len(areas) > 10_000
        assert math.fsum(small_a) == math.fsum(areas)
        # the same cells, bit for bit, in another order
        order, small_order = np.lexsort(centers.T), np.lexsort(small_c.T)
        np.testing.assert_array_equal(small_c[small_order], centers[order])
        np.testing.assert_array_equal(small_l, _scale(fam, small_c))

    def test_small_batches_give_the_same_integrals(self, monkeypatch):
        args = (disk_geometry(2.0), (0.2, 0.1))
        ref = neighborhood_integrals(*args, resolution=4)
        monkeypatch.setattr(loc, "_CELL_BATCH", 7)
        rep = neighborhood_integrals(*args, resolution=4)
        for key in ("bulk_values", "collar_values"):
            np.testing.assert_allclose(rep[key], ref[key], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_partition_refines_level_by_level(self, geom, l0, points, monkeypatch):
        # partition_check's pruned frontier fits one batch, so each batch is
        # one whole level and the sum keeps its level-synchronous order
        fam = LocalizationFamily(geom, l0)
        seen = _recorded_prunes(monkeypatch)
        for x in points:
            seen.clear()
            partition_check(x, fam, 16)
            levels = [half for _, half, _ in seen]
            assert all(np.ndim(half) == 0 for half in levels)
            assert np.all(np.diff(levels) < 0)

    def test_memory_bounded(self):
        # the whole grid at l0 = 0.01 holds 662k cells (46 MiB when built at once)
        tracemalloc.start()
        try:
            neighborhood_integrals(disk_geometry(2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20


class TestComparability:
    def test_nearby_scales_commensurate(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.1)
        us = np.linspace(-0.5, 4.5, 201)[:, None]
        ups = np.linspace(us - 1.5, us + 1.5, 61, axis=1)
        lu = _scale(fam, us)[:, None]
        lup = _scale(fam, ups)
        near = np.abs(us - ups[..., 0]) <= 1.5 * (lu + lup)
        assert np.max(np.where(near, lup / lu, 0.0)) <= 4.0


GEOMETRIES = [interval_geometry(4.0), rectangle_geometry(3.0, 2.0), disk_geometry(2.0)]


class TestArrayForms:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=["interval", "rectangle", "disk"])
    def test_rows_match_single_points(self, geom):
        # one call over an (N, dim) array equals N calls on single points
        lo, hi = geom.interior_box()
        pts = np.random.default_rng(3).uniform(lo - 0.5, hi + 0.5, size=(50, geom.dim))
        fam = LocalizationFamily(geom, 0.25)
        fields = geom.distance_fields(pts)
        for field, single in zip(fields, zip(*map(geom.distance_fields, pts)), strict=True):
            np.testing.assert_array_equal(field, np.array(single))
        d = fields[0]
        ls = fam.scale(d)
        np.testing.assert_array_equal(ls, np.array([fam.scale(di) for di in d]))
        for fn in (geom.grad_distance, fam.scale_gradient):
            np.testing.assert_array_equal(fn(pts, d),
                                          np.array([fn(p, di) for p, di in zip(pts, d)]))
        grid = fam.weight(pts[:, None, :], pts[None, :, :], ls[None, :], d[None, :])
        assert grid.shape == (50, 50)
        for i in (0, 17):
            np.testing.assert_array_equal(grid[i], fam.weight(pts[i], pts, ls, d))
            np.testing.assert_array_equal(grid[:, i], fam.weight(pts, pts[i], ls[i], d[i]))

    def test_known_values(self):
        rect, disk = rectangle_geometry(3.0, 2.0), disk_geometry(2.0)
        pts = np.array([[1.5, 1.0], [0.5, 1.0], [1.5, 1.9], [4.0, 3.0]])
        d, boundary = rect.distance_fields(pts)
        np.testing.assert_allclose(d, [1.0, 0.5, 0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(boundary, [1.0, 0.5, 0.1, math.sqrt(2.0)], atol=1e-15)
        np.testing.assert_array_equal(rect.grad_distance(pts, d)[1:],
                                      [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        d, boundary = disk.distance_fields(pts)
        np.testing.assert_array_equal(d, [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(boundary, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(disk.grad_distance(pts, d),
                                      [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        line = interval_geometry(4.0)
        pts = np.array([[1.0], [3.0], [5.0]])
        np.testing.assert_array_equal(line.grad_distance(pts, line.distance_fields(pts)[0]),
                                      [[1.0], [-1.0], [0.0]])


class TestNeighborhoodIntegrals:
    def test_interval_scalings(self):
        rep = neighborhood_integrals(interval_geometry(4.0))
        assert abs(rep["bulk_exponent"] + 1.0) < 0.2
        assert abs(rep["collar_exponent"] - 1.0) < 0.2

    def test_halving_roughly_doubles_bulk(self):
        rep = neighborhood_integrals(interval_geometry(4.0))
        v = rep["bulk_values"]
        assert 1.5 < v[1] / v[0] < 2.5
        assert 1.5 < v[2] / v[1] < 2.5

    def test_disk_collar(self):
        rep = neighborhood_integrals(disk_geometry(2.0),
                                     l0_values=(0.08, 0.04, 0.02), resolution=8)
        assert abs(rep["collar_exponent"] - 1.0) < 0.25

    def test_empty_bulk_is_refused(self):
        # on an interval of length 0.01 every ball of the coarsest l0 meets
        # the boundary: the bulk integral is 0 and has no log
        with pytest.raises(ArithmeticError, match="bulk integral is 0.0 at l0 = 0.04"):
            neighborhood_integrals(interval_geometry(0.01))


def _reference_distance(geom, pts):
    """The distance to the complement as first written: the nearest face
    of a box, reduced over the coordinate axis, or the disk's clipped gap."""
    pts = np.asarray(pts, dtype=float)
    if geom.shape == "box":
        faces = np.minimum(pts, np.asarray(geom.parameters) - pts)
        return np.clip(np.min(faces, axis=-1), 0.0, None)
    return np.clip(geom.parameters[0] - np.hypot(pts[..., 0], pts[..., 1]), 0.0, None)


def _reference_boundary_distance(geom, pts):
    """The distance to the boundary as first written: clip to the box, then
    measure; inside, the distance to the complement."""
    pts = np.asarray(pts, dtype=float)
    if geom.shape == "box":
        offsets = np.abs(pts - np.clip(pts, 0.0, geom.parameters))
        outside = np.hypot.reduce(offsets, axis=-1)
        return np.where(outside > 0.0, outside, _reference_distance(geom, pts))
    return np.abs(geom.parameters[0] - np.hypot(pts[..., 0], pts[..., 1]))


def _reference_cells(fam, center, halfwidth, resolution, prune=None):
    """cell_grid as first written: a per-cell ``halves`` array, l from
    the distance of every cell and ``prune(centers, halves, scales)``;
    yields (centers, areas, scales) batches."""
    quarters = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    parents = loc._CELL_BATCH // 4
    centers = np.asarray(center, dtype=float)[None, :]
    halves = np.array([halfwidth])
    pending = []
    while True:
        scales = fam.scale(_reference_distance(fam.geometry, centers))
        if prune is not None:
            keep = ~prune(centers, halves, scales)
            centers, halves, scales = centers[keep], halves[keep], scales[keep]
        done = 2.0 * halves <= scales / resolution
        if done.any():
            yield centers[done], (2.0 * halves[done]) ** 2, scales[done]
        if not done.all():
            pending.append((centers[~done], halves[~done]))
        if not pending:
            return
        centers, halves = pending.pop()
        if halves.size > parents:
            pending.append((centers[parents:], halves[parents:]))
            centers, halves = centers[:parents], halves[:parents]
        q = 0.5 * halves
        centers = (centers[:, None, :]
                   + quarters[None, :, :] * q[:, None, None]).reshape(-1, 2)
        halves = np.repeat(q, 4)


def _reference_scale_grid(fam, resolution, lo=None, hi=None):
    """scale_grid as first written: each step of the march reads l at
    the array distance of a one-point list; the distances are evaluated
    again for the returned batch."""
    box_lo, box_hi = fam.geometry.interior_box()
    u = float(box_lo[0]) - 0.6 if lo is None else lo
    end = float(box_hi[0]) + 0.6 if hi is None else hi
    edges = [u]
    while u < end:
        u += 4.0 * float(fam.scale(_reference_distance(fam.geometry, [u]))) / resolution
        edges.append(u)
    us, ws = loc.panel_quad(np.array(edges), 6)
    centers = us[:, None]
    dists = _reference_distance(fam.geometry, centers)
    return (centers, ws, fam.scale(dists), dists,
            _reference_boundary_distance(fam.geometry, centers))


def _reference_integrals(fam, batches):
    """The bulk and collar sums of neighborhood_integrals, with both
    distances recomputed from the centers."""
    bulk = collar = 0.0
    for centers, ws, ls in batches:
        meets = _reference_boundary_distance(fam.geometry, centers) < ls
        interior = _reference_distance(fam.geometry, centers) > 0.0
        collar += float(np.sum(ls[meets] ** 0.0 * ws[meets]))
        keep = interior & ~meets
        bulk += float(np.sum(ls[keep] ** -2.0 * ws[keep]))
    return bulk, collar


L0_VALUES = (0.04, 0.02, 0.01)


class TestReferenceRefinement:
    """The grids against test-local copies of their first versions: the
    arithmetic is the same, so cells, weights and sums agree exactly."""

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=["interval", "rectangle", "disk"])
    def test_distance_fields(self, geom):
        lo, hi = geom.interior_box()
        rng = np.random.default_rng(5)
        pts = rng.uniform(lo - 0.7, hi + 0.7, size=(4000, geom.dim))
        # points on faces, edges and corners, where a face or gap is 0.0
        pts[:8] = np.where(rng.random((8, geom.dim)) < 0.5, lo, hi)
        pts[8:16, 0] = rng.choice([lo[0], hi[0]], 8)
        pts[16] = (geom.parameters[0], 0.0) if geom.shape == "disk" else lo
        dists, boundary = geom.distance_fields(pts)
        np.testing.assert_array_equal(dists, _reference_distance(geom, pts))
        np.testing.assert_array_equal(boundary, _reference_boundary_distance(geom, pts))

    @pytest.mark.parametrize("geom", GEOMETRIES[1:], ids=["rectangle", "disk"])
    def test_cells_and_integrals(self, geom):
        def far_exterior(cs, hs, ls):
            diag = hs * math.sqrt(2.0)
            exterior = _reference_distance(geom, cs) == 0.0
            no_collar = _reference_boundary_distance(geom, cs) > ls + 1.5 * diag
            return exterior & no_collar

        lo, hi = geom.interior_box()
        center, half = 0.5 * (lo + hi), 0.5 * float(np.max(hi - lo)) + 0.6
        sums = []
        for l0 in L0_VALUES:
            fam = LocalizationFamily(geom, l0)
            new = fam.cell_grid(center, half, 5, prune=lambda cs, h, ls, d, b:
                                far_exterior(cs, np.full(len(cs), h), ls))
            ref = list(_reference_cells(fam, center, half, 5, prune=far_exterior))
            for (c, a, ls, dists, boundary), (rc, ra, rls) in zip(new, ref, strict=True):
                np.testing.assert_array_equal(c, rc)
                np.testing.assert_array_equal(a, ra)
                np.testing.assert_array_equal(ls, rls)
                np.testing.assert_array_equal(dists, _reference_distance(geom, rc))
                np.testing.assert_array_equal(boundary, _reference_boundary_distance(geom, rc))
            sums.append(_reference_integrals(fam, ref))
        rep = neighborhood_integrals(geom, L0_VALUES)
        assert rep["bulk_values"] == tuple(b for b, _ in sums)
        assert rep["collar_values"] == tuple(c for _, c in sums)

    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_reach_pruned_cells(self, geom, l0, points):
        fam = LocalizationFamily(geom, l0)
        for x in points:
            def out_of_reach(cs, hs, ls):
                delta = hs * math.sqrt(2.0)
                dist = np.hypot(cs[:, 0] - x[0], cs[:, 1] - x[1])
                return dist - delta >= ls + 0.5 * delta

            ref = _reference_cells(fam, x, 0.75, 16, prune=out_of_reach)
            new = fam.cell_grid(x, 0.75, 16, prune=lambda cs, h, ls, d, b:
                                out_of_reach(cs, np.full(len(cs), h), ls))
            for got, want in zip(new, ref, strict=True):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)

    def test_interval(self):
        geom = interval_geometry(4.0)
        sums = []
        for l0 in L0_VALUES:
            fam = LocalizationFamily(geom, l0)
            for res in (10, 16):
                # the default range, one past each end of the box, one
                # crossing its right end and numpy-float bounds
                for lo, hi in ((None, None), (-3.0, -1.0), (4.3, 6.1), (3.5, 5.0),
                               (np.float64(0.1) - 0.75, np.float64(0.1) + 0.75)):
                    got = fam.scale_grid(res, lo, hi)
                    want = _reference_scale_grid(fam, res, lo, hi)
                    for g, w in zip(got, want, strict=True):
                        np.testing.assert_array_equal(g, w)
            centers, ws, ls, *_ = _reference_scale_grid(fam, 10)
            sums.append(_reference_integrals(fam, [(centers, ws, ls)]))
        rep = neighborhood_integrals(geom, L0_VALUES)
        assert rep["bulk_values"] == tuple(b for b, _ in sums)
        assert rep["collar_values"] == tuple(c for _, c in sums)


class TestResolutionValidation:
    """A resolution that cannot refine is refused before any work: below 1
    the 1-D march walks backwards or divides by zero and the 2-D cells
    never finish; neighborhood_integrals halves its resolution in 2-D."""

    @pytest.mark.parametrize("resolution", [0, -1, -8])
    def test_grids(self, resolution):
        line = LocalizationFamily(interval_geometry(4.0), 0.25)
        disk = LocalizationFamily(disk_geometry(2.0), 0.25)
        with pytest.raises(ValueError, match="resolution must be at least 1"):
            line.scale_grid(resolution)
        with pytest.raises(ValueError, match="resolution must be at least 1"):
            disk.cell_grid(np.zeros(2), 0.75, resolution)
        for fam, x in ((line, [2.0]), (disk, (0.5, 0.5))):
            with pytest.raises(ValueError, match="resolution must be at least 1"):
                partition_check(x, fam, resolution)

    @pytest.mark.parametrize("geom, resolution, least", [
        (interval_geometry(4.0), 0, 1), (interval_geometry(4.0), -1, 1),
        (disk_geometry(2.0), 1, 2), (disk_geometry(2.0), -1, 2),
        (rectangle_geometry(3.0, 2.0), 0, 2)])
    def test_neighborhood_integrals(self, geom, resolution, least):
        with pytest.raises(ValueError, match=f"resolution must be at least {least}, "):
            neighborhood_integrals(geom, resolution=resolution)

    def test_smallest_resolutions_run(self):
        line = LocalizationFamily(interval_geometry(4.0), 0.25)
        assert partition_check([2.0], line, 1) == pytest.approx(1.0, abs=0.1)
        rep = neighborhood_integrals(disk_geometry(2.0), (0.2, 0.1), resolution=2)
        assert all(v > 0 for v in rep["bulk_values"] + rep["collar_values"])
