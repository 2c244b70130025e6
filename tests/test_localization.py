import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from hypothesis import given, settings, strategies as st

from fracweyl.localization import (LocalizationFamily, interval_geometry,
                                   rectangle_geometry, disk_geometry,
                                   partition_check, neighborhood_integrals)


class TestScale:
    def test_boundary_value(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.5)
        assert fam.scale([0.0]) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_deep_interior_limit(self):
        fam = LocalizationFamily(interval_geometry(400.0), 0.1)
        assert fam.scale([200.0]) == pytest.approx(0.5, abs=1e-2)

    @given(u=st.floats(-1.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_two_sided_bounds(self, u):
        geom = interval_geometry(4.0)
        fam = LocalizationFamily(geom, 0.25)
        d = geom.distance([u])
        l = fam.scale([u])
        assert l >= max(min(d, 1.0) / 4.0, fam.l0 / 4.0) - 1e-12
        assert l <= 0.5
        if geom.boundary_distance([u]) < l:
            assert l <= fam.l0 / math.sqrt(3.0) + 1e-12

    @given(u=st.floats(-1.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_gradient_bound(self, u):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        assert abs(fam.scale_gradient([u])[0]) <= 0.5 + 1e-14

    def test_l0_validation(self):
        with pytest.raises(ValueError):
            LocalizationFamily(interval_geometry(4.0), 0.7)


class TestWeights:
    def test_support(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        u = [2.0]
        l = fam.scale(u)
        assert fam.weight([2.0 + 1.01 * l], u) == 0.0
        assert fam.weight([2.0 + 0.5 * l], u) > 0.0

    def test_flat_region_reduces_to_profile(self):
        geom = interval_geometry(600.0)
        fam = LocalizationFamily(geom, 0.25)
        u = [300.0]
        l = fam.scale(u)
        y = 0.4
        w = fam.weight([300.0 + y * l], u)
        assert w == pytest.approx(float(fam.profile_r2(y * y)[0]), rel=1e-3)

    @given(u=st.floats(-0.5, 4.5), y=st.floats(-0.99, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_jacobian_positive(self, u, y):
        fam = LocalizationFamily(interval_geometry(4.0), 0.25)
        jac = 1.0 + fam.scale_gradient([u])[0] * y
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
    """Patches cell_grid to record what its prune drops; returns the list
    of (centers, halves) it fills, one entry per refinement level."""
    dropped = []
    cell_grid = LocalizationFamily.cell_grid

    def recording(self, center, halfwidth, resolution, prune=None):
        def recorded(cs, hs):
            drop = prune(cs, hs)
            dropped.append((cs[drop], hs[drop]))
            return drop
        return cell_grid(self, center, halfwidth, resolution, prune=recorded)

    monkeypatch.setattr(LocalizationFamily, "cell_grid", recording)
    return dropped


class TestReachPruning:
    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_matches_unpruned_grid(self, geom, l0, points):
        fam = LocalizationFamily(geom, l0)
        for x in points:
            # brute force: every cell of the +-0.75 box, exact zeros included
            centers, ws = fam.cell_grid(np.array(x), 0.75, 12)
            w = fam.weight(np.array(x), centers)
            full = float(np.sum(w * w / fam.scale(centers) ** 2 * ws))
            assert partition_check(x, fam, 12) == pytest.approx(full, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("geom, l0, points", REACH_CASES, ids=["disk", "rectangle"])
    def test_dropped_cells_carry_no_weight(self, geom, l0, points, monkeypatch):
        fam = LocalizationFamily(geom, l0)
        dropped = _recorded_prunes(monkeypatch)
        rng = np.random.default_rng(11)
        for x in points:
            dropped.clear()
            partition_check(x, fam, 12)
            cs = np.concatenate([c for c, _ in dropped])
            hs = np.concatenate([h for _, h in dropped])
            assert len(hs) > 100
            # random centers in each dropped cell, and the one nearest x
            us = cs[:, None, :] + hs[:, None, None] * rng.uniform(-1.0, 1.0, (len(hs), 8, 2))
            nearest = np.clip(x, cs - hs[:, None], cs + hs[:, None])[:, None, :]
            us = np.concatenate([us, nearest], axis=1)
            assert np.all(fam.weight(np.array(x), us) == 0.0)


class TestComparability:
    def test_nearby_scales_commensurate(self):
        fam = LocalizationFamily(interval_geometry(4.0), 0.1)
        us = np.linspace(-0.5, 4.5, 201)[:, None]
        ups = np.linspace(us - 1.5, us + 1.5, 61, axis=1)
        lu = fam.scale(us)[:, None]
        lup = fam.scale(ups)
        near = np.abs(us - ups[..., 0]) <= 1.5 * (lu + lup)
        assert np.max(np.where(near, lup / lu, 0.0)) <= 4.0


GEOMETRIES = [interval_geometry(4.0), rectangle_geometry(3.0, 2.0), disk_geometry(2.0)]


class TestArrayForms:
    @pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: g.shape)
    def test_rows_match_single_points(self, geom):
        # one call over an (N, dim) array equals N calls on single points
        lo, hi = geom.interior_box()
        pts = np.random.default_rng(3).uniform(lo - 0.5, hi + 0.5, size=(50, geom.dim))
        fam = LocalizationFamily(geom, 0.25)
        for fn in (geom.distance, geom.boundary_distance, geom.grad_distance,
                   fam.scale, fam.scale_gradient):
            np.testing.assert_array_equal(fn(pts), np.array([fn(p) for p in pts]))
        grid = fam.weight(pts[:, None, :], pts[None, :, :])
        assert grid.shape == (50, 50)
        for i in (0, 17):
            np.testing.assert_array_equal(grid[i], fam.weight(pts[i], pts))
            np.testing.assert_array_equal(grid[:, i], fam.weight(pts, pts[i]))

    def test_known_values(self):
        rect, disk = rectangle_geometry(3.0, 2.0), disk_geometry(2.0)
        pts = np.array([[1.5, 1.0], [0.5, 1.0], [1.5, 1.9], [4.0, 3.0]])
        np.testing.assert_allclose(rect.distance(pts), [1.0, 0.5, 0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(rect.boundary_distance(pts),
                                   [1.0, 0.5, 0.1, math.sqrt(2.0)], atol=1e-15)
        np.testing.assert_array_equal(rect.grad_distance(pts)[1:],
                                      [[1.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]])
        np.testing.assert_array_equal(disk.distance(pts), [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(disk.boundary_distance(pts), [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(disk.grad_distance(pts),
                                      [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        line = interval_geometry(4.0)
        np.testing.assert_array_equal(line.grad_distance([[1.0], [3.0], [5.0]]),
                                      [[1.0], [-1.0], [0.0]])


class TestNeighborhoodIntegrals:
    def test_interval_scalings(self):
        rep = neighborhood_integrals(interval_geometry(4.0))
        assert abs(rep["bulk_exponent"] + 1.0) < 0.2
        assert abs(rep["collar_exponent"] - 1.0) < 0.2

    def test_first_moment_scaling(self):
        rep = neighborhood_integrals(interval_geometry(4.0), a_exponent=1.0)
        assert abs(rep["collar_exponent"] - 2.0) < 0.2

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
