import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracweyl.lattice as lat
from fracweyl.lattice import (LatticeDomain, MarginError, interval_domain,
                              rectangle_domain, square_domain,
                              build_restricted_fractional, build_dirichlet_power,
                              eigenvalues_sym, riesz_mean, two_term_fit,
                              berezin_bound_check, coherent_state_identity_check,
                              operator_order_check, ims_defect_check,
                              SymmetricOperator, SpectrumResult)
from fracweyl.localization import LocalizationFamily, interval_geometry


class TestDomains:
    def test_margin_enforced(self):
        with pytest.raises(MarginError):
            LatticeDomain(cells=(26,), spacing=0.1, box_points=30)

    def test_estimates(self):
        dom = rectangle_domain(6, 4, 0.5)
        assert dom.volume == pytest.approx(6 * 4 * 0.25)
        assert dom.surface == pytest.approx((2 * (6 + 4)) * 0.5)

    def test_ideal_square(self):
        dom = square_domain(16)
        assert dom.volume == pytest.approx(1.0)
        assert dom.surface == pytest.approx(4.0)


class TestOperators:
    def test_local_reduction(self):
        dom = interval_domain(24)
        frac = build_restricted_fractional(dom, 1.0).entries
        stencil = build_dirichlet_power(dom, 1.0).entries
        assert np.max(np.abs(frac - stencil)) < 1e-10

    def test_symmetry_and_psd(self):
        for dom, s in itertools.product(
                (interval_domain(20), rectangle_domain(7, 5, 0.1)), (0.3, 0.7)):
            op = build_restricted_fractional(dom, s)
            assert np.array_equal(op.entries, op.entries.T)
            # per-pair reference: kern at the box offset of every site pair
            kern = lat._multiplier_kernel(dom, s)
            idx = dom.indices()
            offs = (idx[:, None, :] - idx[None, :, :]) % dom.box_points
            assert np.array_equal(op.entries, kern[tuple(np.moveaxis(offs, -1, 0))])
            w = np.linalg.eigvalsh(op.entries)
            assert w[0] >= -1e-10 * abs(w[-1])

    def test_dirichlet_power_roundtrip(self):
        dom = interval_domain(12)
        a = build_dirichlet_power(dom, 1.0).entries
        w, v = np.linalg.eigh(a)
        rebuilt = (v * w) @ v.T
        assert np.max(np.abs(rebuilt - a)) < 1e-10

    def test_power_spectrum_is_powered(self):
        dom = interval_domain(10)
        base = eigenvalues_sym(build_dirichlet_power(dom, 1.0)).eigenvalues
        powered = eigenvalues_sym(build_dirichlet_power(dom, 0.5)).eigenvalues
        assert np.allclose(powered, base ** 0.5, rtol=1e-10)

    def test_tridiagonal_closed_form(self):
        m, dx = 5, 0.2
        dom = interval_domain(m)
        assert dom.spacing == dx

        def sines(c):
            j = np.arange(1, c + 1)
            return (2.0 - 2.0 * np.cos(j * math.pi / (c + 1))) / dx ** 2

        spec = eigenvalues_sym(build_dirichlet_power(dom, 1.0))
        assert np.allclose(spec.eigenvalues, np.sort(sines(m)), rtol=1e-12)
        # the 2-D stencil is a Kronecker sum: its spectrum is all pair sums
        spec = eigenvalues_sym(build_dirichlet_power(rectangle_domain(4, 3, dx), 1.0))
        exact = np.sort((sines(4)[:, None] + sines(3)[None, :]).ravel())
        assert np.allclose(spec.eigenvalues, exact, rtol=1e-12)

    def test_mask_monotonicity(self):
        # enlarging the block cannot raise any of the first eigenvalues
        small = interval_domain(20)
        big = LatticeDomain(cells=(21,), spacing=small.spacing,
                            box_points=small.box_points)
        assert set(small.indices()[:, 0]) < set(big.indices()[:, 0])
        w_small = eigenvalues_sym(build_restricted_fractional(small, 0.5)).eigenvalues
        w_big = eigenvalues_sym(build_restricted_fractional(big, 0.5)).eigenvalues
        assert np.all(w_big[:w_small.size] <= w_small + 1e-10)

    def test_build_memory(self):
        # the gather allocates the matrix, not n x n index tables, and the
        # exact symmetry check of SymmetricOperator only an n x n bool mask
        dom = square_domain(32)
        tracemalloc.start()
        try:
            build_restricted_fractional(dom, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * dom.size ** 2 * 8

    def test_one_ulp_asymmetry_rejected(self):
        a = build_restricted_fractional(interval_domain(8), 0.5).entries.copy()
        SymmetricOperator(8, a)
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        with pytest.raises(ValueError):
            SymmetricOperator(8, a)

    def test_dense_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(lat, "DENSE_LIMIT", 3)
        op = SymmetricOperator(4, np.eye(4))
        with pytest.raises(ValueError):
            eigenvalues_sym(op)

    def test_perturbed_spectrum_rejected(self, monkeypatch):
        # a spectrum off by 1e-6 of the norm breaks the trace invariant
        op = build_restricted_fractional(interval_domain(16), 0.5)
        exact = np.linalg.eigvalsh

        def perturbed(a):
            w = exact(a)
            w[-1] += 1e-6 * abs(w[-1])
            return w

        spec = eigenvalues_sym(op)
        assert spec.invariant_defect < 1e-12 * spec.eigenvalues[-1]
        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(ArithmeticError):
            eigenvalues_sym(op)

    def test_trivial_spectra(self):
        op = SymmetricOperator(2, np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigenvalues_sym(op).eigenvalues, [1.0, 3.0])
        eye = SymmetricOperator(3, np.eye(3))
        assert np.allclose(eigenvalues_sym(eye).eigenvalues, 1.0)


class TestRieszMean:
    @pytest.fixture(scope="class")
    @staticmethod
    def spectrum():
        return eigenvalues_sym(build_restricted_fractional(interval_domain(32), 0.5))

    def test_vanishes_for_large_h(self, spectrum):
        h_big = (1.0 / spectrum.eigenvalues[0]) ** (1.0 / (2 * 0.5)) * 1.01
        assert riesz_mean(spectrum, h_big, 0.5) == 0.0

    def test_counts_for_small_h(self, spectrum):
        assert riesz_mean(spectrum, 1e-9, 0.5) == pytest.approx(
            spectrum.eigenvalues.size, rel=1e-4)

    @given(h=st.floats(0.01, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing(self, spectrum, h):
        assert riesz_mean(spectrum, h, 0.5) >= riesz_mean(spectrum, h * 1.07, 0.5)


class TestTwoTermFit:
    def test_exact_model_recovery(self):
        hs = np.geomspace(0.02, 0.3, 8)
        fit = two_term_fit([(h, 2.0 * h ** -2 - 0.3 * h ** -1) for h in hs], 2)
        assert fit.c0 == pytest.approx(2.0, abs=1e-10)
        assert fit.c1 == pytest.approx(-0.3, abs=1e-10)
        assert fit.rms_residual < 1e-10

    def test_noise_sensitivity(self):
        hs = np.geomspace(0.02, 0.3, 10)
        eps = 1e-3
        fit = two_term_fit([(h, h ** -2 - 0.3 * h ** -1 + eps) for h in hs], 2)
        # an o(h^(-d+1)) perturbation moves c1 by O(eps * h_max)-scale
        assert abs(fit.c1 + 0.3) < 20.0 * eps

    def test_preconditions(self):
        with pytest.raises(ValueError):
            two_term_fit([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)], 2)
        with pytest.raises(ValueError):
            two_term_fit([(h, 1.0) for h in (0.1, 0.12, 0.15, 0.2)], 2)


class TestBerezinBound:
    def test_zero_weight(self):
        dom = interval_domain(16)
        rep = berezin_bound_check(dom, 0.5, np.zeros(16), 0.1)
        assert rep.passed and rep.quantities["lhs"] <= rep.quantities["rhs"]

    def test_flat_weight_and_saturation(self):
        dom = interval_domain(64)
        r1 = berezin_bound_check(dom, 0.5, np.ones(64), 0.1)
        r2 = berezin_bound_check(dom, 0.5, np.ones(64), 0.05)
        assert r1.passed and r2.passed
        rel_slack_1 = r1.quantities["slack"] / r1.quantities["rhs"]
        rel_slack_2 = r2.quantities["slack"] / r2.quantities["rhs"]
        assert rel_slack_2 < rel_slack_1

    @pytest.mark.parametrize("m", [16, 64, 128])
    @pytest.mark.parametrize("weight", ["flat", "sine"])
    def test_lhs_matches_shifted_reference(self, m, weight):
        # reference: the weighted shifted Hamiltonian phi (h^2s A - I) phi
        # as a second dense matrix, symmetrized
        dom, s, h = interval_domain(m), 0.5, 0.1
        x = dom.coordinates()[:, 0]
        phi = np.ones(m) if weight == "flat" else np.sin(math.pi * x)
        a = build_restricted_fractional(dom, s).entries
        ref = phi[:, None] * (h ** (2.0 * s) * a - np.eye(m)) * phi[None, :]
        w = np.linalg.eigvalsh(0.5 * (ref + ref.T))
        expected = float(-w[w < 0].sum())
        assert expected > 0.0
        lhs = berezin_bound_check(dom, s, phi, h).quantities["lhs"]
        assert lhs == pytest.approx(expected, rel=1e-12)


class TestCoherentState:
    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        dom = rectangle_domain(20, 20, 0.05)
        box = dom.box_points
        x = (np.arange(box) + 0.5) * dom.spacing
        cx = x[box // 2]
        X, Y = np.meshgrid(x, x, indexing="ij")
        phi = np.exp(-((X - cx) ** 2 + (Y - cx) ** 2) / (2.0 * 0.15 ** 2))
        return dom, phi

    def test_identity_is_exact(self, setup):
        dom, phi = setup
        rep = coherent_state_identity_check(0.5, 0.1, (1.0, 0.0), dom, phi)
        assert rep.passed
        assert rep.quantities["rel_gap"] < 1e-10

    def test_degenerate_at_zero_momentum(self, setup):
        dom, phi = setup
        rep = coherent_state_identity_check(0.5, 0.1, (0.0, 0.0), dom, phi)
        assert rep.quantities["rel_gap"] < 1e-10
        assert rep.quantities["first_term"] == 0.0

    def test_homogeneity_of_leading_term(self, setup):
        dom, phi = setup
        r1 = coherent_state_identity_check(0.5, 0.1, (1.0, 0.0), dom, phi)
        r2 = coherent_state_identity_check(0.5, 0.1, (2.0, 0.0), dom, phi)
        ratio = r2.quantities["first_term"] / r1.quantities["first_term"]
        # discrete symbol: homogeneity holds up to the chord/arc deficit
        assert ratio == pytest.approx(2.0 ** (2 * 0.5), rel=0.05)


class TestOperatorOrder:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_interval(self, s):
        rep = operator_order_check(interval_domain(48), s)
        assert rep.passed
        assert rep.quantities["max_eig"] > 0

    def test_square(self):
        rep = operator_order_check(rectangle_domain(12, 12, 1.0 / 12), 0.5)
        assert rep.passed

    def test_local_case_near_zero(self):
        rep = operator_order_check(interval_domain(32), 1.0)
        norm = rep.quantities["norm"]
        assert rep.quantities["min_eig"] >= -1e-12 * max(norm, 1.0)
        # locality: the two constructions agree up to wrap-around
        assert norm < 1e-9


class TestHalfspaceKernel:
    def test_solve_memory(self, model_half):
        # the eigensolve runs in the operator's own buffer: besides A only
        # the eigenvector workspace is n x n, no shifted copy or identity
        n = 64 * 64
        tracemalloc.start()
        try:
            lat.halfspace_kernel_check(0.5, 0.5, model=model_half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n ** 2 * 8


class TestImsDefect:
    def test_constant_family_degenerates(self):
        # a single constant weight has zero localization kernel
        dom = interval_domain(24)

        class Flat:
            def scale_grid(self, resolution):
                return np.array([0.5]), np.array([1.0]), np.array([1.0])

            def weight(self, xs, us):
                return np.ones(len(xs))

        rep = ims_defect_check(dom, 0.5, Flat(), resolution=1)
        assert rep.quantities["defect"] == 0.0
        assert rep.quantities["rel_gap"] < 1e-12

    def test_standard_family_and_refinement(self):
        dom = interval_domain(40)
        fam = LocalizationFamily(interval_geometry(1.0), 0.25)
        coarse = ims_defect_check(dom, 0.5, fam, resolution=2)
        fine = ims_defect_check(dom, 0.5, fam, resolution=4)
        assert fine.passed
        assert fine.quantities["rel_gap"] < 0.05
        assert fine.quantities["rel_gap"] <= 0.75 * coarse.quantities["rel_gap"] + 1e-9
        # the defect term is genuinely exercised
        assert fine.quantities["defect"] > 0.01 * abs(fine.quantities["lhs"])
