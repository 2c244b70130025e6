import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import fracweyl.lattice as lat
from fracweyl.lattice import (LatticeDomain, interval_domain, square_domain,
                              build_restricted_fractional, build_dirichlet_power,
                              eigenvalues_sym, lowest_spectrum, riesz_mean,
                              two_term_fit,
                              berezin_bound_check, operator_order_check,
                              SymmetricOperator)


def _box_kernel(dom, s):
    """Reference kernel of P M_s P on the periodic box of 3 * max(cells)
    sites per axis: the inverse FFT of sigma^s, made even."""
    box = 3 * max(dom.cells)
    sig = (2.0 - 2.0 * np.cos(2.0 * math.pi * np.arange(box) / box)) / dom.spacing ** 2
    kern = np.fft.ifftn(functools.reduce(np.add.outer, [sig] * dom.dim) ** s).real
    return 0.5 * (kern + np.roll(np.flip(kern), 1, axis=tuple(range(dom.dim))))


class TestDomains:
    def test_estimates(self):
        dom = LatticeDomain((6, 4), 0.5)
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
                (interval_domain(20), LatticeDomain((7, 5), 0.1)), (0.3, 0.7)):
            op = build_restricted_fractional(dom, s)
            assert np.array_equal(op.entries, op.entries.T)
            # per-pair reference: the box kernel at every site pair's offset
            kern = _box_kernel(dom, s)
            idx = np.array(list(np.ndindex(*dom.cells)))
            offs = (idx[:, None, :] - idx[None, :, :]) % kern.shape[0]
            assert np.array_equal(op.entries, kern[tuple(np.moveaxis(offs, -1, 0))])
            w = np.linalg.eigvalsh(op.entries)
            assert w[0] >= -1e-10 * abs(w[-1])

    def test_dirichlet_power_roundtrip(self):
        dom = interval_domain(12)
        a = build_dirichlet_power(dom, 1.0).entries
        w, v = np.linalg.eigh(a)
        rebuilt = (v * w) @ v.T
        assert np.max(np.abs(rebuilt - a)) < 1e-10

    @pytest.mark.parametrize("s", [0.3, 0.7])
    @pytest.mark.parametrize("dom", [interval_domain(256), LatticeDomain((7, 5), 0.1)],
                             ids=["interval256", "rect7x5"])
    def test_dirichlet_power_matches_eigh(self, dom, s):
        # reference: the power through a numerical eigendecomposition of the
        # stencil; at 256 cells an unreduced sine argument misses 1e-14
        w, v = np.linalg.eigh(build_dirichlet_power(dom, 1.0).entries)
        ref = (v * w ** s) @ v.T
        a = build_dirichlet_power(dom, s).entries
        assert np.max(np.abs(a - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dom", [interval_domain(33), LatticeDomain((7, 5), 0.1),
                                     square_domain(12)],
                             ids=["interval33", "rect7x5", "square12"])
    def test_dirichlet_power_matches_kronecker(self, dom, s):
        # reference: the dense tensor-product sine basis, (V w^s) V^T
        ws, vs = zip(*(lat._sine_basis(c) for c in dom.cells))
        w = functools.reduce(np.add.outer, ws).ravel()
        v = functools.reduce(np.kron, vs)
        ref = (v * (w / dom.spacing ** 2) ** s) @ v.T
        a = build_dirichlet_power(dom, s).entries
        assert np.array_equal(a, a.T)
        assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

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
        spec = eigenvalues_sym(build_dirichlet_power(LatticeDomain((4, 3), dx), 1.0))
        exact = np.sort((sines(4)[:, None] + sines(3)[None, :]).ravel())
        assert np.allclose(spec.eigenvalues, exact, rtol=1e-12)

    def test_mask_monotonicity(self):
        # enlarging the block cannot raise any of the first eigenvalues,
        # each block in the box derived from its own size
        small = interval_domain(20)
        big = LatticeDomain((21,), small.spacing)
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
        assert SymmetricOperator(a).n == 8
        a[0, 1] = np.nextafter(a[0, 1], np.inf)
        with pytest.raises(ValueError):
            SymmetricOperator(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SymmetricOperator(np.zeros((3, 4)))

    @pytest.mark.parametrize("s", [0.3, 0.7, 1.0])
    @pytest.mark.parametrize("dom", [interval_domain(33), LatticeDomain((7, 5), 0.1),
                                     square_domain(12)],
                             ids=["interval33", "rect7x5", "square12"])
    def test_kernel_on_the_offset_circle(self, dom, s):
        # entry n of the circle holds the box kernel at offset n mod 2c
        kern = _box_kernel(dom, s)
        ref = kern[np.ix_(*(np.r_[0:c, -c:0] % kern.shape[0] for c in dom.cells))]
        circle = lat._multiplier_kernel(dom, s)
        assert circle.shape == tuple(2 * c for c in dom.cells)
        assert np.array_equal(circle, ref)
        # exactly even on the offsets -(c-1)..c-1 the block reads; -c is
        # never read and even only up to rounding in 2-D
        read = [np.r_[0:c, c + 1:2 * c] for c in dom.cells]
        assert np.array_equal(circle[np.ix_(*read)],
                              circle[np.ix_(*(-r % (2 * c) for r, c in zip(read, dom.cells)))])

    def test_dense_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(lat, "DENSE_LIMIT", 3)
        op = SymmetricOperator(np.eye(4))
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
        assert spec.defect < 1e-12 * spec.eigenvalues[-1]
        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(ArithmeticError):
            eigenvalues_sym(op)

    def test_checks_share_the_checked_spectrum(self, monkeypatch):
        # the order and trace-bound checks go through eigenvalues_sym, so a
        # spectrum off by 1e-6 of the norm fails them instead of reporting
        exact = np.linalg.eigvalsh

        def perturbed(a):
            w = exact(a)
            w[-1] += 1e-6 * max(abs(w[0]), abs(w[-1]))
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        dom = interval_domain(16)
        with pytest.raises(ArithmeticError):
            operator_order_check(dom, 0.5)
        with pytest.raises(ArithmeticError):
            berezin_bound_check(dom, 0.5, np.ones(16), 0.1)

    def test_trivial_spectra(self):
        op = SymmetricOperator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigenvalues_sym(op).eigenvalues, [1.0, 3.0])
        eye = SymmetricOperator(np.eye(3))
        assert np.allclose(eigenvalues_sym(eye).eigenvalues, 1.0)


def _tamper_first_solve(monkeypatch, tamper):
    """Patch eigsh so that its first call returns ``tamper(w, v)``."""
    exact = scipy.sparse.linalg.eigsh
    calls = []

    def patched(*args, **kwargs):
        out = exact(*args, **kwargs)
        calls.append(kwargs.get("k"))
        return tamper(*out) if len(calls) == 1 else out

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", patched)
    return calls


def _withhold_second(w, v):
    drop = np.argsort(w)[1]
    return np.delete(w, drop), np.delete(v, drop, axis=1)


class TestLowestSpectrum:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dom", [square_domain(16), square_domain(32),
                                     square_domain(64), interval_domain(256),
                                     LatticeDomain((7, 5), 0.1)],
                             ids=["square16", "square32", "square64", "interval256",
                                  "rect7x5"])
    def test_matches_dense(self, dom, s):
        # cut in the widest gap among the 16th to 24th eigenvalues
        w = np.linalg.eigvalsh(build_restricted_fractional(dom, s).entries)
        i = 15 + int(np.argmax(np.diff(w[15:25])))
        cut = 0.5 * (w[i] + w[i + 1])
        spec = lowest_spectrum(dom, s, cut)
        assert spec.cut == cut
        assert spec.eigenvalues.size == i + 1
        np.testing.assert_allclose(spec.eigenvalues, w[:i + 1], rtol=1e-10)

    def test_doubles_past_the_first_block(self, monkeypatch):
        # 60 eigenvalues below the cut: 24 -> 48 -> 96 eigenpairs
        dom, s = interval_domain(256), 0.5
        w = np.linalg.eigvalsh(build_restricted_fractional(dom, s).entries)
        calls = _tamper_first_solve(monkeypatch, lambda *out: out)
        spec = lowest_spectrum(dom, s, 0.5 * (w[59] + w[60]))
        assert calls == [24, 48, 96, 2]
        np.testing.assert_allclose(spec.eigenvalues, w[:60], rtol=1e-10)

    def test_deterministic(self):
        dom, s = square_domain(32), 0.5
        first, v1 = lowest_spectrum(dom, s, 8.1, vectors=True)
        second, v2 = lowest_spectrum(dom, s, 8.1, vectors=True)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(v1, v2)
        assert np.allclose(v1.T @ v1, np.eye(first.eigenvalues.size), atol=1e-12)

    def test_withheld_eigenpair_rejected(self, monkeypatch):
        # the second eigenvalue on the square is half of a degenerate pair;
        # withholding it leaves the first solve's largest above the cut
        _tamper_first_solve(monkeypatch, _withhold_second)
        with pytest.raises(ArithmeticError):
            lowest_spectrum(square_domain(32), 0.5, 8.1)

    def test_shifted_eigenvalue_rejected(self, monkeypatch):
        def shifted(w, v):
            w = w.copy()
            w[np.argmin(w)] *= 1.0 + 1e-6
            return w, v

        _tamper_first_solve(monkeypatch, shifted)
        with pytest.raises(ArithmeticError):
            lowest_spectrum(square_domain(32), 0.5, 8.1)


class TestBlockOperator:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dom", [interval_domain(256), LatticeDomain((7, 5), 0.1),
                                     square_domain(32)],
                             ids=["interval256", "rect7x5", "square32"])
    def test_matches_dense(self, dom, s):
        # identity columns one at a time and as one (n, n) block reproduce
        # the gathered matrix, and an (n, k) block its product
        a = build_restricted_fractional(dom, s).entries
        apply, _ = lat._block_operator(dom, s)
        tol = 1e-13 * np.max(np.abs(a))
        eye = np.eye(dom.size)
        for j in (0, dom.size // 2, dom.size - 1):
            assert np.max(np.abs(apply(eye[:, j]) - a[:, j])) < tol
        assert np.max(np.abs(apply(eye) - a)) < tol
        x = np.random.default_rng(3).standard_normal((dom.size, 5))
        assert np.max(np.abs(apply(x) - a @ x)) < tol * np.max(np.sum(np.abs(x), axis=0))

    def test_transforms_twice_the_block(self, monkeypatch):
        # the 64^2 block convolves on a 128^2 grid, not the 192^2 box
        exact = scipy.fft.rfftn
        shapes = []

        def recording(x, s=None, axes=None, **kwargs):
            shape = np.shape(x)
            shapes.append(tuple(s) if s is not None else
                          tuple(shape[a] for a in (axes or range(len(shape)))))
            return exact(x, s=s, axes=axes, **kwargs)

        monkeypatch.setattr(scipy.fft, "rfftn", recording)
        dom = square_domain(64)
        apply, _ = lat._block_operator(dom, 0.5)
        apply(np.ones(dom.size))
        assert shapes and set(shapes) == {(128, 128)}


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

    def test_refuses_h_beyond_the_cut(self):
        s, h = 0.5, 0.125
        spec = lowest_spectrum(square_domain(32), s, h ** (-2.0 * s))
        assert riesz_mean(spec, h, s) > 0.0
        with pytest.raises(ValueError):
            riesz_mean(spec, 0.99 * h, s)


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


class TestOperatorOrder:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_interval(self, s):
        rep = operator_order_check(interval_domain(48), s)
        assert rep.passed
        assert rep.quantities["max_eig"] > 0

    def test_square(self):
        rep = operator_order_check(LatticeDomain((12, 12), 1.0 / 12), 0.5)
        assert rep.passed

    def test_local_case_near_zero(self):
        rep = operator_order_check(interval_domain(32), 1.0)
        norm = rep.quantities["norm"]
        assert rep.quantities["min_eig"] >= -1e-12 * max(norm, 1.0)
        # locality: the two constructions agree up to wrap-around
        assert norm < 1e-9


class TestHalfspaceKernel:
    def test_solve_memory(self, model_half):
        # the matrix-free solve holds a few dozen block vectors, no n x n array
        n = 64 * 64
        tracemalloc.start()
        try:
            lat.halfspace_kernel_check(0.5, 0.5, model=model_half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n ** 2 * 8

    def test_withheld_eigenpair_rejected(self, model_half, monkeypatch):
        # an eigenpair below h^-2s missing from the solve would drop out of
        # the negative part: the completeness check refuses the spectrum
        _tamper_first_solve(monkeypatch, _withhold_second)
        with pytest.raises(ArithmeticError):
            lat.halfspace_kernel_check(0.5, 0.5, model=model_half)
