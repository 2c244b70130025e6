import ctypes
import functools
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.cython_blas
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import fracweyl.lattice as lat
from fracweyl import constants as consts
from fracweyl.halfline import FractionalOrder
from fracweyl.lattice import (LatticeDomain, interval_domain, square_domain,
                              build_restricted_fractional, build_dirichlet_power,
                              eigenvalues_sym, lowest_spectrum, riesz_mean,
                              two_term_fit, operator_order_check,
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


ORDER_DOMAINS = [interval_domain(32), interval_domain(256), square_domain(20), square_domain(40)]


class TestOperators:
    def test_local_reduction(self):
        # at s = 1 the multiplier is the Dirichlet stencil up to wrap-around
        for dom in ORDER_DOMAINS:
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
        # the order check goes through eigenvalues_sym, so a spectrum off
        # by 1e-6 of the norm fails it instead of reporting
        exact = np.linalg.eigvalsh

        def perturbed(a):
            w = exact(a)
            w[-1] += 1e-6 * max(abs(w[0]), abs(w[-1]))
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        dom = interval_domain(16)
        with pytest.raises(ArithmeticError):
            operator_order_check(dom, 0.5)

    @pytest.mark.parametrize("block", range(4))
    def test_order_check_checks_every_parity_block(self, block, monkeypatch):
        # the order check solves one parity block per eigvalsh call: a
        # spectrum off by 1e-6 of the norm in any one of them fails it
        exact = np.linalg.eigvalsh
        calls = []

        def perturbed(a):
            w = exact(a)
            if len(calls) == block:
                w[-1] += 1e-6 * max(abs(w[0]), abs(w[-1]))
            calls.append(a.shape[0])
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(ArithmeticError):
            operator_order_check(LatticeDomain((5, 7), 0.1), 0.5)
        assert len(calls) == block + 1

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


def _withholding(rank):
    """Tamper that drops the eigenpair of the given rank."""
    def tamper(w, v):
        drop = np.argsort(w)[rank]
        return np.delete(w, drop), np.delete(v, drop, axis=1)

    return tamper


LOWEST_ORDERS = [0.25, 0.5, 0.75]
LOWEST_DOMAINS = [square_domain(16), square_domain(32), square_domain(64), interval_domain(256),
                  LatticeDomain((7, 5), 0.1), square_domain(9), LatticeDomain((8, 5), 0.1),
                  LatticeDomain((31, 20), 0.05)]
LOWEST_IDS = ["square16", "square32", "square64", "interval256",
              "rect7x5", "square9", "rect8x5", "rect31x20"]


@functools.lru_cache(maxsize=None)
def _dense_blocks(dom, s):
    """Each nonempty parity block's halves and dense eigenvalues, solved
    once per domain and order for the tests that share them."""
    circle = lat._multiplier_kernel(dom, s)
    return [(halves, np.linalg.eigvalsh(lat._parity_block(circle, halves)))
            for halves in itertools.product(*lat._parity_halves(dom))
            if all(h.sites.size for h in halves)]


def _dense_spectrum(dom, s):
    """The whole spectrum, as the union of the dense block spectra, and a
    cut in its widest gap among the 16th to 24th eigenvalues."""
    w = np.sort(np.concatenate([dense for _, dense in _dense_blocks(dom, s)]))
    assert w.size == dom.size
    i = 15 + int(np.argmax(np.diff(w[15:25])))
    return w, 0.5 * (w[i] + w[i + 1])


class TestLowestSpectrum:
    @pytest.mark.parametrize("s", LOWEST_ORDERS)
    @pytest.mark.parametrize("dom", LOWEST_DOMAINS, ids=LOWEST_IDS)
    def test_matches_dense(self, dom, s):
        w, cut = _dense_spectrum(dom, s)
        spec = lowest_spectrum(dom, s, cut)
        assert spec.cut == cut
        below = w[w <= cut]
        assert spec.eigenvalues.size == below.size
        np.testing.assert_allclose(spec.eigenvalues, below, rtol=1e-10)

    @pytest.mark.parametrize("cells", [(1,), (2,), (3,), (1, 1), (2, 1), (3, 2), (2, 2), (3, 3)])
    def test_tiny_domains(self, cells):
        # 1- and 2-site parity blocks, and the empty odd block of a 1-cell
        # axis, solve below and above the whole spectrum
        dom = LatticeDomain(cells, 0.25)
        w = np.linalg.eigvalsh(build_restricted_fractional(dom, 0.5).entries)
        for cut in (0.5 * w[0], 0.5 * (w[0] + w[-1]), 2.0 * w[-1]):
            spec, v = lowest_spectrum(dom, 0.5, cut, vectors=True)
            np.testing.assert_allclose(spec.eigenvalues, w[w <= cut], rtol=1e-12)
            assert v.shape == (dom.size, spec.eigenvalues.size)

    @pytest.mark.parametrize("dom", [square_domain(32), LatticeDomain((7, 5), 0.1)],
                             ids=["square32", "rect7x5"])
    def test_vectors_are_checked_eigenvectors(self, dom):
        # the block vectors expand to orthonormal site vectors, eigenvectors
        # of the dense matrix
        s = 0.5
        a = build_restricted_fractional(dom, s).entries
        w = np.linalg.eigvalsh(a)
        spec, v = lowest_spectrum(dom, s, 0.5 * (w[11] + w[12]), vectors=True)
        assert spec.eigenvalues.size == 12
        assert np.abs(v.T @ v - np.eye(12)).max() <= 1e-12
        residual = np.linalg.norm(a @ v - v * spec.eigenvalues, axis=0).max()
        assert residual <= 1e-10 * w[-1]

    def test_degenerate_pair_across_blocks(self):
        # on a square the 2nd and 3rd eigenvalues are an x <-> y pair whose
        # modes have parities (+1, -1) and (-1, +1): a cut just above them
        # returns both, as the dense spectrum has them
        dom, s = square_domain(32), 0.5
        w = np.linalg.eigvalsh(build_restricted_fractional(dom, s).entries)
        assert w[2] - w[1] < 1e-12 * w[2] < w[3] - w[2]
        spec, v = lowest_spectrum(dom, s, w[2] * (1.0 + 1e-9), vectors=True)
        np.testing.assert_allclose(spec.eigenvalues, w[:3], rtol=1e-10)
        # the two copies are mirror images under the swap
        swap = v[:, 1].reshape(32, 32).T.ravel()
        assert abs(swap @ v[:, 2]) == pytest.approx(1.0, rel=1e-12)

    def test_doubles_past_the_first_block(self, monkeypatch):
        # 110 eigenvalues below the cut, 55 in each parity block, and as
        # many Dirichlet-power modes: each block asks for 55 + 6 eigenpairs
        # once, then one eigenvalue for the completeness run.  A first
        # solve that hides its pairs above the cut leaves the largest below
        # it, and the block doubles to 122 before the completeness run.
        # The counts pin the schedule and change with it.
        dom, s = interval_domain(256), 0.5
        w = np.linalg.eigvalsh(build_restricted_fractional(dom, s).entries)
        cut = 0.5 * (w[109] + w[110])

        def below_cut(w, v):
            keep = w <= cut
            return w[keep], v[:, keep]

        for tamper, schedule in ((lambda *out: out, [61, 1] * 2),
                                 (below_cut, [61, 122, 1, 61, 1])):
            monkeypatch.undo()
            calls = _tamper_first_solve(monkeypatch, tamper)
            spec = lowest_spectrum(dom, s, cut)
            assert calls == schedule
            np.testing.assert_allclose(spec.eigenvalues, w[:110], rtol=1e-10)

    @pytest.mark.parametrize("s", LOWEST_ORDERS)
    @pytest.mark.parametrize("dom", LOWEST_DOMAINS, ids=LOWEST_IDS)
    def test_dirichlet_count_is_a_floor(self, dom, s):
        # on every block, at the cut of test_matches_dense, the Lanczos run's
        # Dirichlet-power count is at most the block's own dense count
        _, cut = _dense_spectrum(dom, s)
        for halves, dense in _dense_blocks(dom, s):
            floor = lat._dirichlet_count(halves, dom.spacing, s, cut)
            assert floor <= np.count_nonzero(dense <= cut)

    def test_deterministic(self):
        dom, s = square_domain(32), 0.5
        first, v1 = lowest_spectrum(dom, s, 8.1, vectors=True)
        second, v2 = lowest_spectrum(dom, s, 8.1, vectors=True)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(v1, v2)
        assert np.allclose(v1.T @ v1, np.eye(first.eigenvalues.size), atol=1e-12)

    def test_withheld_eigenpair_rejected(self, monkeypatch):
        # the (+1, +1) block holds one eigenvalue below the cut; withholding
        # it leaves the first solve's largest above the cut, so only the
        # completeness run can see it
        _tamper_first_solve(monkeypatch, _withholding(0))
        with pytest.raises(ArithmeticError, match="was missed"):
            lowest_spectrum(square_domain(32), 0.5, 8.1)

    @pytest.mark.parametrize("rank", range(6))
    def test_withheld_eigenpair_of_several_rejected(self, rank, monkeypatch):
        # at verify-square's 64^2 cut (4 spacing)^-2s the (+1, +1) block
        # keeps 6 pairs; the one-eigenvalue completeness run finds any one
        # of them withheld, not only the lowest
        dom, s = square_domain(64), 0.5
        cut = (4.0 * dom.spacing) ** (-2.0 * s)
        withhold = _withholding(rank)

        def tamper(w, v):
            assert np.count_nonzero(w <= cut) == 6
            return withhold(w, v)

        _tamper_first_solve(monkeypatch, tamper)
        with pytest.raises(ArithmeticError, match="was missed"):
            lowest_spectrum(dom, s, cut)

    def test_shifted_eigenvalue_rejected(self, monkeypatch):
        def shifted(w, v):
            w = w.copy()
            w[np.argmin(w)] *= 1.0 + 1e-6
            return w, v

        _tamper_first_solve(monkeypatch, shifted)
        with pytest.raises(ArithmeticError):
            lowest_spectrum(square_domain(32), 0.5, 8.1)


def _loaded_symbol(path, names):
    """The first of ``names`` that the already loaded library ``path``
    exports, or None."""
    try:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for name in names:
        if hasattr(library, name):
            symbol = getattr(library, name)
            symbol.argtypes, symbol.restype = [], ctypes.c_int
            return symbol
    return None


# thread counts of scipy's and numpy's OpenBLAS pools, read without the
# library's own lookup (numpy's is the 64-bit-integer build)
SCIPY_THREADS = _loaded_symbol(scipy.linalg.cython_blas.__file__,
                               ("scipy_openblas_get_num_threads", "openblas_get_num_threads"))
NUMPY_THREADS = _loaded_symbol(np.linalg._umath_linalg.__file__,
                               ("scipy_openblas_get_num_threads64_",
                                "openblas_get_num_threads64_", "openblas_get_num_threads"))


def _address(symbol):
    return ctypes.cast(symbol, ctypes.c_void_p).value


@pytest.fixture
def scipy_pool():
    """scipy's pool at two threads for the test, and its count reader; the
    count it had is restored after."""
    threads = lat._scipy_blas_threads()
    if SCIPY_THREADS is None or threads is None:
        pytest.skip("scipy's BLAS is not an OpenBLAS whose thread count resolves")
    get, set_ = threads
    before = get()
    set_(2)
    try:
        if SCIPY_THREADS() != 2:
            pytest.skip("scipy's OpenBLAS does not take a second thread here")
        yield SCIPY_THREADS
    finally:
        set_(before)


def _watch_matvecs(monkeypatch, reader):
    """Patch eigsh so that every matvec of its operator records ``reader()``."""
    exact = scipy.sparse.linalg.eigsh
    seen = []

    def patched(a, **kwargs):
        def matvec(x):
            seen.append(reader())
            return a.matvec(x)

        return exact(scipy.sparse.linalg.LinearOperator(a.shape, matvec=matvec, dtype=float),
                     **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", patched)
    return seen


class TestBlasThreadScope:
    """Each Lanczos solve holds scipy's OpenBLAS pool, the one ARPACK calls,
    to one thread and gives the pool back its count; numpy's pool, which
    every other product runs on, is never touched."""

    def test_one_thread_inside_each_solve(self, scipy_pool, monkeypatch):
        seen = _watch_matvecs(monkeypatch, scipy_pool)
        lowest_spectrum(square_domain(32), 0.5, 8.1)
        assert seen and set(seen) == {1}
        assert scipy_pool() == 2

    def test_count_restored_after_raise(self, scipy_pool, monkeypatch):
        # a solve that raises inside the scope, and a completeness run that
        # finds a withheld pair, both give the pool back its two threads
        def failing(*args, **kwargs):
            raise ArithmeticError(f"solver failed on {scipy_pool()} thread")

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
        with pytest.raises(ArithmeticError, match="on 1 thread"):
            lowest_spectrum(square_domain(32), 0.5, 8.1)
        assert scipy_pool() == 2
        monkeypatch.undo()
        _tamper_first_solve(monkeypatch, _withholding(0))
        with pytest.raises(ArithmeticError, match="was missed"):
            lowest_spectrum(square_domain(32), 0.5, 8.1)
        assert scipy_pool() == 2

    def test_numpy_pool_untouched(self, scipy_pool, monkeypatch):
        if NUMPY_THREADS is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS whose thread count resolves")
        if _address(NUMPY_THREADS) == _address(scipy_pool):
            pytest.skip("numpy and scipy share one OpenBLAS here, so its pool is scipy's")
        before = NUMPY_THREADS()
        seen = _watch_matvecs(monkeypatch, NUMPY_THREADS)
        lowest_spectrum(square_domain(32), 0.5, 8.1)
        assert seen and set(seen) == {before} and NUMPY_THREADS() == before

    # verify-square's 64^2 cut (4 spacing)^-2s at s = 1/2 is 16
    @pytest.mark.parametrize("dom, cut", [(square_domain(32), 8.1), (square_domain(64), 16.0)],
                             ids=["square32", "square64"])
    def test_same_bits_without_a_handle(self, dom, cut, monkeypatch):
        # where no OpenBLAS symbol resolves the scope does nothing, and the
        # solve returns the same pairs bit for bit
        scoped, v_scoped = lowest_spectrum(dom, 0.5, cut, vectors=True)
        monkeypatch.setattr(lat, "_scipy_blas_threads", lambda: None)
        bare, v_bare = lowest_spectrum(dom, 0.5, cut, vectors=True)
        assert scoped.eigenvalues.size
        assert np.array_equal(scoped.eigenvalues, bare.eigenvalues)
        assert scoped.defect == bare.defect
        assert np.array_equal(v_scoped, v_bare)


class TestBlockOperator:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dom", [interval_domain(256), interval_domain(9),
                                     LatticeDomain((7, 5), 0.1), LatticeDomain((8, 5), 0.1),
                                     square_domain(32)],
                             ids=["interval256", "interval9", "rect7x5", "rect8x5",
                                  "square32"])
    def test_matches_dense(self, dom, s):
        # in every parity block, identity columns one at a time and as one
        # (n, n) block reproduce the dense block, and an (n, k) block its
        # product
        circle = lat._multiplier_kernel(dom, s)
        spectrum = np.fft.rfftn(circle).real
        blocks = [b for b in itertools.product(*lat._parity_halves(dom))
                  if all(h.sites.size for h in b)]
        assert sum(math.prod(h.sites.size for h in b) for b in blocks) == dom.size
        for halves in blocks:
            a = lat._parity_block(circle, halves)
            apply = lat._parity_operator(spectrum, halves)
            n = a.shape[0]
            tol = 1e-13 * np.max(np.abs(a))
            eye = np.eye(n)
            for j in (0, n // 2, n - 1):
                assert np.max(np.abs(apply(eye[:, j]) - a[:, j])) < tol
            assert np.max(np.abs(apply(eye) - a)) < tol
            x = np.random.default_rng(3).standard_normal((n, 5))
            assert np.max(np.abs(apply(x) - a @ x)) < tol * np.max(np.sum(np.abs(x), axis=0))

    def test_modes_keep_the_block_side(self):
        # each half of a 64-cell axis has 64 frequencies for its 32 sites,
        # not the 128 of the whole block's convolution
        for h in itertools.chain(*lat._parity_halves(square_domain(64))):
            assert h.fourier_modes().shape == (64, 32)

    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("c", [1, 2, 3, 8, 9, 64, 65])
    def test_modes_are_orthonormal(self, c, parity):
        # G^T G is the block of the identity kernel, whose transform is 1 at
        # every frequency: this pins the closed form without the gather
        h = lat._parity_half(c, parity)
        g = h.fourier_modes()
        assert g.shape == (h.freqs.size, h.sites.size)
        assert np.abs(g.T @ g - np.eye(h.sites.size)).max(initial=0.0) <= 1e-14


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


class TestSumSide:
    def test_mean_eigenvalue_reads_c2(self):
        # the averaged eigenvalue sum's second term on the 64^2 square at
        # s = 1/2, (mean_{n<=N} lam_n - C1 N^(2s/d)) / (|bdry| N^((2s-1)/d)),
        # averaged over N = 6..17, is the printed C2, sign included
        order = FractionalOrder(0.5, 2)
        dom = square_domain(64)
        l2, _ = consts.surface_via_layer(order)
        c1, c2 = consts.eigenvalue_sum_coefficients(order, dom.volume, dom.surface, l2=l2)
        lam = lowest_spectrum(dom, order.s, 16.0).eigenvalues[:17]
        n = np.arange(1, lam.size + 1)
        a, b = 2.0 * order.s / order.d, (2.0 * order.s - 1.0) / order.d
        second = (np.cumsum(lam) / n - c1 * n ** a) / (dom.surface * n ** b)
        assert lam.size == 17
        assert np.mean(second[5:]) == pytest.approx(c2, rel=5e-2)


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


class TestOperatorOrder:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("cells", [(7,), (8,), (5, 7), (6, 6), (9, 9)])
    def test_parity_blocks_match_full_spectrum(self, cells, s, monkeypatch):
        # the union of the block spectra is the spectrum of the n x n
        # difference; odd sides put a centre site in the even blocks
        dom = LatticeDomain(cells, 1.0 / max(cells))
        solve = lat.eigenvalues_sym
        blocks = []

        def recording(op):
            spec = solve(op)
            blocks.append(spec.eigenvalues)
            return spec

        monkeypatch.setattr(lat, "eigenvalues_sym", recording)
        rep = operator_order_check(dom, s)
        if len(cells) == 2 and cells[0] == cells[1]:
            # on a square the (+1, -1) block is solved once for itself and
            # its mirror image, the (-1, +1) block
            assert len(blocks) == 3
            blocks.insert(2, blocks[1])
        full = np.linalg.eigvalsh(build_dirichlet_power(dom, s).entries
                                  - build_restricted_fractional(dom, s).entries)
        norm = max(-full[0], full[-1])
        assert sum(w.size for w in blocks) == dom.size
        assert len(blocks) == 2 ** dom.dim
        assert np.abs(np.sort(np.concatenate(blocks)) - full).max() <= 1e-12 * norm
        assert rep.quantities["min_eig"] == min(w[0] for w in blocks)
        assert rep.quantities["max_eig"] == pytest.approx(full[-1], rel=1e-12)
        assert rep.passed

    def test_no_full_matrix(self):
        # the largest dense matrix is one parity block, a quarter of the
        # sites of a square
        n = 40 * 40
        tracemalloc.start()
        try:
            operator_order_check(square_domain(40), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n ** 2 * 8

    @pytest.mark.parametrize("dom, axis", [(interval_domain(9), 0),
                                           (LatticeDomain((6, 7), 0.1), 0),
                                           (LatticeDomain((6, 7), 0.1), 1)])
    def test_uneven_kernel_refused(self, dom, axis, monkeypatch):
        # the parity split would drop the coupling of a kernel whose offset
        # +1 along the axis differs from its offset -1
        exact = lat._multiplier_kernel

        def uneven(domain, s):
            circle = exact(domain, s)
            circle[tuple(1 if k == axis else slice(None) for k in range(domain.dim))] *= 1 + 1e-9
            return circle

        operator_order_check(dom, 0.5)
        monkeypatch.setattr(lat, "_multiplier_kernel", uneven)
        with pytest.raises(ArithmeticError, match=f"odd along axis {axis}"):
            operator_order_check(dom, 0.5)

    def test_single_cell_blocks(self):
        # one cell per axis leaves the odd parity blocks empty
        for cells in [(1,), (1, 4)]:
            rep = operator_order_check(LatticeDomain(cells, 0.25), 0.5)
            assert rep.passed and rep.quantities["min_eig"] > 0

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_interval(self, s):
        rep = operator_order_check(interval_domain(48), s)
        assert rep.passed
        assert rep.quantities["max_eig"] > 0

    def test_square(self):
        rep = operator_order_check(LatticeDomain((12, 12), 1.0 / 12), 0.5)
        assert rep.passed

    def test_fractional_power_only(self):
        # at s = 1 the difference is rounding only; test_local_reduction
        # covers that case on the same domains
        with pytest.raises(ValueError):
            operator_order_check(interval_domain(32), 1.0)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("dom", ORDER_DOMAINS, ids=lambda d: "x".join(map(str, d.cells)))
    def test_swapped_operators_fail(self, dom, s, monkeypatch):
        # swapping the two operators negates each block: the check that
        # passes fails, with the lowest eigenvalue the old highest
        rep = operator_order_check(dom, s)
        q = rep.quantities
        assert rep.passed
        solve = lat.eigenvalues_sym
        monkeypatch.setattr(lat, "eigenvalues_sym",
                            lambda op: solve(SymmetricOperator(-op.entries)))
        swapped = operator_order_check(dom, s)
        assert not swapped.passed
        assert swapped.quantities["min_eig"] == pytest.approx(-q["max_eig"], rel=1e-12)
        assert swapped.quantities["norm"] == pytest.approx(q["norm"], rel=1e-12)


class TestHalfspaceKernel:
    def test_solve_memory(self):
        # the matrix-free solve holds a few dozen block vectors, no n x n array
        n = 64 * 64
        tracemalloc.start()
        try:
            lat.halfspace_kernel_check(0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n ** 2 * 8

    def test_withheld_eigenpair_rejected(self, monkeypatch):
        # an eigenpair below h^-2s missing from the solve would drop out of
        # the negative part: the completeness check refuses the spectrum
        _tamper_first_solve(monkeypatch, _withholding(1))
        with pytest.raises(ArithmeticError):
            lat.halfspace_kernel_check(0.5, 0.5)
