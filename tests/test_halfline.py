import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.interpolate import PchipInterpolator, PPoly

from fracweyl import halfline
from fracweyl.quadcore import integrate, panel_quad
from fracweyl.constants import surface_via_energy_shift, surface_via_layer
from fracweyl.halfline import (FractionalOrder, HalfLineModel, DirichletLineModel,
                               _Q_DEGREE, _Q_HI, _Q_LO, _Q_PANELS, _THETA_HI,
                               _THETA_LO, _THETA_NODES, _layer_profile,
                               _pchip_eval, _pchip_fit, _uniform_panels,
                               spectral_edge)
from halfline_oracles import (closed_form_double_laplace, eigenfunction,
                              outer_function, projector_profile)


def assert_same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFractionalOrder:
    def test_validation(self):
        with pytest.raises(ValueError):
            FractionalOrder(1.0, 2)
        with pytest.raises(ValueError):
            FractionalOrder(0.5, 1)


class TestPhaseShift:
    def test_small_lambda(self, model_half):
        assert abs(model_half.phase_vec(1e-6)) < 1e-4

    def test_large_lambda_limit(self, model_half):
        assert model_half.phase_vec(1e6) == pytest.approx(math.pi / 8.0, abs=1e-3)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_increasing(self, s):
        m = HalfLineModel(FractionalOrder(s, 2))
        assert m.phase_vec(2.0) > m.phase_vec(1.0)

    def test_monotone_and_bounded_on_grid(self, model_half):
        grid = np.logspace(-3, 3, 151)
        th = model_half.phase_vec(grid)
        assert np.all(np.diff(th) >= -1e-12)
        assert np.all(th < math.pi * (1.0 - 0.5) / 4.0)
        assert np.all(th > 0)

    def test_scalar_and_array_forms(self, model_half):
        lams = np.array([[1e-5, 0.3], [2.0, 5e4]])  # both sides of the table
        th = model_half.phase_vec(lams)
        assert th.shape == lams.shape
        ref = [model_half.phase_vec(float(l)) for l in lams.ravel()]
        assert all(isinstance(v, float) for v in ref)
        np.testing.assert_allclose(th.ravel(), ref, rtol=1e-14, atol=0.0)

    def test_direct_form_array_equals_elementwise(self, model_half):
        # outside the table one array call evaluates every lam, in blocks;
        # it must give each lam's own scalar value to the bit, also past
        # lam ~ 1e8
        lams = np.concatenate([np.geomspace(3e-9, 5e-5, 20),
                               np.geomspace(2e4, 1e14, 20)])
        th = model_half.phase_vec(lams)
        ref = np.array([model_half.phase_vec(float(l)) for l in lams])
        assert np.array_equal(th, ref)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, np.array([1.0, 0.0])])
    def test_nonpositive_rejected(self, model_half, bad):
        with pytest.raises(ValueError):
            model_half.phase_vec(bad)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.95])
    def test_far_beyond_table(self, s):
        # past lam ~ 1e8, 1 - lam^2 (1 - z^2)/(1 + lam^2) rounds to 0 at the
        # smallest z nodes; the phase must not take log1p(-1) there.  The
        # steps between the three values are quadrature noise, under 1e-11.
        m = HalfLineModel(FractionalOrder(s, 2))
        th = m.phase_vec(np.array([1e8, 1e12, 1e16]))
        assert np.all(np.isfinite(th))
        assert np.all(np.diff(th) >= -1e-11)
        np.testing.assert_allclose(th, math.pi * (1.0 - s) / 4.0, rtol=0.0, atol=1e-9)

    def test_derivative_at_zero(self, model_half):
        # the closed integral form of the derivative at the bottom
        ref = integrate(
            lambda z: np.log(0.5 * z * z / (np.sqrt(1.0 + z * z) - 1.0)) / z ** 2,
            0.0, math.inf).value / math.pi
        fd = model_half.phase_vec(1e-5) / 1e-5
        assert fd == pytest.approx(ref, rel=1e-3)


class TestSpectralDensity:
    def test_vanishes_below_one(self, model_half):
        assert model_half.gamma_values(1.0, 0.5)[0] == 0.0
        assert np.all(model_half.gamma_values(1.0, np.array([0.2, 0.99])) == 0.0)

    def test_nonnegative(self, model_half):
        xi = np.geomspace(1.0 + 1e-6, 50.0, 60)
        assert np.all(model_half.gamma_values(2.0, xi) >= 0.0)

    def test_laplace_tail_unit_bound(self, model_half):
        for lam in (0.3, 1.0, 4.0, 15.0):
            g = model_half.laplace_tail(lam, np.linspace(0.0, 10.0, 41))
            assert np.all(g >= -1e-12)
            assert np.all(g <= 1.0 + 1e-9)

    def test_tail_at_zero_equals_sine_of_phase(self, model_half):
        # the boundary value of the eigenfunction vanishes
        for lam in (0.5, 2.0, 7.9):
            assert model_half.laplace_tail(lam, 0.0) == pytest.approx(
                math.sin(model_half.phase_vec(lam)), abs=5e-8)

    def test_reading_selection(self, model_half):
        # The density is numerator * outer factor / denominator, and the
        # denominator admits three algebraic readings that differ in which
        # powers of (xi^2 - 1) enter and whether the dispersion is shifted.
        # Only the shipped modulus-squared reading closes the double
        # Laplace chain and keeps the tail within [0, 1]; the rejected
        # ones are rebuilt here from the shipped table by swapping the
        # denominator.
        s = 0.5
        cos_pi_s, sin_pi_s = math.cos(math.pi * s), math.sin(math.pi * s)

        def denominators(lam, xi):
            psi = np.expm1(s * np.log1p(lam * lam))
            xi2m1 = (xi - 1.0) * (xi + 1.0)
            pow_s = xi2m1 ** s
            shift_s = (1.0 + lam * lam) ** s
            return {
                "shifted_modulus": ((pow_s - shift_s) ** 2
                                    + 2.0 * shift_s * pow_s * (1.0 - cos_pi_s)),
                "unshifted_linear": psi ** 2 + pow_s - 2.0 * psi * xi2m1 * cos_pi_s,
                "unshifted_power": (pow_s - psi * cos_pi_s) ** 2 + (psi * sin_pi_s) ** 2,
            }

        closure = {}
        unit_excess = 0.0
        for lam, t in ((1.0, 1.0), (2.0, 0.7)):
            xi, c = model_half.gamma_table(lam)
            dens = denominators(lam, xi)
            g_ref = closed_form_double_laplace(model_half, lam, t)
            for reading, den in dens.items():
                cr = c * dens["shifted_modulus"] / den

                def tail(u, cr=cr):
                    return np.exp(-np.multiply.outer(u, xi)) @ cr

                g_num = integrate(lambda u: np.exp(-t * u) * tail(u),
                                  0.0, math.inf, rel_tol=1e-9).value
                rel = abs(g_num - g_ref) / abs(g_ref)
                closure[reading] = max(closure.get(reading, 0.0), rel)
                if reading == "shifted_modulus":
                    g = tail(np.linspace(0.0, 5.0, 41))
                    unit_excess = max(unit_excess, float(np.max(g)) - 1.0,
                                      float(-np.min(g)))
        assert closure.pop("shifted_modulus") < 1e-6
        assert unit_excess < 1e-9
        assert all(r > 1e-3 for r in closure.values())

    def test_double_laplace_consistency(self, model_half):
        # numeric double transform against the closed form at (2, 0.7)
        lam, t = 2.0, 0.7
        xi, c = model_half.gamma_table(lam)
        g_num = integrate(
            lambda u: np.exp(-t * u) * (np.exp(-np.multiply.outer(u, xi)) @ c),
            0.0, math.inf, rel_tol=1e-9).value
        assert g_num == pytest.approx(closed_form_double_laplace(model_half, lam, t),
                                      rel=1e-5)

    def test_stacked_rows_match_single_lam(self, model_half):
        lams = np.concatenate([[0.0, -1.0], np.geomspace(1e-4, 1e3, 15)])
        xi, rows = model_half.gamma_table(lams)
        assert rows.shape == (lams.size, xi.size)
        assert not rows[:2].any()
        for lam, row in zip(lams[2:], rows[2:]):
            np.testing.assert_allclose(row, model_half.gamma_table(lam)[1],
                                       rtol=1e-14, atol=0.0)

    def test_rows_past_rounding_edge(self):
        # past lam ~ 1e8, 1 + lam^2 rounds to lam^2 and the Poisson log
        # argument to -1 at the smallest z; the rows must not collapse to 0.
        # Their peak falls like 1/lam, on both sides of that edge.
        m = HalfLineModel(FractionalOrder(0.25, 2))
        xi, _ = m.gamma_table(1.0)
        peaks = m.gamma_values(np.array([3e7, 1e8, 1e9]), xi).max(axis=1)
        assert np.all(peaks > 0.0)
        assert peaks[1] / peaks[0] == pytest.approx(0.3, rel=0.1)
        assert peaks[2] / peaks[1] == pytest.approx(0.1, rel=0.1)
        assert m.laplace_tail(1e8, 1.0) > 0.0

    def test_edge_grid_rows_at_edge_1e8(self):
        # the density rows of the edge grid of mu = 1e4 at s = 0.25, whose
        # spectral edge is 1e8, are finite and positive and raise no warning
        m = HalfLineModel(FractionalOrder(0.25, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, _, edge = m._g_grid([1e4])
            _, rows = m.gamma_table(np.append(lam[0], edge[0]))
        assert edge[0, 0] == pytest.approx(1e8, rel=1e-12)
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)

    def test_table_matches_adaptive_laplace(self, model_half):
        # the fixed density table reproduces an adaptive transform
        lam = 1.3
        for x in (0.5, 2.0):
            direct = integrate(lambda xi: np.exp(-x * xi) * model_half.gamma_values(lam, xi),
                               0.0, math.inf, rel_tol=1e-9).value
            assert direct == pytest.approx(model_half.laplace_tail(lam, x), rel=1e-6)


    @pytest.mark.parametrize("s", [0.02, 0.04, 0.042])
    def test_order_too_small_is_refused(self, s):
        # the tail node 2 u^(-1/s) overflows at s = 0.02; at 0.04 and 0.042
        # it is finite but the squared Poisson grid of its table is not
        with pytest.raises(ArithmeticError, match="too small"):
            HalfLineModel(FractionalOrder(s, 2))

    def test_smallest_swept_order_has_finite_tables(self):
        m = HalfLineModel(FractionalOrder(0.05, 2))
        xi, table = m.gamma_table(np.array([0.5, 2.0, 40.0]))
        assert np.all(np.isfinite(xi)) and np.all(np.isfinite(table))


class TestClosedFormDoubleLaplace:
    def test_limit_at_zero(self, model_half):
        lam = 1.3
        s = 0.5
        th = model_half.phase_vec(lam)
        lim = math.cos(th) / lam - math.sqrt(
            s * (1 + lam ** 2) ** (s - 1.0) / ((1 + lam ** 2) ** s - 1.0))
        assert closed_form_double_laplace(model_half, lam, 1e-9) == pytest.approx(
            lim, abs=1e-8)

    def test_decay(self, model_half):
        assert abs(closed_form_double_laplace(model_half, 1.0, 1e3)) < 1e-2

    def test_cross_check_low_order(self):
        m = HalfLineModel(FractionalOrder(0.3, 2))
        lam, t = 1.0, 1.0
        xi, c = m.gamma_table(lam)
        g_num = integrate(
            lambda u: np.exp(-t * u) * (np.exp(-np.multiply.outer(u, xi)) @ c),
            0.0, math.inf, rel_tol=1e-9).value
        assert g_num == pytest.approx(closed_form_double_laplace(m, lam, t), rel=1e-5)


class TestOuterFunction:
    def test_at_zero(self, model_half):
        assert outer_function(model_half, 2.0, 0.0) == 1.0

    def test_derivative_vanishes_large_lambda(self, model_half):
        fd = (outer_function(model_half, 1e3, 1e-4) - 1.0) / 1e-4
        assert abs(fd) < 0.05

    def test_derivative_small_lambda_matches_phase_slope(self, model_half):
        ref = integrate(
            lambda z: np.log(0.5 * z * z / (np.sqrt(1.0 + z * z) - 1.0)) / z ** 2,
            0.0, math.inf).value / math.pi
        fd = (outer_function(model_half, 1e-3, 1e-6) - 1.0) / 1e-6
        assert fd == pytest.approx(ref, abs=5e-3)


class TestEigenfunction:
    def test_bound_on_grid(self, model_half):
        lams = np.geomspace(0.1, 20.0, 10)
        ts = np.linspace(0.0, 12.0, 10)
        for lam in lams:
            vals = eigenfunction(model_half, lam, ts)
            assert np.all(np.abs(vals) <= 2.0 + 1e-9)

    def test_boundary_value_vanishes(self, model_half):
        for lam in (0.4, 1.0, 5.0):
            assert abs(eigenfunction(model_half, lam, 0.0)) < 5e-7

    def test_sine_asymptotics(self, model_half):
        lam, x = 1.0, 100.0
        th = model_half.phase_vec(lam)
        assert eigenfunction(model_half, lam, x) == pytest.approx(
            math.sin(lam * x + th), abs=1e-8)

    def test_weak_eigenfunction_pairing(self, model_half):
        # (F, A chi) = eigenvalue (F, chi) for a bump test function,
        # computed through the Fourier multiplier on a large periodic box
        s = 0.5
        L, N = 400.0, 2 ** 17
        dx = 2 * L / N
        x = -L + dx * np.arange(N)
        k = 2.0 * math.pi * np.fft.fftfreq(N, d=dx)
        t = (x - 4.0) / 2.0
        chi = np.zeros_like(x)
        inside = np.abs(t) < 1
        chi[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        a_chi = np.fft.ifft((1.0 + k * k) ** s * np.fft.fft(chi)).real
        pos = x >= 0
        for lam in (0.7, 2.0):
            f = np.asarray(eigenfunction(model_half, lam, x[pos]))
            lhs = float(np.sum(f * a_chi[pos])) * dx
            rhs = (1.0 + lam ** 2) ** s * float(np.sum(f * chi[pos])) * dx
            assert lhs == pytest.approx(rhs, rel=2e-4)


class TestKernels:
    def test_spectral_window_zero(self, model_half):
        assert model_half.projector_diagonal([1.0], 0.5)[0] == 0.0
        assert model_half.riesz_kernel_line(1.0) - model_half.kernel_gap(1.0, 1.0) == 0.0
        assert model_half.riesz_kernel_line(0.7) == 0.0
        assert model_half.kernel_gap(1.0, 1.0) == 0.0

    def test_line_kernel_closed_form(self, model_half):
        oracle = (math.sqrt(3.0) - math.log(2.0 + math.sqrt(3.0)) / 2.0) / math.pi
        assert model_half.riesz_kernel_line(2.0) == pytest.approx(oracle, rel=1e-10)

    def test_line_kernel_monotone(self, model_half):
        mus = np.linspace(1.1, 6.0, 25)
        vals = [model_half.riesz_kernel_line(m) for m in mus]
        assert np.all(np.diff(vals) > 0)

    def test_diag_nonnegative(self, model_half):
        for t in (0.3, 1.0, 4.0):
            for mu in (1.5, 3.0, 6.0):
                diag = model_half.riesz_kernel_line(mu) - model_half.kernel_gap(t, mu)
                assert diag >= 0.0

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.3, 4.0, 40.0])
    def test_gap_array_matches_scalar(self, model_half, mu):
        # depths straddle the x = 12 switch between interpolated and
        # edge-grid tail terms; mu <= 1 lies below the spectrum
        xs = np.array([0.0, 0.05, 1.0, 7.5, 11.99, 12.0, 12.01, 20.0, 45.0])
        if mu == 40.0:
            # the cosine sweep of depth 45 needs 922 panels, past the cap
            for x in (45.0, xs):
                with pytest.raises(ArithmeticError, match="cap of 600"):
                    model_half.kernel_gap(x, mu)
            xs = xs[:-1]
        arr = model_half.kernel_gap(xs, mu)
        ref = np.array([model_half.kernel_gap(float(x), mu) for x in xs])
        assert arr.shape == xs.shape
        assert all(isinstance(v, float) for v in ref)
        if mu <= 1.0:
            assert np.all(arr == 0.0) and np.all(ref == 0.0)
        np.testing.assert_allclose(arr, ref, rtol=1e-12,
                                   atol=1e-13 * np.max(np.abs(ref)))
        grid = model_half.kernel_gap(xs[:8].reshape(2, 4), mu)
        assert grid.shape == (2, 4)
        np.testing.assert_array_equal(grid.ravel(), arr[:8])

    def test_unresolved_sweep_refused(self, model_half):
        # sweeps of 2e4 and 2e5 rad need more panels than the caps of 600
        # and 1600; grids cut to the caps read -31.4 and 3183.0001 against
        # the resolved -1.4e-4 and 3183.088
        with pytest.raises(ArithmeticError, match="cap of 600"):
            model_half.kernel_gap(10.0, 1000.0)
        with pytest.raises(ArithmeticError, match="cap of 1600"):
            model_half.projector_diagonal([10.0], 1e4)

    def test_panel_count_reaches_the_cap(self):
        # base + sweeps == cap is resolved; one panel more, or nan, refuses
        per_panel = 2.0 * math.pi / 1.6
        assert halfline._osc_panels((600 - 6 + 0.5) * per_panel) == 600
        for phase in ((600 - 6 + 1.5) * per_panel, math.nan):
            with pytest.raises(ArithmeticError):
                halfline._osc_panels(np.array([1.0, phase]))

    def test_local_gap_array_matches_closed_form(self):
        # the series branch u < 1e-3 and the closed form in one array,
        # against the per-point formula
        def ref(x, mu):
            if mu <= 1.0:
                return 0.0
            edge = math.sqrt(mu - 1.0)
            u = 2.0 * edge * x
            if u < 1e-3:
                j = 1.0 / 3.0 - u * u / 30.0 + u ** 4 / 840.0
            else:
                j = (math.sin(u) - u * math.cos(u)) / u ** 3
            return 2.0 * edge ** 3 * j / math.pi

        xs = np.array([0.0, 1e-5, 2e-4, 4.9e-4, 5.1e-4, 0.3, 12.0, 40.0])
        for mu in (0.9, 1.0, 2.0, 50.0):
            arr = DirichletLineModel.kernel_gap(xs, mu)
            np.testing.assert_allclose(arr, [ref(x, mu) for x in xs], rtol=1e-14, atol=0.0)
        assert isinstance(DirichletLineModel.kernel_gap(0.1, 2.0), float)

    def test_diag_approaches_line(self, model_half):
        gap_far = abs(model_half.kernel_gap(50.0, 4.0))
        gap_near = abs(model_half.kernel_gap(0.5, 4.0))
        assert gap_far < 1e-2
        assert gap_far < 0.05 * gap_near

    def test_projector_bound(self, model_half):
        mu = 4.0
        bound = 8.0 / math.pi * math.sqrt(mu ** 2 - 1.0)
        for t in (0.2, 1.0, 3.0):
            for u in (0.5, 2.0):
                assert abs(projector_profile(model_half, t, [u], mu)[0]) <= bound

    def test_projector_idempotence(self, model_half):
        # integral of e(t,.)e(.,u) over a long truncated window, period
        # averaged and Richardson extrapolated, reproduces e(t,u)
        t_, u_, mu = 1.0, 2.0, 4.0
        ref = projector_profile(model_half, t_, [u_], mu)[0]
        dw = 0.02
        ws = np.arange(dw / 2.0, 240.0, dw)
        prod = (projector_profile(model_half, t_, ws, mu)
                * projector_profile(model_half, u_, ws, mu))
        cum = np.cumsum(prod) * dw
        per = math.pi / math.sqrt(mu ** 2 - 1.0)

        def cesaro(T):
            i0, i1 = int((T - 4 * per) / dw), int(T / dw)
            return float(cum[i0:i1].mean())

        val = 2.0 * cesaro(240.0) - cesaro(120.0)
        assert val == pytest.approx(ref, abs=1e-3)

    def test_projector_memory_bounded(self, model_half):
        # the idempotence window: 12,000 offsets on a ~1,900-node grid;
        # interpolating all tails at once would need ~180 MiB
        ws = np.arange(0.01, 240.0, 0.02)
        tracemalloc.start()
        try:
            projector_profile(model_half, 1.0, ws, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2 ** 20


class TestBoundaryLayer:
    def test_decay(self, model_half):
        assert abs(model_half.boundary_layer(100.0)) < 1e-3 * abs(
            model_half.boundary_layer(0.1))

    def test_array_matches_scalar(self, model_half):
        ts = np.array([0.01, 0.7, 5.0, 13.0, 60.0])
        arr = model_half.boundary_layer(ts)
        ref = np.array([model_half.boundary_layer(float(t)) for t in ts])
        assert isinstance(model_half.boundary_layer(0.7), float)
        np.testing.assert_allclose(arr, ref, rtol=1e-12,
                                   atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_blocked_tables_match_per_node_kernel_gap(self, s):
        # boundary_layer tables 4 r nodes per density call; composing the
        # public one-mu kernel_gap node by node must give the same profile.
        # Depths t r straddle the x = 12 switch to the edge-grid tails.
        model = HalfLineModel(FractionalOrder(s, 2))
        ts = np.array([0.05, 1.0, 6.0, 11.9, 12.5, 15.0, 30.0, 60.0])

        def per_node(t, nodes):
            return (model.kernel_gap(t * r, mu) for r, mu in nodes)

        np.testing.assert_allclose(model.boundary_layer(ts),
                                   _layer_profile(per_node, ts, s, 2),
                                   rtol=1e-14, atol=0.0)

    def test_layer_route_memory_bounded(self):
        # the density tables are built 4 r nodes at a time (5.1 MiB);
        # tabling all 72 nodes in one call peaks near 19 MiB
        tracemalloc.start()
        try:
            surface_via_layer(FractionalOrder(0.5, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2 ** 20

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_nonpositive_depth_rejected(self, model_half, bad):
        for model in (model_half, DirichletLineModel(2)):
            with pytest.raises(ValueError):
                model.boundary_layer(bad)
            with pytest.raises(ValueError):
                model.boundary_layer(np.array([0.5, bad, 2.0]))

    def test_halfpower_moment_finite(self, model_half):
        ts = np.geomspace(1e-3, 60.0, 40)
        vals = np.abs(model_half.boundary_layer(ts))
        moment = trapezoid(np.sqrt(ts) * vals, ts)
        assert np.isfinite(moment)
        assert moment < 1.0


class TestEnergyShift:
    def test_near_bottom(self, model_half):
        assert 0.0 <= model_half.energy_shift(1.001) < 1e-2

    @pytest.mark.parametrize("mu", [2.0, 4.0, 8.0])
    def test_positive(self, model_half, mu):
        assert model_half.energy_shift(mu) > 0.0

    def test_against_direct_t_integration(self, model_half):
        # independent route: integrate the kernel gap over t directly
        mu = 4.0
        dt = 0.02
        ts = np.arange(dt / 2.0, 160.0, dt)
        vals = model_half.kernel_gap(ts, mu)
        cum = np.cumsum(vals) * dt
        per = math.pi / math.sqrt(mu ** 2 - 1.0)

        def cesaro(T):
            i0, i1 = int((T - 3 * per) / dt), int(T / dt)
            return float(cum[i0:i1].mean())

        direct = (2.0 * cesaro(160.0) - cesaro(80.0)) / mu
        assert direct == pytest.approx(model_half.energy_shift(mu), rel=2e-3)

    def test_array_matches_scalar(self, model_half):
        mus = np.array([[1.001, 1.5, 2.0], [4.0, 8.0, 300.0]])
        vals = model_half.energy_shift(mus)
        scalar = [model_half.energy_shift(float(mu)) for mu in mus.ravel()]
        assert vals.shape == mus.shape
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(vals.ravel(), scalar, rtol=1e-14, atol=0.0)
        for bad in (1.0, 0.5, [2.0, 1.0]):
            with pytest.raises(ValueError):
                model_half.energy_shift(bad)


class TestDensityMoments:
    def test_array_matches_per_lam_closed_forms(self, model_half):
        # reference: the moments one lam at a time, as plain dot products
        # over a single density table
        def per_lam(lam):
            th = model_half.phase_vec(lam)
            xi, c = model_half.gamma_table(lam)
            sine = np.dot(c, (xi * math.sin(th) + lam * math.cos(th))
                          / (xi * xi + lam * lam))
            square = np.sum(np.outer(c, c) / np.add.outer(xi, xi))
            return -math.sin(2.0 * th) / (2.0 * lam) + 4.0 * sine - 2.0 * square

        lams = np.array([[0.05, 1.3, 4.0], [7.0, 40.0, 119.0]])
        dens = model_half.t_integrated_gap_density(lams)
        scalar = [model_half.t_integrated_gap_density(float(l)) for l in lams.ravel()]
        assert dens.shape == lams.shape
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_allclose(dens.ravel(), scalar, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(dens.ravel(), [per_lam(l) for l in lams.ravel()],
                                   rtol=1e-12, atol=0.0)


class TestModelHygiene:
    def test_cache_is_pure_acceleration(self, model_half):
        fresh = HalfLineModel(FractionalOrder(0.5, 2))
        lam = 1.7
        xi_a, c_a = model_half.gamma_table(lam)
        xi_b, c_b = fresh.gamma_table(lam)
        assert np.array_equal(xi_a, xi_b)
        assert np.array_equal(c_a, c_b)

    def test_one_density_call_per_lam_grid(self, monkeypatch):
        sizes = []
        gamma_values = HalfLineModel.gamma_values

        def counting(self, lam, xi):
            sizes.append(np.size(lam))
            return gamma_values(self, lam, xi)

        monkeypatch.setattr(HalfLineModel, "gamma_values", counting)
        m = HalfLineModel(FractionalOrder(0.5, 2))
        m.energy_shift(4.0)
        assert sizes == [48]
        sizes.clear()
        # the 72 r nodes' 33-row edge grids, tabled a block of 4 nodes
        # (132 rows) per call
        m.boundary_layer(np.array([0.5, 3.0, 20.0]))
        assert sum(sizes) == 72 * 33
        assert max(sizes) <= 256
        sizes.clear()
        m.kernel_gap(np.array([0.5, 20.0]), 2.0)
        assert sizes == [33]
        sizes.clear()
        # one energy_shift call for the 80 r nodes: their 48-node lam grids
        # are tabled 256 rows at a time, not in one 48-row call per node
        surface_via_energy_shift(m.order)
        assert sizes == [256] * 15

    def test_model_freed_without_collector(self):
        gc.disable()
        try:
            m = HalfLineModel(FractionalOrder(0.5, 2))
            m.kernel_gap(1.0, 2.0)
            ref = weakref.ref(m)
            del m
            assert ref() is None
        finally:
            gc.enable()


class TestNumpyPchip:
    """The half-line engine's PCHIP must reproduce scipy's bit for bit: the
    golden layer pins (rtol 1e-12) and the byte-identical CLI output rest
    on it."""

    def test_phase_table(self, model_half):
        m = model_half
        grid = np.logspace(math.log10(_THETA_LO), math.log10(_THETA_HI), _THETA_NODES)
        ref = PchipInterpolator(np.log(grid), m._phase_direct(grid), extrapolate=False)
        assert_same_bits(m._theta_coef, ref.c)
        # between nodes, on every node and on the last one
        lams = np.concatenate([np.geomspace(1e-4, 1e4, 997), grid])
        assert_same_bits(m.phase_vec(lams), ref(np.log(lams)))

    def test_tail_columns(self, model_half):
        m = model_half
        _, lam_aug, tables = m._edge_tables([4.0])[0]
        edge = lam_aug[-1]
        tails = np.pad(m._tails(np.array([0.05, 1.0, 11.0]), tables), ((0, 0), (1, 0))).T
        n = lam_aug.size
        steps = np.repeat([0.0, 1.0, 0.0, 2.0], [n // 4, n // 4, n // 4, n - 3 * (n // 4)])
        y = np.column_stack([
            tails,
            np.zeros(n),
            np.full(n, -0.0),                        # PPoly sums from +0.0
            steps,                                   # flat runs, then jumps
            np.sin(3.0 * lam_aug),                   # sign changes
            np.where(lam_aug < edge / 2, 1.0, -1.0) * lam_aug ** 2,
        ])
        ref = PchipInterpolator(lam_aug, y, axis=0)
        coef = _pchip_fit(lam_aug, y)
        assert_same_bits(coef, ref.c)
        x = np.concatenate([np.linspace(-0.1, edge + 0.1, 3001), lam_aug])
        assert_same_bits(_pchip_eval(coef, lam_aug, x), ref(x))
        # a column subset evaluates as its own interpolant
        cols = [1, 6, 7]
        assert_same_bits(_pchip_eval(coef[:, :, cols], lam_aug, x),
                         PchipInterpolator(lam_aug, y[:, cols], axis=0)(x))

    def test_end_slope_branches(self):
        # end slope ((2 h0 + h1) m0 - h0 m1) / (h0 + h1) with h0 = 1,
        # h1 = 0.1, m0 = 1: kept for m1 = 1, zeroed when its sign flips
        # (m1 = 5), clipped to 3 m0 when it overshoots (m1 = -5)
        x = np.array([0.0, 1.0, 1.1, 2.0])
        y = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.1, 1.5, 0.5], [1.2, 1.6, 0.4]])
        coef = _pchip_fit(x, y)
        np.testing.assert_allclose(coef[2, 0], [1.0, 0.0, 3.0], rtol=1e-15)
        ref = PchipInterpolator(x, y, axis=0)
        assert_same_bits(coef, ref.c)
        xs = np.linspace(-0.5, 2.5, 61)
        assert_same_bits(_pchip_eval(coef, x, xs), ref(xs))
        assert_same_bits(_pchip_eval(coef[:, :, 0], x, xs), ref(xs)[:, 0])

    def test_evaluation_sums_like_ppoly(self):
        # on a break every power of d is 0, and with c3 = -0 and c0, c1,
        # c2 < 0 PPoly's sum, begun at +0.0, is +0.0
        rng = np.random.default_rng(7)
        breaks = np.cumsum(rng.uniform(0.1, 1.0, 9))
        c = -rng.uniform(0.5, 2.0, (4, 8, 3))
        c[3, :, 0] = -0.0
        x = np.concatenate([breaks, rng.uniform(breaks[0] - 1.0, breaks[-1] + 1.0, 500)])
        assert_same_bits(_pchip_eval(c, breaks, x), PPoly.construct_fast(c, breaks)(x))

    def test_nonfinite_data_refused(self):
        with pytest.raises(ValueError):
            _pchip_fit(np.arange(4.0), np.array([0.0, 1.0, math.nan, 2.0]))


class TestDenseGrid:
    @pytest.mark.parametrize("edge", [0.1, 1.0, 3.0, math.sqrt(15.0),
                                      spectral_edge(1.37, 0.3), spectral_edge(40.0, 0.75),
                                      1234.567])
    def test_batched_grid_matches_linspace_panels(self, edge):
        # the golden err pins depend on these grids bit for bit
        # 600 and 1600: the caps of kernel_gap's and the projector's grids
        counts = np.array([1, 2, 3, 6, 7, 11, 49, 97, 256, 600, 1600])
        nodes, weights = _uniform_panels(edge, counts)
        ref = [panel_quad(np.linspace(0.0, edge, p + 1), 8) for p in counts]
        assert_same_bits(nodes, np.concatenate([r[0] for r in ref]))
        assert_same_bits(weights, np.concatenate([r[1] for r in ref]))


class TestPoissonGrid:
    S = 0.3

    def test_per_call_paths_unchanged(self):
        # outer_function (the direct kernel at one off-node column t) and a
        # lam past the largest xi node take the per-call grid; their values
        # are pinned, at nodes given by value
        m = HalfLineModel(FractionalOrder(self.S, 2))
        np.testing.assert_allclose(
            [outer_function(m, 2.0, 0.5), outer_function(m, 0.3, 7.0),
             outer_function(m, 50.0, 1e-3)],
            [1.150225017263073, 2.8927351760112683, 1.0000612719193667], rtol=1e-12)
        xi = m._xi_nodes
        nodes = np.array([1.0000000000004612, 1.0000012332258348, 1.0032449082009955,
                          1.1843358164932971, 1.0724784284078828e+16, 6765967.5854326775,
                          1620.2679730364316, 28.031207315085787])
        assert np.isin(nodes, xi).all()
        np.testing.assert_allclose(
            m.gamma_values(2.0 * xi.max(), nodes),
            [1.2857449384842334e-39, 1.0896942802640372e-37, 1.1576139370315293e-36,
             3.991733586460918e-36, 2.1777730843655566e-26, 6.574772951549647e-32,
             4.420128213315889e-34, 3.873485817595444e-35], rtol=1e-12, atol=0.0)


class TestPoissonTable:
    """The Poisson exponent q of in-range node-column rows comes from a
    piecewise Chebyshev table in log lam (_q_table); everything else takes
    the direct kernel _poisson_decay."""

    @pytest.mark.parametrize("s", [0.05, 0.1, 0.25, 0.5, 0.75, 0.95])
    def test_matches_direct_kernel(self, s):
        # the direct kernel itself carries 3e-9 to 6e-9 of rounding noise in
        # q at the top decades, so no table agrees with it more closely
        m = HalfLineModel(FractionalOrder(s, 2))
        lams = np.geomspace(_Q_LO, _Q_HI, 500)
        direct = m._poisson_decay(lams, m._xi_nodes)
        np.testing.assert_allclose(m._tabled_decay(lams), direct, rtol=0.0, atol=1e-8)

    def test_nodes_return_their_rows(self, model_half):
        nodes, rows = model_half._q_table
        assert rows.shape == (_Q_PANELS * _Q_DEGREE + 1, model_half._xi_nodes.size)
        assert nodes[0] == pytest.approx(math.log(_Q_LO), rel=1e-15)
        assert nodes[-1] == pytest.approx(math.log(_Q_HI), rel=1e-15)
        assert_same_bits(model_half._tabled_decay(np.exp(nodes)), rows)

    def test_rows_outside_range_are_direct(self, monkeypatch):
        # with the range emptied every row takes the direct kernel; rows
        # below and above the range read the same bits with the table on
        lams = np.array([1e-12, 0.3 * _Q_LO, 1.5 * _Q_HI, 3e5, 1e9])
        m = HalfLineModel(FractionalOrder(0.3, 2))
        xi = m._xi_nodes
        tabled = m.gamma_values(np.concatenate([[0.5, 40.0], lams]), xi)[2:]
        monkeypatch.setattr(halfline, "_Q_HI", 0.0)
        assert_same_bits(tabled, HalfLineModel(m.order).gamma_values(lams, xi))

    def test_mixed_rows_match_single_lam(self):
        m = HalfLineModel(FractionalOrder(0.3, 2))
        lams = np.array([1e-9, 0.02, _Q_LO, 3.0, _Q_HI, 2e4, 700.0, 1e7, 0.02])
        xi, rows = m.gamma_table(lams)
        for lam, row in zip(lams, rows):
            np.testing.assert_allclose(row, m.gamma_table(lam)[1], rtol=1e-14, atol=0.0)

    def test_built_once_by_first_in_range_node_call(self, monkeypatch):
        m = HalfLineModel(FractionalOrder(0.3, 2))
        xi = m._xi_nodes
        outer_function(m, 2.0, 0.5)
        m.gamma_values(3.0, xi[1::20])
        m.gamma_values(np.array([0.5 * _Q_LO, 2.0 * _Q_HI]), xi)
        assert "_q_table" not in vars(m)
        sizes = []
        direct = HalfLineModel._poisson_decay

        def counting(self, lams, x):
            sizes.append(lams.size)
            return direct(self, lams, x)

        monkeypatch.setattr(HalfLineModel, "_poisson_decay", counting)
        m.gamma_table(np.array([0.3, 2.0, 700.0]))
        table = vars(m)["_q_table"]
        m.gamma_table(np.geomspace(1e-3, 1e3, 40))
        m.energy_shift(4.0)
        assert vars(m)["_q_table"] is table
        assert sizes == [_Q_PANELS * _Q_DEGREE + 1]
