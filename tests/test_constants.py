import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from hypothesis import given, settings, strategies as st

from fracweyl.halfline import FractionalOrder, DirichletLineModel
from fracweyl.constants import (bulk_coefficient, bulk_coefficient_quadrature,
                                surface_via_layer, surface_via_eigenfunctions,
                                surface_via_energy_shift, surface_local_exact,
                                surface_dirichlet_power, _layer_t_integral, _power_tail,
                                cesaro_riesz_convert, cesaro_riesz_invert,
                                eigenvalue_sum_coefficients)


class TestBulkCoefficient:
    def test_half_order_plane(self):
        assert bulk_coefficient(FractionalOrder(0.5, 2)) == pytest.approx(
            1.0 / (12.0 * math.pi), rel=1e-14)

    def test_matches_quadrature(self):
        for s, d in ((0.5, 2), (0.3, 3), (0.85, 2)):
            order = FractionalOrder(s, d)
            assert bulk_coefficient_quadrature(order) == pytest.approx(
                bulk_coefficient(order), rel=1e-8)

    def test_positive_and_continuous_to_one(self):
        vals = [bulk_coefficient(FractionalOrder(s, 2))
                for s in np.linspace(0.05, 0.999, 25)]
        assert all(v > 0 for v in vals)
        limit = bulk_coefficient(FractionalOrder(0.999, 2))
        # formula value continues smoothly toward the local coefficient
        from fracweyl.quadcore import sphere_area
        local = sphere_area(1) / (2 * math.pi) ** 2 * 2.0 / (2.0 * 4.0)
        assert limit == pytest.approx(local, rel=2e-3)


class TestLocalLayer:
    @pytest.mark.parametrize("d", [2, 3])
    def test_machinery_vs_exact(self, d):
        val, err = _layer_t_integral(DirichletLineModel(d).boundary_layer)
        assert val == pytest.approx(surface_local_exact(d), rel=1e-4)

    def test_trace_representation_oracle_d3(self):
        # the kernel-difference trace in d = 3 is exactly 1/4:
        # (1/pi) int_0^inf (pi/2) e^{-2t} dt
        from fracweyl.quadcore import sphere_area
        trace = 1.0 / math.pi * (math.pi / 2.0) / 2.0
        pref = sphere_area(1) / (2 * math.pi) ** 2 * 2.0 / (2.0 * 4.0)
        assert pref * trace == pytest.approx(surface_local_exact(3), rel=1e-13)

    def test_trace_representation_oracle_d2(self):
        # same trace via the modified Bessel closed form in d = 2
        from scipy.special import k0
        ts = np.geomspace(1e-6, 30.0, 4000)
        trace = trapezoid(k0(2.0 * ts), ts) / math.pi
        assert trace == pytest.approx(0.25, abs=1e-4)
        from fracweyl.quadcore import sphere_area
        pref = sphere_area(0) / (2 * math.pi) * 2.0 / (1.0 * 3.0)
        assert pref * 0.25 == pytest.approx(surface_local_exact(2), rel=1e-12)


class TestSurfaceRoutes:
    def test_route_agreement_half(self):
        order = FractionalOrder(0.5, 2)
        layer, e1 = surface_via_layer(order)
        eig, e2 = surface_via_eigenfunctions(order)
        shift, e3 = surface_via_energy_shift(order)
        assert layer == pytest.approx(eig, rel=0.01)
        # the shift route and the depth integral are the same number seen
        # through different integration orders; they agree tightly here
        assert layer == pytest.approx(shift, rel=1e-3)
        assert layer > 0

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_eigenfunction_route_within_layer_err(self, s, d):
        # verify-square's L2 is the eigenfunction route's: it lies inside the
        # canonical layer route's err (0.005 to 0.55 of it).  Orders pinned in
        # GOLDEN_SURFACE, which TestGoldenSurface ties to the live layer
        # route, take the layer value and err from there, not from a pass
        order = FractionalOrder(s, d)
        pinned = GOLDEN_SURFACE.get((s, d))
        layer, err = pinned[:2] if pinned else surface_via_layer(order)
        eig, _ = surface_via_eigenfunctions(order)
        assert abs(eig - layer) <= err

    def test_positive_below_dirichlet(self):
        order = FractionalOrder(0.5, 2)
        layer, _ = surface_via_layer(order)
        tilde, _ = surface_dirichlet_power(order)
        assert 0.0 < layer < tilde

    def test_dirichlet_scaling_limit(self):
        # the ratio degenerates to the local constant as s -> 1
        order = FractionalOrder(0.999, 2)
        tilde, _ = surface_dirichlet_power(order)
        assert tilde == pytest.approx(surface_local_exact(2), rel=2e-3)


# (L2, its err, L2_tilde, its err).  L2, L2_tilde and L2_tilde's err date
# from the per-depth evaluation of the boundary layer that the batched
# engine replaced; only summation order has moved them since.  The layer
# route's err is a power-tail fit to the small difference K(t) at t > 33,
# so it follows any rounding-level change in the density rows: its four
# entries are those of the tabled Poisson exponent (_q_table), 8e-12 to
# 5e-10 relative from the direct kernel's
GOLDEN_SURFACE = {
    (0.25, 2): (0.01229685454347272, 1.0274151284872696e-05,
                0.02652596158307536, 1.390544214590397e-05),
    (0.5, 2): (0.025328216744399893, 1.0753531489011976e-05,
               0.03978894237461304, 2.0858163218855955e-05),
    (0.75, 2): (0.03895988852598059, 1.5786105624398392e-05,
                0.04774673084953565, 2.5029795862627148e-05),
    (0.5, 3): (0.004659485469817581, 3.204912855315662e-07,
               0.00663151600090153, 8.128973573631816e-07),
}


class TestGoldenSurface:
    @pytest.mark.parametrize("s, d", sorted(GOLDEN_SURFACE))
    def test_layer_and_dirichlet_routes(self, s, d):
        order = FractionalOrder(s, d)
        got = surface_via_layer(order) + surface_dirichlet_power(order)
        np.testing.assert_allclose(got, GOLDEN_SURFACE[(s, d)], rtol=1e-12, atol=0.0)


class TestPowerTail:
    def test_exact_power_law(self):
        # c t^-p integrates to c T^(1-p)/(p-1) beyond T, for either sign
        t = np.linspace(30.0, 60.0, 16)
        for p in (1.5, 2.5):
            want = 3.0 * 60.0 ** (1.0 - p) / (p - 1.0)
            assert _power_tail(t, -3.0 * t ** -p, 60.0) == pytest.approx(want, rel=1e-10)

    def test_too_few_nonzero_samples(self):
        # the fit needs 4 nonzero samples; zeros must not reach log()
        t = np.linspace(50.0, 120.0, 6)
        with np.errstate(divide="raise"):
            assert _power_tail(t, np.zeros(6), 120.0) == 0.0
            assert _power_tail(t, np.array([0, 0, 0, 1e-3, 2e-4, 1e-4]), 120.0) == 0.0


class TestConversion:
    def test_unit_example(self):
        C, D = cesaro_riesz_convert(1.0, 0.0, 1.0, 0.0)
        assert C == pytest.approx(0.25, rel=1e-14)
        assert D == 0.0

    def test_zero_b_forces_zero_d(self):
        for a, b in ((1.0, 0.5), (0.8, 0.2), (2.0, 1.3)):
            _, D = cesaro_riesz_convert(3.0, 0.0, a, b)
            assert D == 0.0

    @given(A=st.floats(0.1, 10.0), B=st.floats(-5.0, 5.0),
           a=st.floats(0.2, 3.0), frac=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, A, B, a, frac):
        b = a - 1.0 + frac  # inside (a-1, a)
        C, D = cesaro_riesz_convert(A, B, a, b)
        A2, B2 = cesaro_riesz_invert(C, D, a, b)
        assert A2 == pytest.approx(A, rel=1e-10)
        assert B2 == pytest.approx(B, rel=1e-10, abs=1e-10)

    def test_brute_force_sequence_oracle(self):
        # lam_k = A (k^(a+1) - (k-1)^(a+1)) makes partial sums exact
        for A, a in ((1.0, 1.0), (2.0, 0.8)):
            k = np.arange(1, 500_001, dtype=float)
            lam = A * (k ** (a + 1.0) - (k - 1.0) ** (a + 1.0))
            C, _ = cesaro_riesz_convert(A, 0.0, a, a - 0.5)
            big = 1e4
            emp = float(np.clip(big - lam, 0.0, None).sum()) / big ** ((1.0 + a) / a)
            assert emp == pytest.approx(C, rel=5e-3)

    def test_inadmissible_exponents(self):
        with pytest.raises(ValueError):
            cesaro_riesz_convert(1.0, 0.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            cesaro_riesz_convert(-1.0, 0.0, 1.0, 0.5)

    def test_fractional_instance_matches_sum_side(self):
        # feeding the Riesz-side coefficients through the inverse map
        # reproduces the averaged-sum coefficients and their exponents
        order = FractionalOrder(0.5, 2)
        l1 = bulk_coefficient(order)
        l2 = 0.025
        c1, c2 = eigenvalue_sum_coefficients(order, 1.0, 4.0, l2=l2)
        a = 2.0 * order.s / order.d
        A, B = cesaro_riesz_invert(l1 * 1.0, l2 * 4.0, a, (2 * order.s - 1) / order.d)
        # with |Omega| = 1 the averaged-sum leading constant is A itself
        assert c1 == pytest.approx(A, rel=1e-12)
        assert c2 == pytest.approx(B / 4.0, rel=1e-12)
        # sequence oracle: lam_k built from (A, B) reproduces the Riesz
        # side's second term, -l2 |bdry| X^((1+b)/a), sign included; the
        # whole sum would hide it, being 2e-3 of the first term
        b = (2 * order.s - 1) / order.d
        k = np.arange(1, 2_000_001, dtype=float)
        lam = (A * (k ** (a + 1.0) - (k - 1.0) ** (a + 1.0))
               + B * (k ** (b + 1.0) - (k - 1.0) ** (b + 1.0)))
        big = 2e3
        emp = float(np.clip(big - lam, 0.0, None).sum())
        second = emp - l1 * big ** ((1.0 + a) / a)
        assert second == pytest.approx(-l2 * 4.0 * big ** ((1.0 + b) / a), rel=5e-3)

    def test_blumenthal_getoor_factor(self):
        order = FractionalOrder(0.5, 2)
        l1 = bulk_coefficient(order)
        c1, _ = eigenvalue_sum_coefficients(order, 1.0, 4.0, l2=0.025)
        a = 2.0 * order.s / order.d
        A, _ = cesaro_riesz_invert(l1, -0.1, a, (2 * order.s - 1) / order.d)
        # lam_N ~ A (a+1) N^a = (d+2s)/d * C1 N^(2s/d)
        assert A * (a + 1.0) == pytest.approx(
            (order.d + 2.0 * order.s) / order.d * c1, rel=1e-12)

    def test_volume_scaling(self):
        # the reported constant is universal; the absorbed prefactor
        # C1 |Omega|^(-2s/d) therefore scales by 2^(-2s/d) under doubling
        order = FractionalOrder(0.5, 2)
        c1_a, _ = eigenvalue_sum_coefficients(order, 1.0, 4.0, l2=0.025)
        c1_b, _ = eigenvalue_sum_coefficients(order, 2.0, 4.0, l2=0.025)
        assert c1_b == pytest.approx(c1_a, rel=1e-10)
        expo = -2.0 * order.s / order.d
        assert (c1_b * 2.0 ** expo) / c1_a == pytest.approx(2.0 ** expo, rel=1e-10)

