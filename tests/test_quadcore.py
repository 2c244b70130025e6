import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracweyl.quadcore import (QuadratureSpec, IntegralResult, NonConvergenceError,
                               sphere_area, c_sd, integrate)


class TestSphereArea:
    def test_known(self):
        assert sphere_area(0) == pytest.approx(2.0, rel=1e-14)
        assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sphere_area(-1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_ball_volume(self, n):
        # radial integral of the surface measure reproduces the unit ball
        vol = sphere_area(n - 1) / n
        assert vol == pytest.approx(math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0),
                                    rel=1e-13)


class TestFormConstant:
    def test_one_dimensional_value(self):
        # double-integral oracle with a Gaussian, inner x-integral closed:
        # int (u(x)-u(x+r))^2 dx = 2 sqrt(pi) (1 - exp(-r^2/4)) for u = e^{-x^2/2},
        # Fourier side equals 1 at s = 1/2
        c = c_sd(0.5, 1)
        spec = QuadratureSpec(rel_tol=1e-10)
        lhs = 2.0 * c * integrate(
            lambda r: 2.0 * math.sqrt(math.pi) * (1.0 - np.exp(-r * r / 4.0)) / r ** 2,
            0.0, math.inf, spec).value
        rhs = integrate(lambda p: p * np.exp(-p * p), 0.0, math.inf, spec).value * 2.0
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_near_one_growth(self):
        # |Gamma(-s)| (1-s) -> 1 as s -> 1, so c_sd stays finite
        s = 0.999
        abs_gamma = math.pi / (math.sin(math.pi * s) * math.gamma(1.0 + s))
        assert abs_gamma * (1.0 - s) == pytest.approx(1.0, abs=2e-3)
        assert np.isfinite(c_sd(s, 2))

    def test_continuity(self):
        ss = np.linspace(0.1, 0.9, 33)
        vals = [c_sd(s, 2) for s in ss]
        steps = np.abs(np.diff(vals))
        assert steps.max() < 0.2

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                c_sd(bad, 2)


class TestIntegrate:
    def test_linear(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.err_estimate >= 0

    def test_exponential_tail(self):
        r = integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(rel_tol=1e-10, max_subdivisions=8)
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.sin(50.0 / (x + 1e-3)), 0.0, 1.0, spec)

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: np.sin(x) ** 2 * np.exp(-0.3 * x), 0.0, 50.0,
         None),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, math.pi / 2.0),
    ])
    def test_tightening_contract(self, f, a, b, exact):
        # halving tolerances moves the value by less than the reported error
        r1 = integrate(f, a, b, QuadratureSpec(rel_tol=1e-6))
        r2 = integrate(f, a, b, QuadratureSpec(rel_tol=1e-7))
        assert abs(r1.value - r2.value) <= max(r1.err_estimate, 1e-15)
        if exact is not None:
            assert r2.value == pytest.approx(exact, rel=1e-7)

    @given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_polynomials_exact(self, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        r = integrate(lambda x: poly(x), -1.0, 1.0)
        assert r.value == pytest.approx(exact, rel=1e-11, abs=1e-11)

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            IntegralResult(1.0, -0.5, 10)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

