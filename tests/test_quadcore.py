import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracweyl.quadcore import IntegralResult, NonConvergenceError, sphere_area, integrate


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


class TestIntegrate:
    def test_linear(self):
        r = integrate(lambda x: x, 0.0, 1.0)
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.err_estimate >= 0

    def test_exponential_tail(self):
        r = integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_nonconvergence_raises(self):
        # the 2000-panel budget cannot resolve this oscillation to 1e-10
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: np.sin(50.0 / (x + 1e-3)), 0.0, 1.0, rel_tol=1e-10)

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: np.sin(x) ** 2 * np.exp(-0.3 * x), 0.0, 50.0,
         None),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, math.pi / 2.0),
    ])
    def test_tightening_contract(self, f, a, b, exact):
        # halving tolerances moves the value by less than the reported error
        r1 = integrate(f, a, b, rel_tol=1e-6)
        r2 = integrate(f, a, b, rel_tol=1e-7)
        assert abs(r1.value - r2.value) <= max(r1.err_estimate, 1e-15)
        if exact is not None:
            assert r2.value == pytest.approx(exact, rel=1e-7)

    @pytest.mark.parametrize("f,exact", [
        (lambda x: np.exp(-x), 1.0),
        (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
    ])
    def test_err_bounds_true_error_half_line(self, f, exact):
        r = integrate(f, 0.0, math.inf)
        assert abs(r.value - exact) <= r.err_estimate

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("d", [2, 3])
    def test_err_bounds_true_error_bulk_integrand(self, s, d):
        # the bulk coefficient's radial integrand, singular at r = 0
        r = integrate(lambda x: (1.0 - x ** (2.0 * s)) * x ** (d - 1.0), 0.0, 1.0)
        assert abs(r.value - (1.0 / d - 1.0 / (d + 2.0 * s))) <= r.err_estimate

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, math.inf), (2.0, math.inf)])
    def test_evaluations_count_abscissae(self, a, b):
        seen = []

        def f(x):
            seen.append(x.size)
            return np.exp(-x) * np.sqrt(x)

        r = integrate(f, a, b, rel_tol=1e-10)
        assert r.evaluations == sum(seen)

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
            integrate(lambda x: x, 0.0, 1.0, rel_tol=0.0)
