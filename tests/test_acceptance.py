"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[A#] ... PASS/FAIL` line (run with `pytest -s` to
see them on success) and then asserts, so a red criterion is both visible
and failing.
"""

import math

import numpy as np
import pytest

from fracweyl.quadcore import QuadratureSpec, integrate
from fracweyl.halfline import FractionalOrder, HalfLineModel
from fracweyl import constants as consts
from fracweyl import lattice
from fracweyl.localization import (LocalizationFamily, interval_geometry,
                                   disk_geometry, partition_check)

ORDERS_A4 = ((0.5, 2), (0.25, 2), (0.5, 3))


def report(tag: str, ok: bool, detail: str):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def weyl_sets():
    out = {}
    for s, d in ORDERS_A4:
        out[(s, d)] = consts.compute_weyl_coefficients(FractionalOrder(s, d))
    return out


@pytest.fixture(scope="module")
def model_half_acc():
    return HalfLineModel(FractionalOrder(0.5, 2))


def test_a1_phase_shift_limits():
    ok = True
    details = []
    for s in (0.25, 0.5, 0.75):
        m = HalfLineModel(FractionalOrder(s, 2))
        low = abs(m.phase_vec(1e-6))
        high = abs(m.phase_vec(1e6) - math.pi * (1.0 - s) / 4.0)
        grid = np.logspace(-3, 3, 100)
        mono = bool(np.all(np.diff(m.phase_vec(grid)) >= -1e-12))
        ok &= low < 1e-4 and high < 1e-3 and mono
        details.append(f"s={s}: |th(1e-6)|={low:.1e}, |th(1e6)-lim|={high:.1e}, "
                       f"monotone={mono}")
    report("A1", ok, "phase-shift limits and monotonicity; " + "; ".join(details))
    assert ok


def test_a2_laplace_chain_closure():
    spec = QuadratureSpec(rel_tol=1e-9)
    worst = 0.0
    for s in (0.3, 0.5, 0.7):
        m = HalfLineModel(FractionalOrder(s, 2))
        for lam in (0.5, 1.0, 2.0):
            xi, c = m.gamma_table(lam)
            for t in (0.3, 1.0, 3.0):
                g_num = integrate(
                    lambda u: np.exp(-t * u) * (np.exp(-np.multiply.outer(u, xi)) @ c),
                    0.0, math.inf, spec).value
                g_ref = m.closed_form_double_laplace(lam, t)
                worst = max(worst, abs(g_num - g_ref) / abs(g_ref))
    ok = worst < 1e-5
    report("A2", ok, f"double-Laplace closure over 27 points: worst rel "
                     f"residual {worst:.2e} (tol 1e-5); fixes the density "
                     f"denominator reading")
    assert ok


def test_a3_two_term_weyl_square():
    s = 0.5
    order = FractionalOrder(s, 2)
    dom = lattice.square_domain(64)
    hs = np.geomspace(4.0 * dom.spacing, 0.25, 6)
    spec = lattice.lowest_spectrum(dom, s, hs.min() ** (-2.0 * s))
    fit = lattice.two_term_fit([(h, lattice.riesz_mean(spec, h, s)) for h in hs], 2)
    l1 = consts.bulk_coefficient(order)
    l2, _ = consts.surface_via_layer(order)
    rel0 = abs(fit.c0 - l1 * dom.volume) / (l1 * dom.volume)
    rel1 = abs(fit.c1 + l2 * dom.surface) / (l2 * dom.surface)
    ok = rel0 < 0.03 and rel1 < 0.25
    report("A3", ok, f"unit-square fit: c0 rel dev {rel0:.3f} (tol 0.03), "
                     f"c1 rel dev {rel1:.3f} (tol 0.25)")
    assert ok


def test_a4_route_agreement(weyl_sets):
    ok = True
    details = []
    for (s, d), coefs in weyl_sets.items():
        vals = {name: coefs[name][0]
                for name in ("L2", "L2_eigenfunction", "L2_energy_shift")}
        worst = max(abs(vals[a] - vals[b]) / max(abs(vals[a]), abs(vals[b]))
                    for a in vals for b in vals if a < b)
        ok &= worst < 0.01
        details.append(f"(s={s},d={d}): worst pair {worst:.1e}")
    report("A4", ok, "surface-route pairwise agreement (tol 1e-2); "
           + "; ".join(details))
    assert ok


def test_a5_sign_and_comparison(weyl_sets):
    ok = True
    details = []
    for (s, d), coefs in weyl_sets.items():
        (l2, l2_err, _), (tilde, tilde_err, _) = coefs["L2"], coefs["L2_tilde"]
        err = l2_err + tilde_err
        positive = l2 > err
        below = tilde - l2 > err
        ok &= positive and below
        details.append(f"(s={s},d={d}): L2={l2:.5f} > 0, "
                       f"tilde-L2-L2={tilde - l2:.5f} "
                       f"> err {err:.1e}")
    report("A5", ok, "positivity and Dirichlet-power comparison; "
           + "; ".join(details))
    assert ok


def test_a6_operator_ordering():
    ok = True
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        r1 = lattice.operator_order_check(lattice.interval_domain(64), s)
        r2 = lattice.operator_order_check(
            lattice.LatticeDomain((20, 20), 0.05), s)
        ok &= r1.passed and r2.passed
        worst = min(worst, r1.quantities["min_eig"] / r1.quantities["norm"],
                    r2.quantities["min_eig"] / r2.quantities["norm"])
    report("A6", ok, f"Dirichlet power dominates restricted operator on both "
                     f"masks; most negative normalized eigenvalue {worst:.1e} "
                     f"(tol -1e-8)")
    assert ok


def test_a7_halfspace_kernel_law(model_half_acc):
    rep = lattice.halfspace_kernel_check(0.5, 0.5, model=model_half_acc)
    q = rep.quantities
    rows = q["rows"]
    mid = max(r[2] for r in rows)
    wall_depleted = rows[0][2] < 0.5 * mid
    ok = rep.passed and q["interior_rel"] < 0.05 and wall_depleted
    report("A7", ok, f"half-space diagonal vs h^-2(L1 - K(x/h)): worst rel "
                     f"{q['worst_rel_in_window']:.3f} on x/h in [0.5,4] "
                     f"(tol 0.10), interior rel {q['interior_rel']:.3f} "
                     f"(tol 0.05), wall depletion {wall_depleted}")
    assert ok


def test_a8_unitarity_and_projection(model_half_acc):
    m = model_half_acc
    spec = QuadratureSpec(rel_tol=1e-7)
    # transforms of x^k e^{-beta x} have closed sine and tail moments
    cases = [(1, 1.0, 0.25), (2, 1.0, 0.75), (1, 2.0, 1.0 / 32.0)]
    worst_u = 0.0
    for k, beta, norm2 in cases:
        fact = math.factorial(k)

        def transform(lams):
            out = np.empty_like(np.atleast_1d(lams))
            for i, lam in enumerate(np.atleast_1d(lams)):
                th = m.phase_vec(lam)
                z = complex(math.cos(th), math.sin(th)) * fact \
                    / complex(beta, -lam) ** (k + 1)
                xi, c = m.gamma_table(lam)
                tail = fact * float(np.dot(c, (beta + xi) ** (-(k + 1.0))))
                out[i] = math.sqrt(2.0 / math.pi) * (z.imag - tail)
            return out ** 2

        val = integrate(transform, 0.0, 300.0, spec).value
        worst_u = max(worst_u, abs(val - norm2) / norm2)
    ok_u = worst_u < 1e-3

    worst_p = 0.0
    for t_, u_, mu in ((1.0, 2.0, 4.0), (0.5, 1.5, 3.0), (2.0, 0.7, 6.0)):
        ref = m.projector_profile(t_, [u_], mu)[0]
        dw = 0.02
        ws = np.arange(dw / 2.0, 240.0, dw)
        prod = m.projector_profile(t_, ws, mu) * m.projector_profile(u_, ws, mu)
        cum = np.cumsum(prod) * dw
        per = math.pi / math.sqrt(mu ** (1.0 / 0.5) - 1.0)

        def cesaro(T):
            i0, i1 = int((T - 4 * per) / dw), int(T / dw)
            return float(cum[i0:i1].mean())

        val = 2.0 * cesaro(240.0) - cesaro(120.0)
        worst_p = max(worst_p, abs(val - ref))
    ok_p = worst_p < 1e-3
    ok = ok_u and ok_p
    report("A8", ok, f"Plancherel on 3 test functions: worst rel {worst_u:.2e} "
                     f"(tol 1e-3); projector idempotence at 3 points: worst "
                     f"abs {worst_p:.2e} (tol 1e-3)")
    assert ok


def test_a9_partition_of_unity():
    rng = np.random.default_rng(20240817)
    ok = True
    details = []
    fam_i = LocalizationFamily(interval_geometry(4.0), 0.25)
    pts = rng.uniform(0.3, 3.7, size=20)
    err_c = max(abs(partition_check([x], fam_i, 4) - 1.0) for x in pts)
    err_f = max(abs(partition_check([x], fam_i, 8) - 1.0) for x in pts)
    ok &= err_f < 1e-3 and err_f <= 0.6 * err_c + 1e-12
    details.append(f"interval: finest err {err_f:.1e}, halving {err_f / err_c:.2f}")
    fam_d = LocalizationFamily(disk_geometry(2.0), 0.25)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=20)
    radii = 1.7 * np.sqrt(rng.uniform(0.0, 1.0, size=20))
    err_c = max(abs(partition_check((r * math.cos(a), r * math.sin(a)), fam_d, 6) - 1.0)
                for r, a in zip(radii, angles))
    err_f = max(abs(partition_check((r * math.cos(a), r * math.sin(a)), fam_d, 12) - 1.0)
                for r, a in zip(radii, angles))
    ok &= err_f < 1e-3 and err_f <= 0.6 * err_c + 1e-12
    details.append(f"disk: finest err {err_f:.1e}, halving {err_f / err_c:.2f}")
    report("A9", ok, "partition-of-unity quadrature at 20 random points "
                     "(tol 1e-3, error halving); " + "; ".join(details))
    assert ok


def test_a10_conversion_oracle():
    worst_fit = 0.0
    for A, a in ((1.0, 1.0), (2.0, 0.8)):
        C, D = consts.cesaro_riesz_convert(A, 0.0, a, a - 0.5)
        assert D == 0.0
        k = np.arange(1, 2_000_001, dtype=float)
        lam = A * (k ** (a + 1.0) - (k - 1.0) ** (a + 1.0))
        big = 1e4
        emp = float(np.clip(big - lam, 0.0, None).sum()) / big ** ((1.0 + a) / a)
        worst_fit = max(worst_fit, abs(emp - C) / C)
    ok_fit = worst_fit < 5e-3

    rng = np.random.default_rng(11)
    worst_rt = 0.0
    for _ in range(50):
        A = rng.uniform(0.1, 10.0)
        B = rng.uniform(-5.0, 5.0)
        a = rng.uniform(0.2, 3.0)
        b = a - 1.0 + rng.uniform(0.01, 0.99)
        C, D = consts.cesaro_riesz_convert(A, B, a, b)
        A2, B2 = consts.cesaro_riesz_invert(C, D, a, b)
        worst_rt = max(worst_rt, abs(A2 - A) / A, abs(B2 - B) / max(abs(B), 1.0))
    ok_rt = worst_rt < 1e-10
    ok = ok_fit and ok_rt
    report("A10", ok, f"sequence-sum oracle: worst fit dev {worst_fit:.2e} "
                      f"(tol 5e-3); round-trip worst {worst_rt:.1e} (tol 1e-10)")
    assert ok
