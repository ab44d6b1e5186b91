"""Acceptance gate: eight end-to-end criteria, each printing one
pass/fail line with its measured worst residual and stated tolerance."""

import math
import time

import numpy as np
import pytest

from twistedperiods.hypergeom import gamma_real, gauss_2f1, product_coeffs
from twistedperiods.matrices import HgParams
from twistedperiods.periods import wirtinger_quadrature
from twistedperiods.series import (TauPoint, lambda_tau, theta,
                                   theta_constants)
from twistedperiods.verify import (sample_admissible, verify_entry22,
                                   verify_series_identities, verify_tpr)

SWEEP_TAUS = (TauPoint(1j), TauPoint(1.3j), TauPoint(2j),
              TauPoint(0.3 + 1.2j))


def _report(label, worst, tol, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"\n[{label}] {status}: worst residual {worst:.3e} "
          f"(tolerance {tol:.0e}){tail}")


class TestAcceptance:
    def test_criterion_1_full_tpr(self):
        # relative Frobenius residual <= 1e-8, 100 draws x 4 tau, < 10 s
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            p = sample_admissible(rng)
            for tau in SWEEP_TAUS:
                r = verify_tpr(p, tau)[0]
                assert r.error is None
                worst = max(worst, r.residual)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 10.0
        _report("criterion 1: full twisted period relation", worst, 1e-8,
                ok, f"runtime {elapsed:.2f} s")
        assert ok

    def test_criterion_2_block_tpr_and_orthogonality(self):
        rng = np.random.default_rng(1001)
        worst_block, worst_orth = 0.0, 0.0
        for _ in range(100):
            p = sample_admissible(rng)
            for tau in SWEEP_TAUS:
                _, minus, plus, ro = verify_tpr(p, tau)
                for r in (minus, plus, ro):
                    assert r.error is None
                worst_block = max(worst_block, minus.residual, plus.residual)
                worst_orth = max(worst_orth, ro.residual)
        ok = worst_block <= 1e-8 and worst_orth <= 1e-12
        _report("criterion 2: block relations and orthogonality",
                worst_block, 1e-8, ok,
                f"orthogonality {worst_orth:.3e} (tolerance 1e-12)")
        assert ok

    def test_criterion_3_entry22(self):
        rng = np.random.default_rng(1003)
        taus = (TauPoint(1j), TauPoint(2j), TauPoint(0.3 + 1.2j))
        worst = 0.0
        for _ in range(50):
            p = sample_admissible(rng)
            a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
            for tau in taus:
                for r in verify_entry22(a, b, c, tau):
                    assert r.error is None
                    worst = max(worst, r.residual)
        ok = worst <= 1e-9
        _report("criterion 3: entry-(2,2) identity", worst, 1e-9, ok)
        assert ok

    def test_criterion_4_whipple_cancellation(self):
        rng = np.random.default_rng(1004)
        worst_cancel, worst_anchor = 0.0, 0.0
        draws = 0
        while draws < 40:
            a, b, c = rng.uniform(-2.0, 2.0, 3)
            guards = [c, 1.0 + c, 1.0 - c, a, b]
            if any(abs(g - round(g)) < 0.05 for g in guards):
                continue
            draws += 1
            coeffs = product_coeffs(12, a, b, c)
            worst_anchor = max(
                worst_anchor,
                abs(coeffs[0][0] - c),
                abs(coeffs[1][0] - (a - b + 1.0)))
            for c1, c2 in coeffs[2:]:
                worst_cancel = max(worst_cancel,
                                   abs(c1 + c2) / (1.0 + abs(c1)))
        ok = worst_cancel <= 1e-10 and worst_anchor <= 1e-12
        _report("criterion 4: product-coefficient cancellation",
                worst_cancel, 1e-10, ok,
                f"degree 0/1 anchors {worst_anchor:.3e} (tolerance 1e-12)")
        assert ok

    def test_criterion_5_identity_suite(self):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(20):
            tau = TauPoint(complex(rng.uniform(-0.45, 0.45),
                                   rng.uniform(0.5, 3.0)))
            for r in verify_series_identities(tau):
                assert r.error is None, f"{r.name}: {r.error}"
                worst = max(worst, r.residual)
        ok = worst <= 1e-10
        _report("criterion 5: theta-derivative identity suite", worst,
                1e-10, ok)
        assert ok

    def test_criterion_6_quadrature_cross_check(self):
        rng = np.random.default_rng(1006)
        taus = (TauPoint(1j), TauPoint(1.3j), TauPoint(2j))
        worst, slowest = 0.0, 0.0
        for k in range(20):
            alpha = rng.uniform(0.1, 0.9)
            gamma = alpha + rng.uniform(0.1, 0.9)
            beta = rng.uniform(max(0.05, gamma - 0.95), 0.95)
            p = HgParams(alpha, beta, gamma)
            tau = taus[k % 3]
            tc = theta_constants(tau)
            lam = lambda_tau(tau).real
            start = time.perf_counter()
            raw = wirtinger_quadrature(p, tau)
            slowest = max(slowest, time.perf_counter() - start)
            chain = (raw * 2.0 * math.pi * tc.th3_0.real ** 2
                     * lam ** ((1.0 - gamma) / 2.0)
                     * (1.0 - lam) ** ((gamma - alpha - beta) / 2.0))
            target = (gamma_real(alpha) * gamma_real(gamma - alpha)
                      / gamma_real(gamma)
                      * gauss_2f1(alpha, beta, gamma, lam).real)
            worst = max(worst, abs(chain - target) / abs(target))
        ok = worst <= 1e-8 and slowest < 0.1
        _report("criterion 6: quadrature vs Gauss closed form", worst,
                1e-8, ok, f"slowest integral {slowest * 1e3:.1f} ms")
        assert ok

    def test_criterion_7_euler_pairing_identity(self):
        from twistedperiods.matrices import unit_phase as e
        from twistedperiods.periods import euler_pairing_closed as pc
        rng = np.random.default_rng(1007)
        worst = 0.0
        draws = 0
        while draws < 10:
            a = rng.uniform(0.15, 0.85)
            b = rng.uniform(0.15, 0.85)
            c = rng.uniform(1.15, 1.85)
            if abs(c - a - 1.0) < 0.05 or abs(c - b - 1.0) < 0.05:
                continue
            draws += 1
            for z in (0.3, 0.5, 0.7):
                p1 = pc("1+", a, b, c, z) * pc("1-", a, b, c, z)
                p2 = pc("2+", a, b, c, z) * pc("2-", a, b, c, z)
                combo = ((1 - e(a)) * (1 - e(c - a)) / (1 - e(c)) * p1
                         + (1 - e(-b)) * (1 - e(b - c)) / (1 - e(-c)) * p2)
                product_display = (
                    2j * math.pi / (a * (a + 1.0))
                    * (c * gauss_2f1(a, b, c, z)
                       * gauss_2f1(-a - 1.0, 1.0 - b, -c, z)
                       + a * (a + 1.0) * (c - b) * (c - b + 1.0)
                       / (c * (1.0 + c) * (1.0 - c)) * z * z
                       * gauss_2f1(a + 2.0, b, 2.0 + c, z)
                       * gauss_2f1(1.0 - a, 1.0 - b, 2.0 - c, z)))
                linear = 2j * math.pi / (a * (a + 1.0)) * (
                    (a - b + 1.0) * z + c)
                worst = max(worst,
                            abs(combo - product_display) / abs(linear),
                            abs(combo - linear) / abs(linear))
        ok = worst <= 1e-8
        _report("criterion 7: Euler-pairing identity", worst, 1e-8, ok)
        assert ok

    def test_criterion_8_kernel_spot_checks(self):
        rng = np.random.default_rng(1008)
        worst = 0.0
        for tau in (TauPoint(1j), TauPoint(0.2 + 1.4j)):
            tc = theta_constants(tau)
            # log-derivative constant and the Jacobi quartic
            worst = max(worst, abs(
                tc.th1p_0 - math.pi * tc.th2_0 * tc.th3_0 * tc.th4_0)
                / abs(tc.th1p_0))
            worst = max(worst, abs(
                tc.th3_0 ** 4 - tc.th2_0 ** 4 - tc.th4_0 ** 4)
                / abs(tc.th3_0) ** 4)
            for _ in range(10):
                u = rng.uniform(-0.4, 0.4)
                # half-period translation and quasi-periodicity
                worst = max(worst, abs(
                    theta(1, u + 0.5, tau) - theta(2, u, tau)))
                worst = max(worst, abs(
                    theta(4, u + 0.5, tau) - theta(3, u, tau)))
                shift_factor = -np.exp(-1j * math.pi * (
                    tau.tau + 2.0 * u))
                worst = max(worst, abs(
                    theta(1, u + tau.tau, tau)
                    - shift_factor * theta(1, u, tau)))
        worst = max(worst, abs(
            complex(gauss_2f1(1.0, 1.0, 2.0, 0.5)).real
            - 2.0 * math.log(2.0)))
        ok = worst <= 1e-12
        _report("criterion 8: special-function kernel spot checks", worst,
                1e-12, ok)
        assert ok
