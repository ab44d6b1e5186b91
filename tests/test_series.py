"""Theta kernels: q-series values, identities, elliptic functions as theta
ratios, Taylor and Laurent coefficients.  Reference values were frozen from
a 30-digit independent implementation."""

import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from twistedperiods import series, verify
from twistedperiods.matrices import HgParams
from twistedperiods.series import (SeriesError, TauPoint, eisenstein_g2,
                                   g2_lambert, lambda_tau, q_terms, theta,
                                   theta_constants, theta_taylor)
from twistedperiods.verify import (_laurent_coefficients, verify_entry22,
                                   verify_series_identities, verify_tpr)

TAU_I = TauPoint(1j)

# 30-digit oracle values
THETA3_0_I = 1.0864348112133080146
THETA2_0_I = 0.91357913815611682141
THETA1_QUARTER_I = 0.64358976403858588409
THETA4_031_13I = 1.0123974228392743652
THETA1P_0_I = 2.8486946039877873161
LAMBDA_2I = 0.02943725152285941438
G2_I = 3.1415926535897932385
SN_03_I = 0.853879790491613553
CN_03_I = 0.52047027137964195637
DN_03_I = 0.79714782298830815567


def _g2_at(x):
    """G2 from the Lambert series in the nome x: the identity suite's
    route to G2(2 tau) and G2(tau/2)."""
    return g2_lambert(*q_terms(x))


def _g2_double(tau):
    """G2(2 tau), at the nome of 2 tau reduced mod 8."""
    return _g2_at(cmath.exp(4j * math.pi * tau.tau_mod8))


class TestTauPoint:
    def test_caches_nomes(self):
        t = TauPoint(0.3 + 1.2j)
        assert t.q == pytest.approx(np.exp(2j * np.pi * (0.3 + 1.2j)))
        assert t.q_half == pytest.approx(np.exp(1j * np.pi * (0.3 + 1.2j)))
        assert abs(t.q) < 1.0

    def test_imaginary_part_floor(self):
        with pytest.raises(SeriesError):
            TauPoint(0.05j)

    @pytest.mark.parametrize("tau_val", [50.01j, 0.3 + 80j, 1000j])
    def test_imaginary_part_ceiling(self, tau_val):
        with pytest.raises(SeriesError, match="above ceiling"):
            TauPoint(tau_val)

    def test_checks_finite_up_to_the_ceiling(self):
        # G2(2 tau) lies above the ceiling here and is still summed
        tau = TauPoint(0.3 + 50j)
        results = [*verify_series_identities(tau),
                   *verify_entry22(0.2, 0.3, 0.6, tau)]
        assert all(r.passed for r in results)
        assert _g2_double(tau) == pytest.approx(math.pi**2 / 3.0, rel=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(SeriesError):
            TauPoint(complex("inf"))


def _count_constants_builds(monkeypatch) -> Counter:
    """Empty the theta-constant and identity-suite caches and count, by
    theta index, the Taylor series built from now on, whichever module
    calls ``theta_taylor``: each build takes one term table at real u."""
    built = Counter()
    original = series._theta_terms

    def counting(j, tau, im_u, order=0):
        built[j] += 1
        return original(j, tau, im_u, order)

    monkeypatch.setattr(series, "_theta_terms", counting)
    series.theta_constants.cache_clear()
    verify._series_residuals.cache_clear()
    return built


def _kernel_bytes(tau_val) -> bytes:
    """Every kernel value at ``tau_val``, computed afresh: the theta
    constants, lambda, G2 at tau and tau/2, and the identity suite's
    residuals, which also read G2(2 tau)."""
    series.theta_constants.cache_clear()
    verify._series_residuals.cache_clear()
    tau = TauPoint(tau_val)
    tc = theta_constants(tau)
    return np.array([tc.th2_0, tc.th3_0, tc.th4_0, tc.th1p_0, tc.th1ppp_0,
                     tc.th2pp_0, tc.th3pp_0, tc.th4pp_0, lambda_tau(tau),
                     eisenstein_g2(tau), _g2_at(tau.q_half),
                     *verify._series_residuals(tau)]).tobytes()


class TestKernelContext:
    """Each tau's theta constants are computed once per process; lambda
    and G2 are plain functions of the point, and the point keeps none of
    them."""

    def test_taylor_series_built_once_per_theta_index(self, monkeypatch):
        built = _count_constants_builds(monkeypatch)
        tau = TauPoint(0.3 + 1.2j)
        p = HgParams(0.30, 0.21, 0.77)
        results = [*verify_tpr(p, tau), *verify_entry22(0.2, 0.3, 0.6, tau)]
        assert all(r.passed for r in results)
        assert built == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_identity_suite_builds_only_the_constants(self, monkeypatch):
        # its Laurent coefficients come from the theta constants, so a
        # fresh tau costs the four Taylor series behind them and no more
        built = _count_constants_builds(monkeypatch)
        results = verify_series_identities(TauPoint(0.3 + 1.2j))
        assert all(r.passed for r in results)
        assert built == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_points_at_one_tau_share_one_build(self, monkeypatch):
        built = _count_constants_builds(monkeypatch)
        first, second = TauPoint(0.3 + 1.2j), TauPoint(0.3 + 1.2j)
        assert theta_constants(second) is theta_constants(first)
        assert lambda_tau(second) == lambda_tau(first)
        assert eisenstein_g2(second) == eisenstein_g2(first)
        assert built == {1: 1, 2: 1, 3: 1, 4: 1}

    def test_signed_zero_real_part_shares_bitwise_equal_values(self):
        # TauPoint(+0.0 + it) == TauPoint(-0.0 + it), so both read one
        # cache entry; that is sound because their sums agree to the bit
        for t in np.linspace(0.1, 50.0, 1000):
            assert _kernel_bytes(complex(0.0, t)) == _kernel_bytes(
                complex(-0.0, t))

    def test_caches_stay_at_their_bound(self):
        caches = (series.theta_constants, verify._series_residuals)
        for cache in caches:
            cache.cache_clear()
        for k in range(series.KERNEL_CACHE_SIZE + 1):
            verify_series_identities(TauPoint(complex(0.1 * k, 1.0 + k / 64)))
        for cache in caches:
            info = cache.cache_info()
            assert info.currsize == info.maxsize == series.KERNEL_CACHE_SIZE

    def test_public_functions_read_the_point(self):
        tau = TauPoint(1.3j)
        tc = theta_constants(tau)
        assert theta_constants(TauPoint(1.3j)) is tc
        assert lambda_tau(tau) == (tc.th2_0 / tc.th3_0) ** 4
        assert eisenstein_g2(tau) == _g2_at(tau.q)
        assert _g2_double(tau) == eisenstein_g2(TauPoint(2.6j))
        assert _g2_at(tau.q_half) == eisenstein_g2(TauPoint(0.65j))

    def test_identity_unchanged_by_filled_cache(self):
        tau = TauPoint(0.3 + 1.2j)
        before = (repr(tau), hash(tau))
        theta_constants(tau), lambda_tau(tau), eisenstein_g2(tau)  # fill
        verify_series_identities(tau)
        assert (repr(tau), hash(tau)) == before
        assert set(vars(tau)) == {"tau", "q", "q_half", "tau_mod8"}
        fresh = TauPoint(0.3 + 1.2j)
        assert tau == fresh and hash(tau) == hash(fresh)
        assert len({tau, fresh}) == 1

    def test_scaled_point_has_its_own_values(self):
        tau = TauPoint(2j)
        half = TauPoint(0.5 * tau.tau)
        assert theta_constants(half) is not theta_constants(tau)
        assert lambda_tau(half) == lambda_tau(TauPoint(1j))
        assert complex(lambda_tau(half)).real == pytest.approx(0.5, abs=1e-12)
        assert eisenstein_g2(half) == _g2_at(tau.q_half)
        assert complex(eisenstein_g2(half)).real == pytest.approx(
            G2_I, rel=1e-13)

    def test_g2_half_below_floor_matches_mpmath(self):
        # tau/2 falls below the Im floor; G2(tau/2) is summed in q_half,
        # so the whole identity suite runs there
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(0.15j)
        with mpmath.workdps(30):
            # G2 = -(pi^2/3) theta1'''(0)/theta1'(0) at the nome of tau/2
            nome = mpmath.exp(0.5j * mpmath.pi * mpmath.mpc(tau.tau))
            ref = complex(-mpmath.pi**2 / 3 * mpmath.jtheta(1, 0, nome, 3)
                          / mpmath.jtheta(1, 0, nome, 1))
        assert _g2_at(tau.q_half) == pytest.approx(ref, rel=1e-14)
        results = verify_series_identities(tau)
        assert len(results) == 15 and all(r.passed for r in results)


def _real_prefactor_theta(j, x, tau):
    """theta_j at real x as summed before real and complex u shared one
    path: the real and imaginary prefactors summed apart over one real
    table at x - round(x).  Returns the values and the sums of the terms'
    magnitudes."""
    n = np.rint(x) + 0.0
    freq, pref = series._theta_terms(j, tau, 0.0)
    trig = np.sin if j == 1 else np.cos
    re, im = series.trig_sums(trig, x - n, freq, pref.real.copy(),
                              pref.imag.copy())
    total = re.astype(complex)
    total.imag = im
    if j in (1, 2):
        np.negative(total, out=total, where=n % 2.0 != 0.0)
    return total, np.abs(trig(np.outer(x - n, freq))) @ np.abs(pref)


class TestTheta:
    def test_theta1_vanishes_at_origin(self):
        assert abs(theta(1, 0.0, TAU_I)) < 1e-15

    def test_theta3_value_at_i(self):
        assert complex(theta(3, 0.0, TAU_I)).real == pytest.approx(
            THETA3_0_I, rel=1e-14)

    def test_theta1_value(self):
        assert complex(theta(1, 0.25, TAU_I)).real == pytest.approx(
            THETA1_QUARTER_I, rel=1e-14)

    def test_theta4_complex_tau_free_value(self):
        assert complex(theta(4, 0.31, TauPoint(1.3j))).real == pytest.approx(
            THETA4_031_13I, rel=1e-14)

    def test_invalid_index(self):
        with pytest.raises(SeriesError):
            theta(5, 0.1, TAU_I)
        for j in (0, 5):
            with pytest.raises(SeriesError, match="invalid theta index"):
                theta_taylor(j, 2, TAU_I)

    def test_non_finite_u(self):
        with pytest.raises(SeriesError):
            theta(1, float("nan"), TAU_I)

    def test_vectorized(self):
        u = np.linspace(0.1, 0.4, 7)
        vals = theta(2, u, TAU_I)
        assert vals.shape == u.shape
        assert complex(vals[0]) == pytest.approx(complex(theta(2, u[0], TAU_I)))

    @pytest.mark.parametrize("seed", range(5))
    def test_half_period_translations(self, seed):
        # theta2(u) = -theta1(u - 1/2), theta3(u) = theta4(u - 1/2),
        # theta1(u) = theta2(u - 1/2)
        rng = np.random.default_rng(seed)
        u = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        tau = TauPoint(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)))
        t2 = complex(theta(2, u, tau))
        assert t2 == pytest.approx(-complex(theta(1, u - 0.5, tau)), rel=1e-11)
        assert complex(theta(3, u, tau)) == pytest.approx(
            complex(theta(4, u - 0.5, tau)), rel=1e-11)
        assert complex(theta(1, u, tau)) == pytest.approx(
            complex(theta(2, u - 0.5, tau)), rel=1e-11)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
            tau = TauPoint(complex(rng.uniform(-0.5, 0.5),
                                   rng.uniform(0.8, 2.5)))
            t1 = complex(theta(1, u, tau))
            assert complex(theta(1, u + 1, tau)) == pytest.approx(
                -t1, rel=1e-11, abs=1e-13)
            factor = -np.exp(2j * np.pi * (-tau.tau / 2.0 - u))
            assert complex(theta(1, u + tau.tau, tau)) == pytest.approx(
                factor * t1, rel=1e-11, abs=1e-13)

    def test_theta1_small_argument_relative_accuracy(self):
        tc = theta_constants(TAU_I)
        for x in (1e-8, 1e-14, 1e-100):
            val = complex(theta(1, x, TAU_I))
            assert val == pytest.approx(complex(tc.th1p_0) * x, rel=1e-13)

    @pytest.mark.parametrize("tau_re", [-0.5, -0.2, 0.0, 0.3, 0.5])
    @pytest.mark.parametrize("tau_im", [0.1, 0.35, 1.0, 3.0])
    def test_matches_mpmath(self, tau_re, tau_im):
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(complex(tau_re, tau_im))
        x = np.array([-0.83, -0.31, 0.07, 0.19, 0.42, 0.64])
        # complex points stay clear of the zeros at Im u = +-Im(tau)/2
        z = x + 1j * tau_im * np.array([-0.4, -0.25, 0.1, 0.3, 0.45, -0.1])
        with mpmath.workdps(30):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))
            for j in (1, 2, 3, 4):
                for u in (x, z):
                    vals = theta(j, u, tau)
                    for k in range(len(u)):
                        ref = complex(mpmath.jtheta(
                            j, mpmath.pi * mpmath.mpc(complex(u[k])), nome))
                        assert abs(vals[k] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("tau_val", [0.1j, 0.37 + 0.6j, -0.5 + 1.7j, 3j])
    def test_array_matches_scalar_bitwise(self, tau_val):
        tau = TauPoint(tau_val)
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 257)
        for j in (1, 2, 3, 4):
            vals = theta(j, x, tau)
            for k in range(len(x)):
                assert vals[k] == theta(j, float(x[k]), tau)
        grid = x[:256].reshape(16, 16)
        assert np.array_equal(theta(3, grid, tau),
                              theta(3, x[:256], tau).reshape(16, 16))

    @pytest.mark.parametrize("tau_val", [
        complex(re, im) for re in (-0.5, -0.13, 0.0, 1e-13, 0.37)
        for im in (0.1, 0.45, 1.0, 3.7, 50.0)])
    def test_cached_term_tables_match_theta_terms(self, tau_val):
        # real u once summed the real and imaginary prefactors apart, over
        # tables cached on the point; that sum is the reference, and only
        # the summation order differs, so the two agree to a few ulps of
        # the summed magnitudes
        tau = TauPoint(tau_val)
        x = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, 64),
                            [-0.5, -0.0, 0.0, 0.5, 1e-300, 7.25, -1e10]])
        for j in (1, 2, 3, 4):
            ref, magnitude = _real_prefactor_theta(j, x, tau)
            vals = theta(j, x, tau)
            assert (np.abs(vals - ref)
                    <= 8.0 * np.finfo(float).eps * magnitude).all()

    @pytest.mark.parametrize("u", [1e10, -1e10, 3.0, 2.0**52 + 1, 1e300])
    def test_theta1_vanishes_at_large_integers(self, u):
        assert theta(1, u, TAU_I) == 0.0
        tau = TauPoint(0.3 + 0.7j)
        assert theta(1, np.array([u, -u]), tau).tolist() == [0.0, 0.0]

    def test_large_real_u_is_reduced_exactly(self):
        assert theta(3, 1e300, TAU_I) == theta(3, 0.0, TAU_I)
        assert theta(4, 1e10, TAU_I) == theta(4, 0.0, TAU_I)
        assert theta(2, 2.0**52 + 1, TAU_I) == -theta(2, 0.0, TAU_I)

    @pytest.mark.parametrize("n", [1, -1, 2, 7, -12, 2**20 + 1, -2**40])
    def test_integer_translations_exact(self, n):
        # u + n is exact for these u, so theta_j(u + n) is
        # (-1)^n theta_j(u) for j = 1, 2 and theta_j(u) for j = 3, 4,
        # bit for bit
        tau = TauPoint(0.21 + 0.8j)
        x = np.array([0.25, -0.375, 0.125, -0.0625, 0.4375, 0.0])
        z = x + 1j * np.array([0.3, -0.1, 0.0, 0.25, -0.35, 0.2])
        for u in (x, z):
            for j in (1, 2, 3, 4):
                sign = (-1.0) ** n if j in (1, 2) else 1.0
                assert np.array_equal(theta(j, u + n, tau),
                                      sign * theta(j, u, tau))

    @pytest.mark.parametrize("tau_val", [0.37 + 0.6j, 1j])
    def test_reduction_keeps_points_within_half(self, tau_val):
        # |Re u| <= 1/2 is summed as given, -0.0 included
        tau = TauPoint(tau_val)
        x = np.array([-0.5, -0.31, -0.0, 0.0, 1e-300, 0.2, 0.5])
        for j in (1, 2, 3, 4):
            freq, pref = series._theta_terms(j, tau, 0.0)
            trig = np.sin if j == 1 else np.cos
            (total,) = series.trig_sums(trig, x, freq, pref)
            assert theta(j, x, tau).tobytes() == total.tobytes()

    def test_large_real_u_matches_mpmath(self):
        # at its default precision mpmath loses the same digits to pi u
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(0.3 + 1.1j)
        u = np.array([1e10 + 0.25, -3e12 - 0.125, 12345.6789])
        with mpmath.workdps(40):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))
            for j in (1, 2, 3, 4):
                vals = theta(j, u, tau)
                for k in range(len(u)):
                    ref = complex(mpmath.jtheta(
                        j, mpmath.pi * mpmath.mpf(float(u[k])), nome))
                    assert abs(vals[k] - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("u, tau_val", [
        (0.1 + 50j, 0.1j),     # the bound needs more than MAX_TERMS terms
        (0.1 + 200j, 3j),      # cosh(2 pi mu Im u) overflows
        (1e200j, 1j),          # the term bound itself overflows
    ])
    def test_term_cap_and_overflow_raise(self, u, tau_val):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesError):
                theta(1, u, TauPoint(tau_val))
            with pytest.raises(SeriesError):
                theta(3, np.array([0.2, u]), TauPoint(tau_val))


class TestThetaConstants:
    def test_theta2_equals_theta4_at_i(self):
        tc = theta_constants(TAU_I)
        assert complex(tc.th2_0) == pytest.approx(complex(tc.th4_0), rel=1e-13)
        assert complex(tc.th2_0).real == pytest.approx(THETA2_0_I, rel=1e-14)

    def test_theta1_prime_product_formula(self):
        for tau in (TAU_I, TauPoint(1.7j), TauPoint(0.3 + 1.2j)):
            tc = theta_constants(tau)
            product = math.pi * tc.th2_0 * tc.th3_0 * tc.th4_0
            assert complex(tc.th1p_0) == pytest.approx(complex(product),
                                                       rel=1e-12)
        assert complex(theta_constants(TAU_I).th1p_0).real == pytest.approx(
            THETA1P_0_I, rel=1e-14)

    def test_jacobi_quartic_identity(self):
        for tau in (TAU_I, TauPoint(1.3j), TauPoint(0.4 + 1.1j)):
            tc = theta_constants(tau)
            assert complex(tc.th3_0**4) == pytest.approx(
                complex(tc.th2_0**4 + tc.th4_0**4), rel=1e-12)

    def test_log_derivative_sum_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tau = TauPoint(complex(rng.uniform(-0.5, 0.5),
                                   rng.uniform(0.6, 3.0)))
            tc = theta_constants(tau)
            lhs = tc.th1ppp_0 / tc.th1p_0
            rhs = (tc.th2pp_0 / tc.th2_0 + tc.th3pp_0 / tc.th3_0
                   + tc.th4pp_0 / tc.th4_0)
            assert complex(lhs) == pytest.approx(complex(rhs), rel=1e-11)

    def test_theta2_ratio_limit(self):
        # as q -> 0 the ratio theta2''/theta2 tends to -pi^2
        tc = theta_constants(TauPoint(8j))
        assert complex(tc.th2pp_0 / tc.th2_0).real == pytest.approx(
            -math.pi**2, rel=1e-8)


class TestLambdaAndG2:
    def test_lambda_at_i(self):
        assert complex(lambda_tau(TAU_I)).real == pytest.approx(0.5, abs=1e-12)

    def test_lambda_at_2i(self):
        assert complex(lambda_tau(TauPoint(2j))).real == pytest.approx(
            LAMBDA_2I, rel=1e-13)

    def test_lambda_leading_order(self):
        val = complex(lambda_tau(TauPoint(5j))).real
        assert val == pytest.approx(16.0 * math.exp(-5 * math.pi), rel=0.01)

    def test_lambda_decays(self):
        assert abs(lambda_tau(TauPoint(8j))) < 1e-9

    def test_g2_at_i(self):
        assert complex(eisenstein_g2(TAU_I)).real == pytest.approx(
            G2_I, rel=1e-13)

    @pytest.mark.parametrize("tau_re", [200.3, 2e6 + 0.3, 2e9 + 0.3,
                                        -2e9 - 0.3, 123456.75])
    def test_large_real_part_matches_mpmath(self, tau_re):
        # every series has period 8 in tau and is summed at Re tau mod 8;
        # summed at tau itself, lambda was off by 4.2e-7 at 2e9 + 0.3
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(complex(tau_re, 1.1))
        with mpmath.workdps(60):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))

            def g2(x):
                return complex(-mpmath.pi**2 / 3 * mpmath.jtheta(1, 0, x, 3)
                               / mpmath.jtheta(1, 0, x, 1))

            expect = {
                "lam": complex((mpmath.jtheta(2, 0, nome)
                                / mpmath.jtheta(3, 0, nome)) ** 4),
                "g2": g2(nome), "g2_double": g2(nome**2),
                "g2_half": g2(mpmath.sqrt(nome)),
                "theta": [complex(mpmath.jtheta(j, mpmath.pi * 0.3, nome))
                          for j in (1, 2, 3, 4)],
            }
        assert lambda_tau(tau) == pytest.approx(expect["lam"], rel=1e-14)
        g2 = {"g2": eisenstein_g2(tau), "g2_double": _g2_double(tau),
              "g2_half": _g2_at(tau.q_half)}
        for name, value in g2.items():
            assert value == pytest.approx(expect[name], rel=1e-14)
        assert [theta(j, 0.3, tau) for j in (1, 2, 3, 4)] == pytest.approx(
            expect["theta"], rel=1e-14)
        results = verify_series_identities(tau)
        assert len(results) == 15 and all(r.passed for r in results)

    def test_g2_limit(self):
        assert complex(eisenstein_g2(TauPoint(8j))).real == pytest.approx(
            math.pi**2 / 3.0, rel=1e-8)

    @pytest.mark.parametrize("tau_val", [1j, 2j])
    def test_g2_combinations(self, tau_val):
        tau = TauPoint(tau_val)
        lam = lambda_tau(tau)
        t34 = theta_constants(tau).th3_0**4
        combo1 = 2.0 * eisenstein_g2(TauPoint(2.0 * tau.tau)) - eisenstein_g2(tau)
        assert complex(combo1) == pytest.approx(
            complex(math.pi**2 / 3.0 * (1.0 - lam / 2.0) * t34), rel=1e-11)
        combo3 = 2.0 * eisenstein_g2(tau) - eisenstein_g2(TauPoint(0.5 * tau.tau))
        assert complex(combo3) == pytest.approx(
            complex(math.pi**2 / 3.0 * (1.0 + lam) * t34), rel=1e-11)


def _elliptic(kind, u, tau):
    """sn, cn, dn at 2K u as the theta ratios they stand for,
    K = pi theta3(0)^2 / 2."""
    tc = theta_constants(tau)
    const, num = {"sn": (tc.th3_0 / tc.th2_0, 1),
                  "cn": (tc.th4_0 / tc.th2_0, 2),
                  "dn": (tc.th4_0 / tc.th3_0, 3)}[kind]
    return complex(const * theta(num, u, tau) / theta(4, u, tau))


class TestJacobiElliptic:
    def test_values_at_zero(self):
        assert abs(_elliptic("sn", 0.0, TAU_I)) < 1e-14
        assert _elliptic("cn", 0.0, TAU_I) == pytest.approx(1.0)
        assert _elliptic("dn", 0.0, TAU_I) == pytest.approx(1.0)

    def test_oracle_values(self):
        assert _elliptic("sn", 0.3, TAU_I).real == pytest.approx(
            SN_03_I, rel=1e-13)
        assert _elliptic("cn", 0.3, TAU_I).real == pytest.approx(
            CN_03_I, rel=1e-13)
        assert _elliptic("dn", 0.3, TAU_I).real == pytest.approx(
            DN_03_I, rel=1e-13)

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.uniform(0.05, 0.45)
            tau = TauPoint(complex(0.0, rng.uniform(0.8, 2.0)))
            sn = _elliptic("sn", u, tau)
            cn = _elliptic("cn", u, tau)
            dn = _elliptic("dn", u, tau)
            lam = complex(lambda_tau(tau))
            assert sn * sn + cn * cn == pytest.approx(1.0, rel=1e-11)
            assert dn * dn + lam * sn * sn == pytest.approx(1.0, rel=1e-11)


class TestThetaTaylor:
    def test_parity_exact(self):
        s1 = theta_taylor(1, 8, TAU_I)
        s3 = theta_taylor(3, 8, TAU_I)
        assert s1[0] == 0.0 and s1[2] == 0.0 and s1[4] == 0.0
        assert s3[1] == 0.0 and s3[3] == 0.0

    def test_order_cap(self):
        with pytest.raises(SeriesError):
            theta_taylor(2, 13, TAU_I)

    @pytest.mark.parametrize("order", [-1, -5, 2.5, True, np.True_])
    def test_order_outside_0_to_12(self, order):
        # -1 returned [], -5 and 2.5 raised bare numpy and slice errors;
        # True == 1, but a bool is no order
        with pytest.raises(SeriesError, match="not an integer in 0..12"):
            theta_taylor(3, order, TAU_I)

    @pytest.mark.parametrize("tau_re", [-0.5, -0.2, 0.0, 0.3, 0.5])
    @pytest.mark.parametrize("tau_im", [0.1, 0.35, 1.0, 3.0])
    def test_matches_mpmath(self, tau_re, tau_im):
        # each coefficient to 1e-13 of the sum of its terms' absolute values
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(complex(tau_re, tau_im))

        def abs_sum(j, k):
            first = 0.5 if j in (1, 2) else 1.0
            total = sum(2.0 * math.exp(-math.pi * tau_im * mu * mu)
                        * (2.0 * math.pi * mu) ** k
                        for mu in first + np.arange(200))
            return (total + (j in (3, 4) and k == 0)) / math.factorial(k)

        with mpmath.workdps(30):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))

            def ref(j, k):
                return complex(mpmath.pi**k * mpmath.jtheta(j, 0, nome, k)
                               / mpmath.factorial(k))

            for j in (1, 2, 3, 4):
                s = theta_taylor(j, 7, tau)
                for k in range(1 if j == 1 else 0, 8, 2):
                    assert abs(s[k] - ref(j, k)) <= 1e-13 * abs_sum(j, k)
            tc = theta_constants(tau)
            for value, j, k in ((tc.th2_0, 2, 0), (tc.th3_0, 3, 0),
                                (tc.th4_0, 4, 0), (tc.th1p_0, 1, 1),
                                (tc.th1ppp_0 / 6.0, 1, 3),
                                (tc.th2pp_0 / 2.0, 2, 2),
                                (tc.th3pp_0 / 2.0, 3, 2),
                                (tc.th4pp_0 / 2.0, 4, 2)):
                assert abs(value - ref(j, k)) <= 1e-13 * abs_sum(j, k)

    @pytest.mark.parametrize("tau_re", [-0.5, -0.2, 0.0, 0.3, 0.5])
    @pytest.mark.parametrize("tau_im", [0.1, 0.35, 1.0, 3.0])
    def test_laurent_coefficients_match_mpmath(self, tau_re, tau_im):
        # the identity suite's closed forms against a 30-digit division of
        # the theta Taylor series: u^1 of theta_j/theta_1 (j = 2, 3, 4),
        # then u^-2 of phi2 = pi theta2(0)^2 (theta4/theta1)^2
        mpmath = pytest.importorskip("mpmath")
        tau = TauPoint(complex(tau_re, tau_im))
        with mpmath.workdps(30):
            nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))

            def taylor(j, start):
                # coefficients of u^start, u^(start+1), ... u^(start+4)
                return [mpmath.pi**k * mpmath.jtheta(j, 0, nome, k)
                        / mpmath.factorial(k) for k in range(start, start + 5)]

            def divide(num, den):
                out = []
                for i in range(len(num)):
                    acc = num[i] - sum(den[k] * out[i - k]
                                       for k in range(1, i + 1))
                    out.append(acc / den[0])
                return out

            # theta_j/theta_1 = u^-1 (theta_j / (theta_1/u)): u^1 is entry 2
            th1_over_u = taylor(1, 1)
            quotients = {j: divide(taylor(j, 0), th1_over_u)
                         for j in (2, 3, 4)}
            q4 = quotients[4]
            pref = mpmath.pi * mpmath.jtheta(2, 0, nome) ** 2
            expect = [quotients[j][2] for j in (2, 3, 4)] + [
                pref * q4[0] ** 2]
        # each to 1e-12 of the absolute values of its two parts, since some
        # cancel to zero (ds at tau = i, where lambda = 1/2)
        tc = theta_constants(tau)
        r1, r2, r3, r4 = tc.log_ratios
        m2 = math.pi * abs(tc.th2_0 * tc.th4_0 / tc.th1p_0) ** 2
        scales = [abs(th / tc.th1p_0) * (abs(r) / 2.0 + abs(r1) / 6.0)
                  for th, r in ((tc.th2_0, r2), (tc.th3_0, r3), (tc.th4_0, r4))
                  ] + [m2]
        for got, want, scale in zip(_laurent_coefficients(tc), expect,
                                    scales, strict=True):
            assert abs(got - complex(want)) <= 1e-12 * scale


class TestQTerms:
    @pytest.mark.parametrize("x", [0.0, 0.3j, -0.5 + 0.1j, 0.73, 0.85])
    def test_powers_and_count(self, x):
        n, powers = series.q_terms(x)
        count = len(n)
        assert np.array_equal(n, np.arange(1, count + 1))
        assert count >= series.MIN_TERMS
        assert count * abs(x) ** count <= series.REL_CUTOFF
        # the tangent bound overshoots the least count by at most two terms
        least = next(m for m in range(1, count + 1)
                     if m * abs(x) ** m <= series.REL_CUTOFF)
        assert count <= max(series.MIN_TERMS, least + 2)
        np.testing.assert_allclose(powers, complex(x) ** n, rtol=1e-13,
                                   atol=1e-300)

    @pytest.mark.parametrize("x", [0.99, -0.995j, 1.0, 1.5])
    def test_term_cap_raises(self, x):
        with pytest.raises(SeriesError):
            series.q_terms(x)


def _fourier_partial(kind, u, tau):
    """2K kind(2K u) for real 0 < u < 1 by its trigonometric series: the
    cot/cosec term plus the q-Fourier tail, a route independent of the
    theta ratios."""
    pi = math.pi
    if kind == "cs":
        n, qn = series.q_terms(tau.q)
        tail = (qn * np.sin(2.0 * pi * u * n) / (1.0 + qn)).sum()
        return pi / math.tan(pi * u) - 4.0 * pi * complex(tail)
    # ds and ns: odd powers q_half^(2n-1), differing only in sign pattern
    n, qn = (a[::2] for a in series.q_terms(tau.q_half))
    sign = 1.0 if kind == "ds" else -1.0
    tail = (qn * np.sin(pi * u * n) / (1.0 + sign * qn)).sum()
    return pi / math.sin(pi * u) - sign * 4.0 * pi * complex(tail)


class TestFourierPartial:
    def test_cs_matches_theta_route(self):
        u = 0.23
        tc = theta_constants(TAU_I)
        via_theta = (math.pi * tc.th3_0 * tc.th4_0
                     * theta(2, u, TAU_I) / theta(1, u, TAU_I))
        assert _fourier_partial("cs", u, TAU_I) == pytest.approx(
            complex(via_theta), rel=1e-11)

    def test_ns_matches_theta_route(self):
        u, tau = 0.37, TauPoint(1.5j)
        tc = theta_constants(tau)
        via_theta = (math.pi * tc.th2_0 * tc.th3_0
                     * theta(4, u, tau) / theta(1, u, tau))
        assert _fourier_partial("ns", u, tau) == pytest.approx(
            complex(via_theta), rel=1e-11)

    def test_ds_matches_theta_route(self):
        u, tau = 0.19, TauPoint(1.2j)
        tc = theta_constants(tau)
        via_theta = (math.pi * tc.th2_0 * tc.th4_0
                     * theta(3, u, tau) / theta(1, u, tau))
        assert _fourier_partial("ds", u, tau) == pytest.approx(
            complex(via_theta), rel=1e-11)
