"""Gamma, Pochhammer, 2F1, terminating 4F3, and the product-coefficient
cancellation."""

import math

import numpy as np
import pytest

from twistedperiods.hypergeom import (HypergeomError, beta_real, gamma_real,
                                      gauss_2f1, hyper_4f3_terminating,
                                      pochhammer, product_term1_coeff,
                                      product_term2_coeff,
                                      whipple_transform_rhs)

# 30-digit oracle values
GAMMA_03 = 2.9915689876875906283
GAMMA_M17 = 2.5139235190652022087
F21_HALF = 1.0543792385836535546  # 2F1(0.3, 0.21, 0.77; 0.5)


class TestGammaReal:
    def test_gamma_one(self):
        assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_half(self):
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_oracle_values(self):
        assert gamma_real(0.3) == pytest.approx(GAMMA_03, rel=1e-13)
        assert gamma_real(-1.7) == pytest.approx(GAMMA_M17, rel=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.uniform(0.1, 10.0)
            assert gamma_real(x + 1.0) / gamma_real(x) == pytest.approx(
                x, rel=1e-12)

    def test_reflection_accuracy_near_poles(self):
        # worst-case region for the reflection formula; oracles evaluated
        # at the exact binary float arguments (a naive pi/sin(pi x)
        # reference loses digits here)
        assert gamma_real(-7.9999999) == pytest.approx(
            248.0159254116749382097, rel=1e-13)
        assert gamma_real(-19.5000001) == pytest.approx(
            5.811044236608459152836e-18, rel=1e-13)
        assert gamma_real(-15.3) == pytest.approx(
            1.301122413447024419195e-12, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_errors(self, x):
        with pytest.raises(HypergeomError):
            gamma_real(x)

    @pytest.mark.parametrize("x", [142.7, 150.5, 171.5, -150.3, -150.5])
    def test_large_arguments_match_mpmath(self, x):
        # finite up to about 171.6, past where the unsplit Lanczos power
        # overflows (about 142.6)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            expect = float(mpmath.gamma(mpmath.mpf(x)))
        assert gamma_real(x) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("x", [172.0, 200.8, -171.5, 1e308])
    def test_overflow_raises_typed_error(self, x):
        with pytest.raises(HypergeomError, match="overflows"):
            gamma_real(x)


class TestBetaReal:
    @pytest.mark.parametrize("a, c", [(0.5, 1.0), (0.3, 0.77), (-1.7, 0.4),
                                      (2.5, 6.25)])
    def test_matches_math_gamma(self, a, c):
        expect = math.gamma(a) * math.gamma(c - a) / math.gamma(c)
        assert beta_real(a, c) == pytest.approx(expect, rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(HypergeomError):
            beta_real(0.3, 0.3)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_factorial(self):
        for n in range(8):
            assert pochhammer(1.0, n) == math.factorial(n)

    def test_terminating_pattern(self):
        for n in range(1, 7):
            assert pochhammer(-float(n), n) == (-1) ** n * math.factorial(n)

    def test_negative_n_raises(self):
        with pytest.raises(HypergeomError):
            pochhammer(1.0, -1)


class TestGauss2F1:
    def test_at_zero(self):
        assert complex(gauss_2f1(0.3, 1.2, 0.7, 0.0)) == 1.0

    def test_log_value(self):
        assert complex(gauss_2f1(1.0, 1.0, 2.0, 0.5)).real == pytest.approx(
            2.0 * math.log(2.0), rel=1e-12)

    def test_oracle_value(self):
        assert complex(gauss_2f1(0.3, 0.21, 0.77, 0.5)).real == pytest.approx(
            F21_HALF, rel=1e-13)

    def test_binomial_reduction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(-2.0, 2.0)
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
            expected = (1.0 - z) ** (-a)
            assert complex(gauss_2f1(a, 0.9, 0.9, z)) == pytest.approx(
                expected, rel=1e-12)

    def test_radius_guard(self):
        with pytest.raises(HypergeomError):
            gauss_2f1(0.3, 0.2, 0.7, 0.97)

    def test_c_pole(self):
        with pytest.raises(HypergeomError):
            gauss_2f1(0.3, 0.2, -1.0, 0.5)

    def test_derivative_contiguous_relation(self):
        a, b, c, z = 0.4, -0.7, 1.3, 0.3
        h = 1e-6
        numeric = (complex(gauss_2f1(a, b, c, z + h))
                   - complex(gauss_2f1(a, b, c, z - h))) / (2.0 * h)
        analytic = a * b / c * complex(gauss_2f1(a + 1, b + 1, c + 1, z))
        assert numeric == pytest.approx(analytic, rel=1e-7)


class TestTerminating4F3:
    def test_n_zero(self):
        assert hyper_4f3_terminating(0, (0.3, 0.4, 0.5), (1.1, 1.2, 1.3)) == 1.0

    def test_negative_n_raises(self):
        with pytest.raises(HypergeomError):
            hyper_4f3_terminating(-1, (0.3, 0.4, 0.5), (1.1, 1.2, 1.3))

    def test_lower_pole_raises(self):
        with pytest.raises(HypergeomError):
            hyper_4f3_terminating(3, (0.3, 0.4, 0.5), (-1.0, 1.2, 1.3))

    def test_whipple_balance(self):
        # balanced transformation: a + b + c - n + 1 = d + e + f
        rng = np.random.default_rng(7)
        for _ in range(15):
            n = int(rng.integers(1, 9))
            a, b, c = rng.uniform(0.1, 1.5, 3)
            d, e = rng.uniform(1.6, 3.0, 2)
            f = a + b + c - n + 1.0 - d - e
            if f > -0.05:  # keep f safely away from pole range
                f -= 2.0
                d += 2.0
            lhs = hyper_4f3_terminating(n, (a, b, c), (d, e, f))
            rhs = whipple_transform_rhs(n, a, b, c, d, e, f)
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestProductCoefficients:
    def test_degree_zero_and_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b, c = rng.uniform(0.1, 0.9, 3) + np.array([0.0, 0.0, 1.0])
            assert product_term1_coeff(0, a, b, c) == pytest.approx(
                c, abs=1e-12)
            assert product_term1_coeff(1, a, b, c) == pytest.approx(
                a - b + 1.0, abs=1e-12)

    def test_term2_vanishes_below_degree_two(self):
        assert product_term2_coeff(0, 0.2, 0.3, 0.6) == 0.0
        assert product_term2_coeff(1, 0.2, 0.3, 0.6) == 0.0

    def test_cancellation(self):
        rng = np.random.default_rng(17)
        draws = 0
        while draws < 40:
            a, b, c = rng.uniform(-2.0, 2.0, 3)
            # keep every Pochhammer denominator and 1/(c(1+c)(1-c)) away
            # from zero over the tested degree range
            guards = [c, 1.0 + c, 1.0 - c, a, b]
            if any(abs(g - round(g)) < 0.05 for g in guards):
                continue
            draws += 1
            for n in range(2, 13):
                c1 = product_term1_coeff(n, a, b, c)
                c2 = product_term2_coeff(n, a, b, c)
                assert abs(c1 + c2) / (1.0 + abs(c1)) < 1e-10
