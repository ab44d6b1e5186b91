"""Gamma, 2F1, terminating 4F3, and the product-coefficient cancellation."""

import math

import numpy as np
import pytest

from twistedperiods.hypergeom import (INTEGRALITY_GUARD, MAX_DEGREE,
                                      HypergeomError, beta_real, gamma_real, gauss_2f1,
                                      hyper_4f3_terminating, product_coeffs)

# 30-digit oracle values
GAMMA_03 = 2.9915689876875906283
GAMMA_M17 = 2.5139235190652022087
F21_HALF = 1.0543792385836535546  # 2F1(0.3, 0.21, 0.77; 0.5)


def _rising(x, n):
    """Rising factorial x (x+1) ... (x+n-1), a running product from 1.0,
    as each of the library's Pochhammer tables builds it."""
    return math.prod((x + k for k in range(n)), start=1.0)


def _scanning_4f3(n, uppers, lowers):
    """``hyper_4f3_terminating`` with its pole test as a scan over every
    term: the reference for the nearest-integer test.  A non-finite
    parameter raises first, as in the library."""
    a, b, c = (float(v) for v in uppers)
    d, e, f = (float(v) for v in lowers)
    for name, value in zip("abcdef", (a, b, c, d, e, f)):
        if not math.isfinite(value):
            raise HypergeomError(f"non-finite 4F3 parameter {name} = {value}")
    for low in (d, e, f):
        for k in range(n):
            if abs(low + k) <= INTEGRALITY_GUARD:
                raise HypergeomError(
                    f"lower parameter {low} hits a pole at term k = {k + 1}")
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= (-n + k) * (a + k) * (b + k) * (c + k)
        term /= (d + k) * (e + k) * (f + k) * (k + 1.0)
        total += term
    return total


def _degree_term1(n, a, b, c):
    """Degree-n term-1 coefficient from per-degree Pochhammer products."""
    denom = _rising(-c, n) * math.factorial(n)
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (c * _rising(-a - 1.0, n) * _rising(-b + 1.0, n) / denom)
    return pref * _scanning_4f3(
        n, (b, a, 1.0 - n + c), (2.0 - n + a, c, -float(n) + b))


def _degree_term2(n, a, b, c):
    """Degree-n term-2 coefficient from per-degree Pochhammer products."""
    if n < 2:
        return 0.0
    denom = (c * (1.0 + c) * (1.0 - c)
             * _rising(2.0 - c, n - 2) * math.factorial(n - 2))
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (a * (a + 1.0) * (c - b) * (c - b + 1.0)
            * _rising(-a + 1.0, n - 2) * _rising(-b + 1.0, n - 2)
            / denom)
    return pref * _scanning_4f3(
        n - 2, (b, a + 2.0, 1.0 - n + c), (2.0 - n + a, 2.0 + c, 2.0 - n + b))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypergeomError as exc:
        return str(exc)


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

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, math.nan, math.inf,
                                   -math.inf])
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


class TestMaxDegree:
    """Every degree and termination index is checked against one cap
    before a loop starts."""

    CALLS = {
        "4f3": lambda n: hyper_4f3_terminating(n, (0.3, 0.4, 0.5),
                                               (1.1, 1.2, 1.3)),
        "product_coeffs": lambda n: product_coeffs(n, 0.2, 0.3, 0.6),
    }

    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**6, 1e12])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_above_the_cap_raises(self, call, n):
        with pytest.raises(HypergeomError, match=(
                f"= {n} exceeds the maximum degree {MAX_DEGREE}")):
            self.CALLS[call](n)

    def test_the_cap_is_accepted(self):
        assert math.isfinite(self.CALLS["4f3"](MAX_DEGREE))
        # the table passes the cap and stops at its first overflow
        with pytest.raises(HypergeomError, match="at degree 100 are not"):
            product_coeffs(MAX_DEGREE, 0.2, 0.3, 0.6)


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

    def test_non_convergence_raises(self):
        # at the radius guard with large a and b the terms still grow at
        # the term cap
        with pytest.raises(HypergeomError, match="did not converge within "
                                                 "2000 terms"):
            gauss_2f1(40.0, 40.0, 0.5, 0.95)

    def test_float_counter_matches_an_integer_counter_bitwise(self):
        def int_counter_series(a, b, c, z):
            total = term = 1.0 + 0.0j
            for n in range(2000):
                term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
                total += term
                if abs(term) <= 1e-16 * abs(total):
                    nxt = (term * (a + n + 1) * (b + n + 1)
                           / ((c + n + 1) * (n + 2.0)) * z)
                    if abs(nxt) <= 1e-16 * abs(total):
                        return total

        rng = np.random.default_rng(43)
        for _ in range(300):
            a, b = rng.uniform(-3.0, 3.0, 2)
            c = rng.uniform(-2.9, 3.0)
            if abs(c - round(c)) < 1e-3:
                continue
            z = complex(*rng.uniform(-0.67, 0.67, 2))
            assert gauss_2f1(a, b, c, z) == int_counter_series(a, b, c, z)

    @pytest.mark.parametrize("name", ["a", "b", "c", "z"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_raises_at_once(self, name, value):
        args = {"a": 0.3, "b": 0.2, "c": 0.7, "z": 0.5}
        args[name] = value
        with pytest.raises(HypergeomError,
                           match=f"non-finite 2F1 argument {name} ="):
            gauss_2f1(**args)

    def test_complex_non_finite_z(self):
        with pytest.raises(HypergeomError, match="argument z"):
            gauss_2f1(0.3, 0.2, 0.7, complex(0.1, math.nan))

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position", range(6))
    def test_non_finite_parameter_names_it(self, position, value):
        params = [0.3, 0.4, 0.5, 1.1, 1.2, 1.3]
        params[position] = value
        name = "abcdef"[position]
        with pytest.raises(HypergeomError, match=(
                f"non-finite 4F3 parameter {name} = {value}")):
            hyper_4f3_terminating(3, params[:3], params[3:])

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
    def test_non_integer_n_raises_typed_error(self, n):
        with pytest.raises(HypergeomError, match="non-negative integer"):
            hyper_4f3_terminating(n, (0.3, 0.4, 0.5), (1.1, 1.2, 1.3))

    def test_lower_pole_raises(self):
        with pytest.raises(HypergeomError):
            hyper_4f3_terminating(3, (0.3, 0.4, 0.5), (-1.0, 1.2, 1.3))

    @pytest.mark.parametrize("low, n, message", [
        (-1.0, 3, "lower parameter -1.0 hits a pole at term k = 2"),
        (0.0, 1, "lower parameter 0.0 hits a pole at term k = 1"),
        (-3.0 + 5e-10, 4, f"lower parameter {-3.0 + 5e-10} hits a pole "
                          "at term k = 4"),
    ])
    def test_pole_inside_the_range_keeps_its_message(self, low, n, message):
        for lowers in ((low, 1.2, 1.3), (1.2, 1.3, low)):
            with pytest.raises(HypergeomError) as err:
                hyper_4f3_terminating(n, (0.3, 0.4, 0.5), lowers)
            assert str(err.value) == message

    @pytest.mark.parametrize("low, n", [(-3.0, 3), (-5.0, 2), (1.0, 4),
                                        (-2.0 + 2e-9, 4)])
    def test_pole_past_the_range_does_not_raise(self, low, n):
        assert math.isfinite(
            hyper_4f3_terminating(n, (0.3, 0.4, 0.5), (low, 1.2, 1.3)))

    @pytest.mark.parametrize("low", [
        -2.0, -2.0 + 9e-10, -2.0 - 1.1e-9, -2.5, -7.0, 0.0, -0.0, 1e-10,
        -1e17, 1e308, -1e308, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_nearest_integer_test_matches_a_full_scan(self, low, n):
        for lowers in ((low, 1.2, 1.3), (1.2, low, -2.0), (low, low, 1.3)):
            new = _outcome(hyper_4f3_terminating, n, (0.3, 0.4, 0.5), lowers)
            old = _outcome(_scanning_4f3, n, (0.3, 0.4, 0.5), lowers)
            assert new == old or (math.isnan(new) and math.isnan(old))

    def test_whipple_balance(self):
        # Whipple's balanced transformation, a + b + c - n + 1 = d + e + f:
        # 4F3(-n, a, b, c; d, e, f) = (e-a)_n (f-a)_n / ((e)_n (f)_n)
        #   4F3(-n, a, d-b, d-c; d, a-e-n+1, a-f-n+1)
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
            rhs = (_rising(e - a, n) * _rising(f - a, n)
                   / (_rising(e, n) * _rising(f, n))
                   * hyper_4f3_terminating(n, (a, d - b, d - c),
                                           (d, a - e - n + 1.0,
                                            a - f - n + 1.0)))
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestProductCoefficients:
    def test_degree_zero_and_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b, c = rng.uniform(0.1, 0.9, 3) + np.array([0.0, 0.0, 1.0])
            (t0, _), (t1, _) = product_coeffs(1, a, b, c)
            assert t0 == pytest.approx(c, abs=1e-12)
            assert t1 == pytest.approx(a - b + 1.0, abs=1e-12)

    def test_table_matches_per_degree_products_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b, c = (float(x) for x in rng.uniform(-2.0, 2.0, 3))
            table = product_coeffs(12, a, b, c)
            assert len(table) == 13
            for n, pair in enumerate(table):
                expect = (_degree_term1(n, a, b, c), _degree_term2(n, a, b, c))
                assert pair == expect

    @pytest.mark.parametrize("a, b, c", [
        (0.3, 0.2, 1.0), (0.3, 0.2, -1.0), (0.3, 0.2, 3.0), (-1.0, 0.3, 0.6),
        (2.0, 0.3, 0.6), (0.3, 2.0, 0.6), (0.3, 0.2, -3.0 + 5e-10),
        (0.3, 0.2, 0.0)])
    def test_each_degree_keeps_its_error(self, a, b, c):
        # the table raises at the first degree whose per-degree product
        # raises, term 1 before term 2, with that product's message
        expected = []
        for n in range(9):
            for ref in (_degree_term1, _degree_term2):
                expected.append(_outcome(ref, n, a, b, c))
        first_error = next((o for o in expected if isinstance(o, str)), None)
        table = _outcome(product_coeffs, 8, a, b, c)
        if first_error is None:
            assert [x for pair in table for x in pair] == expected
        else:
            assert table == first_error

    @pytest.mark.parametrize("n_max", [-1, 2.5, math.nan, math.inf])
    def test_rejects_a_bad_degree(self, n_max):
        with pytest.raises(HypergeomError, match="n_max must be"):
            product_coeffs(n_max, 0.2, 0.3, 0.6)

    def test_integral_float_degree(self):
        assert product_coeffs(3.0, 0.2, 0.3, 0.6) == product_coeffs(
            3, 0.2, 0.3, 0.6)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_non_finite_parameter_names_it(self, name, value):
        args = {"a": 0.2, "b": 0.3, "c": 0.6}
        args[name] = value
        with pytest.raises(HypergeomError, match=(
                f"non-finite Whipple parameter {name} = {value}")):
            product_coeffs(12, **args)

    def test_first_non_finite_degree_raises(self):
        # the running products overflow and divide inf by inf at degree
        # 100, below MAX_DEGREE; degree 99 and below stay finite
        table = product_coeffs(99, 0.2, 0.3, 0.6)
        assert all(math.isfinite(x) for pair in table for x in pair)
        with pytest.raises(HypergeomError, match=(
                r"Whipple coefficients \(nan, 0.0\) at degree 100 are not "
                "finite")):
            product_coeffs(170, 0.2, 0.3, 0.6)

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
            for c1, c2 in product_coeffs(12, a, b, c)[2:]:
                assert abs(c1 + c2) / (1.0 + abs(c1)) < 1e-10
