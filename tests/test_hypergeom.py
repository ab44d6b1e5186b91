"""Gamma, 2F1, and the product-coefficient cancellation with its pole rule."""

import math

import numpy as np
import pytest

from twistedperiods.hypergeom import (INTEGRALITY_GUARD, MAX_DEGREE,
                                      HypergeomError, beta_real, gamma_real,
                                      gauss_2f1, product_coeffs)
from twistedperiods import hypergeom
from twistedperiods.periods import SHIFT_RULES
from twistedperiods.series import TauPoint, lambda_tau
from twistedperiods.verify import SWEEP_TAUS, sample_admissible

# 30-digit oracle values
GAMMA_03 = 2.9915689876875906283
GAMMA_M17 = 2.5139235190652022087
F21_HALF = 1.0543792385836535546  # 2F1(0.3, 0.21, 0.77; 0.5)


def _scanned_pole(n_max, c):
    """The pole ``product_coeffs(n_max, a, b, c)`` reports, from a scan over
    every term its 2F1 series reach: lower parameters c and -c up to degree
    n_max, 2 + c and 2 - c up to n_max - 2; None if no term is a pole.  A
    non-finite c is reported first, as in the library."""
    if not math.isfinite(c):
        return f"non-finite Whipple parameter c = {c}"
    for low, n in ((c, n_max), (-c, n_max), (2.0 + c, n_max - 2),
                   (2.0 - c, n_max - 2)):
        for k in range(n):
            if abs(low + k) <= INTEGRALITY_GUARD:
                return f"lower parameter {low} hits a pole at term k = {k + 1}"
    return None


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

    def test_an_array_raises_its_first_failing_element(self):
        # math.gamma decides where Gamma overflows: finite at 171.62, and
        # raising at 171.63, as for a float
        values = np.array([[1.5, 171.62], [171.63, math.inf]])
        assert gamma_real(values[0]).tolist() == [gamma_real(1.5),
                                                  math.gamma(171.62)]
        with pytest.raises(HypergeomError) as err:
            gamma_real(values)
        assert str(err.value) == "Gamma(171.63) overflows double precision"


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
    """The degree is checked against one cap before a loop starts."""

    @pytest.mark.parametrize("n", [MAX_DEGREE + 1, 10**6, 1e12],
                             ids=lambda n: f"product_coeffs-{n}")
    def test_above_the_cap_raises(self, n):
        with pytest.raises(HypergeomError, match=(
                f"n_max = {n} exceeds the maximum degree {MAX_DEGREE}")):
            product_coeffs(n, 0.2, 0.3, 0.6)

    def test_the_cap_is_accepted(self):
        table = product_coeffs(MAX_DEGREE, 0.2, 0.3, 0.6)
        assert len(table) == MAX_DEGREE + 1
        assert all(math.isfinite(x) for pair in table for x in pair)


# terms that overflow a double before the series converges: abs() of the
# overflowed complex term raises OverflowError inside the loop
OVERFLOWING_2F1 = (87.30869786330038, 48.37645585484947, -49.45817856610617,
                   -0.10515096227506536 + 0.9441627376319337j)


class TestGauss2F1:
    def test_overflowing_terms_raise_a_typed_error(self):
        with pytest.raises(HypergeomError,
                           match="2F1 terms overflow double precision"):
            gauss_2f1(*OVERFLOWING_2F1)

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

    def test_sum_cancelled_below_its_rounding_raises(self):
        # sum |t_n| = 3.0e18 cancels to -84.4; the true value is 3.236
        with pytest.raises(HypergeomError, match="lost every digit"):
            gauss_2f1(-100.3, -0.21, -0.77, 0.5)

    def test_sum_with_digits_left_returns(self):
        # sum |t_n| / |F| is about 2e7 here, so about eight digits are kept
        assert complex(gauss_2f1(-40.3, -0.21, -0.77, 0.5)).real == (
            pytest.approx(2.64799111137651, rel=1e-8))

    def test_derivative_contiguous_relation(self):
        a, b, c, z = 0.4, -0.7, 1.3, 0.3
        h = 1e-6
        numeric = (complex(gauss_2f1(a, b, c, z + h))
                   - complex(gauss_2f1(a, b, c, z - h))) / (2.0 * h)
        analytic = a * b / c * complex(gauss_2f1(a + 1, b + 1, c + 1, z))
        assert numeric == pytest.approx(analytic, rel=1e-7)


class TestTableRoute:
    """Arrays are summed as tables of series x terms, with the scalar
    loop's results and errors, bit for bit and text for text."""

    @staticmethod
    def _bits(x):
        x = complex(x)
        return x.real.hex(), x.imag.hex()  # -0.0 and 0.0 differ here

    def test_equals_the_loop_bitwise(self):
        # the 16 period and 4 entry22 series of 75 sampler draws, at the
        # sweep taus, two complex taus and |lambda| = 0.94: 10,500 series
        rng = np.random.default_rng(26)
        params = []
        for _ in range(75):
            p = sample_admissible(rng)
            for q in (p, p.negated()):
                for shift in SHIFT_RULES.values():
                    ps = q.shifted(*shift)
                    a, b, g = ps.alpha, ps.beta, ps.gamma
                    params += [(a, b, g), (1 - b, 1 - a, 2 - g)]
            a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
            params += [(a, b, c), (-a - 1, -b + 1, -c), (a + 2, b, 2 + c),
                       (-a + 1, -b + 1, 2 - c)]
        a, b, c = np.array(params).T
        for tau in (*SWEEP_TAUS, 0.2 + 0.9j, -0.1 + 2j, 0.565j):
            z = lambda_tau(TauPoint(tau))
            assert ([self._bits(x) for x in gauss_2f1(a, b, c, z)]
                    == [self._bits(gauss_2f1(*abc, z)) for abc in params])

    def test_tail_guard_as_the_loop(self):
        # a + 2 (or a + 4) is one ulp, so the next term is below
        # F21_REL_TOL, but c + 3 (or c + 5) is about 1e-8, so the one after
        # is about 1e7 times larger: the tail guard passes over the first
        # candidate, and a stop there would be off by about 1e-11
        cases = [(-2 - 1e-15, -1.9, -3 + 1e-8, 0.5),
                 (-2 - 1e-15, -1.9, -3 + 1e-8, 0.3 + 0.4j),
                 (-4 - 2e-15, 0.7, -5 + 3e-9, -0.6)]
        table = gauss_2f1(*map(np.array, zip(*cases)))
        assert ([self._bits(x) for x in table]
                == [self._bits(gauss_2f1(*args)) for args in cases])

    def test_tail_guard_series_stop_in_the_table(self, monkeypatch):
        # the table's next term is the loop's tail guard, bit for bit, so
        # the series of test_tail_guard_as_the_loop need no loop call
        calls = []
        original = hypergeom.gauss_2f1

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hypergeom, "gauss_2f1", counting)
        cases = [(-2 - 1e-15, -1.9, -3 + 1e-8, 0.5),
                 (-2 - 1e-15, -1.9, -3 + 1e-8, 0.3 + 0.4j),
                 (-4 - 2e-15, 0.7, -5 + 3e-9, -0.6)]
        hypergeom.gauss_2f1(*map(np.array, zip(*cases)))
        assert len(calls) == 1

    @pytest.mark.parametrize("args", [
        (-100.3, -0.21, -0.77, 0.5),  # the terms cancel to rounding
        (0.3, 0.2, -1.0, 0.5),  # a pole c
        (0.3, math.nan, 0.7, 0.5),
        (0.3, 0.2, 0.7, complex(0.1, math.inf)),
        (0.3, 0.2, 0.7, 0.97),  # past the radius guard
        (40.0, 40.0, 0.5, 0.95),  # not converged at F21_MAX_TERMS
        OVERFLOWING_2F1,
    ], ids=["cancelled", "pole", "nan", "inf", "radius", "cap", "overflow"])
    def test_raises_the_loops_error(self, args):
        # the failing series sits between two that sum
        good = (0.3, 0.21, 0.77, 0.5)
        arrays = [np.array([g, x, g]) for g, x in zip(good, args)]
        error = _outcome(gauss_2f1, *args)
        assert isinstance(error, str)
        assert _outcome(gauss_2f1, *arrays) == error

    def test_first_failing_series_raises(self):
        assert _outcome(gauss_2f1, 0.3, 0.2, np.array([0.7, -1.0, 0.7]),
                        np.array([0.5, 0.5, 0.97])) == (
            "2F1 pole: c = -1.0 is a non-positive integer")

    def test_arguments_broadcast(self):
        a, z = np.array([[0.3], [0.4]]), np.array([0.1, 0.2j, -0.3])
        table = gauss_2f1(a, 0.2, 0.7, z)
        assert table.shape == (2, 3)
        assert table[1, 2] == gauss_2f1(0.4, 0.2, 0.7, -0.3)


class TestTerminating4F3:
    """The pole rule of the terminating 4F3 the product coefficients were
    once summed as, kept unchanged by ``product_coeffs`` for the lower
    parameters c, -c, 2 + c and 2 - c of its four 2F1 series: a lower
    parameter raises only within ``INTEGRALITY_GUARD`` of -k for a term k
    its list reaches."""

    @pytest.mark.parametrize("low, n, message", [
        (-1.0, 3, "lower parameter -1.0 hits a pole at term k = 2"),
        (0.0, 1, "lower parameter 0.0 hits a pole at term k = 1"),
        (-3.0 + 5e-10, 4, f"lower parameter {-3.0 + 5e-10} hits a pole "
                          "at term k = 4"),
    ])
    def test_pole_inside_the_range_keeps_its_message(self, low, n, message):
        # low as c, and as -c where c = -low is not a pole itself; the
        # poles of 2 + c and 2 - c lie in the range of c and -c
        for c in (low, -low) if low else (low,):
            with pytest.raises(HypergeomError) as err:
                product_coeffs(n, 0.2, 0.3, c)
            assert str(err.value) == message

    @pytest.mark.parametrize("c, n", [(-3.0, 3), (3.0, 3), (-5.0, 2),
                                      (1.0, 1), (0.0, 0), (-2.0 + 2e-9, 4),
                                      (5.0, 5), (-5.0, 5), (6.0, 5),
                                      (-6.0, 5)])
    def test_pole_past_the_range_does_not_raise(self, c, n):
        # each lower parameter's first pole is a term the table never
        # reaches, or lies just outside the guard
        table = product_coeffs(n, 0.2, 0.3, c)
        assert all(math.isfinite(x) for pair in table for x in pair)

    @pytest.mark.parametrize("low", [
        -2.0, -2.0 + 9e-10, -2.0 - 1.1e-9, -2.5, -7.0, 0.0, -0.0, 1e-10,
        -1e17, 1e308, -1e308, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_nearest_integer_test_matches_a_full_scan(self, low, n):
        # low as each of the four lower parameters c, -c, 2 + c, 2 - c
        for c in (low, -low, low - 2.0, 2.0 - low):
            outcome = _outcome(product_coeffs, n, 0.2, 0.3, c)
            expect = _scanned_pole(n, c)
            if expect is None:
                assert "pole" not in str(outcome)
            else:
                assert outcome == expect


class TestProductCoefficients:
    def test_degree_zero_and_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b, c = rng.uniform(0.1, 0.9, 3) + np.array([0.0, 0.0, 1.0])
            (t0, _), (t1, _) = product_coeffs(1, a, b, c)
            assert t0 == pytest.approx(c, abs=1e-12)
            assert t1 == pytest.approx(a - b + 1.0, abs=1e-12)

    # the first pole of each case's lower parameters c, -c, 2 + c, 2 - c
    # below degree 8; integer a or b are no poles (they are only in
    # numerators) and give a table
    POLES = {1.0: "lower parameter -1.0 hits a pole at term k = 2",
             -1.0: "lower parameter -1.0 hits a pole at term k = 2",
             3.0: "lower parameter -3.0 hits a pole at term k = 4",
             -3.0 + 5e-10: f"lower parameter {-3.0 + 5e-10} hits a pole "
                           "at term k = 4",
             0.0: "lower parameter 0.0 hits a pole at term k = 1"}

    @pytest.mark.parametrize("a, b, c", [
        (0.3, 0.2, 1.0), (0.3, 0.2, -1.0), (0.3, 0.2, 3.0), (-1.0, 0.3, 0.6),
        (2.0, 0.3, 0.6), (0.3, 2.0, 0.6), (0.3, 0.2, -3.0 + 5e-10),
        (0.3, 0.2, 0.0)])
    def test_each_degree_keeps_its_error(self, a, b, c):
        table = _outcome(product_coeffs, 8, a, b, c)
        if c in self.POLES:
            assert table == self.POLES[c] == _scanned_pole(8, c)
            return
        assert len(table) == 9
        assert table[0][0] == pytest.approx(c, abs=1e-12)
        assert table[1][0] == pytest.approx(a - b + 1.0, abs=1e-12)
        for c1, c2 in table[2:]:
            assert abs(c1 + c2) / (1.0 + abs(c1)) < 1e-12

    @pytest.mark.parametrize("n_max", [-1, 2.5, math.nan, math.inf, True,
                                       np.True_])
    def test_rejects_a_bad_degree(self, n_max):
        # True == 1, but a bool is no degree
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
        # at a = 1e200 the degree-2 coefficients of F(a, b; c) and
        # F(-a-1, 1-b; -c) overflow; degrees 0 and 1 stay finite
        table = product_coeffs(1, 1e200, 0.3, 0.6)
        assert all(math.isfinite(x) for pair in table for x in pair)
        with pytest.raises(HypergeomError, match=(
                r"Whipple coefficients \(nan, inf\) at degree 2 are not "
                "finite")):
            product_coeffs(12, 1e200, 0.3, 0.6)

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
