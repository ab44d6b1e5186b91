"""The kernel contract over the admitted domain: each kernel returns a
value that agrees with an independent oracle, or raises its own typed
error; it never returns nan or inf, and raises or warns nothing else."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import (coordinates, endpoint_exponents, euler_arguments,
                        f21_arguments, f21_parameters, imaginary_taus,
                        refused_exponents, taus, theta_arguments,
                        wirtinger_params)

from twistedperiods.hypergeom import HypergeomError, gauss_2f1, product_coeffs
from twistedperiods.matrices import AdmissibilityError, HgParams
from twistedperiods.periods import (PeriodError, _euler_side, euler_pairing,
                                    euler_pairing_closed, period_matrix,
                                    wirtinger_quadrature)
from twistedperiods.quadrature import QuadratureError, tanh_sinh
from twistedperiods.series import (SeriesError, TauPoint, eisenstein_g2,
                                   lambda_tau, theta, theta_constants,
                                   theta_taylor)

mpmath = pytest.importorskip("mpmath")


def _term_moduli(a, b, c, z) -> float:
    """The sum of |(a)_n (b)_n / ((c)_n n!) z^n| over n: the scale of the
    series' rounding, where F itself may be near a zero."""
    n = np.arange(3000.0)
    ratios = np.abs((a + n) * (b + n) / ((c + n) * (n + 1.0)) * z)
    return 1.0 + float(np.cumprod(ratios).sum())


@settings(max_examples=200)
@given(f21_parameters, f21_arguments)
def test_gauss_2f1_agrees_with_mpmath_or_raises(abc, z):
    a, b, c = abc
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = gauss_2f1(a, b, c, z)
        except HypergeomError:
            return
    with mpmath.workdps(30):
        reference = complex(mpmath.hyp2f1(a, b, c, z))
    assert abs(value - reference) <= 1e-9 * _term_moduli(a, b, c, z)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@settings(max_examples=60)
@given(st.integers(-2, 14), taus)
def test_theta_taylor_serves_or_raises(j, order, tau):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            coeffs = theta_taylor(j, order, tau)
        except SeriesError:
            return
    assert len(coeffs) == order + 1
    assert np.isfinite(coeffs).all()


def _served(fn, *args, errors=(SeriesError,)):
    """``fn(*args)``, or None where it raises one of its typed ``errors``;
    any other exception or warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except errors:
            return None


def _theta_series(j: int, u: complex, tau: complex
                  ) -> tuple[complex, float, float]:
    """theta_j(u, tau) as a direct 30-digit sum of its series, the sum of
    its terms' moduli, and the sum of their modulus bounds
    2 |q_half|^(mu^2) cosh(2 pi mu Im u).  Summed at u as given, with the
    nome's powers exp(i pi mu^2 tau) taken termwise, so no quarter power
    of the nome is involved (mpmath's ``jtheta`` takes its principal
    branch, off by a phase at |Re tau| > 1)."""
    with mpmath.workdps(30):
        t, u = mpmath.mpc(tau), mpmath.mpc(u)
        mu = mpmath.mpf(0.5) if j in (1, 2) else mpmath.mpf(1)
        total = scale = bounds = mpmath.mpf(0) if j in (1, 2) else 1
        sign = -1 if j == 4 else 1
        trig = mpmath.sin if j == 1 else mpmath.cos
        while True:
            bound = (2 * mpmath.exp(-mpmath.pi * mu * mu * t.imag)
                     * mpmath.cosh(2 * mpmath.pi * mu * u.imag))
            term = sign * 2 * mpmath.exp(1j * mpmath.pi * mu * mu * t) * trig(
                2 * mpmath.pi * mu * u)
            total += term
            scale += abs(term)
            bounds += bound
            # past the peak of the bounds, stop below 1e-40 of their sum
            if (mu * t.imag > abs(u.imag)
                    and bound < mpmath.mpf(10) ** -40 * bounds):
                return complex(total), float(scale), float(bounds)
            if j in (1, 4):
                sign = -sign
            mu += 1


@pytest.mark.parametrize("j", [1, 2, 3, 4])
@settings(max_examples=40)
@given(theta_arguments, taus)
def test_theta_agrees_with_its_series_or_raises(j, u, tau):
    value = _served(theta, j, u, tau)
    if value is None:
        return
    expect, scale, bounds = _theta_series(j, u, tau.tau)
    assert type(value) is complex and cmath.isfinite(value)
    # relative to the terms, and absolute, at a few ulps of their bounds,
    # for the rounding of each term's argument: all that is left where the
    # terms vanish (theta1 at integers, theta2 at half-integers)
    assert abs(value - expect) <= 1e-12 * scale + 1e-15 * bounds


# sigma(n), the sum of the divisors of n, for the divisor-sum oracle of G2
_SIGMA = np.zeros(200, dtype=int)
for _d in range(1, 200):
    _SIGMA[_d::_d] += _d


@settings(max_examples=80)
@given(taus)
def test_lambda_and_g2_agree_with_mpmath(tau):
    lam, g2 = _served(lambda_tau, tau), _served(eisenstein_g2, tau)
    for value in (lam, g2):
        assert value is None or cmath.isfinite(value)
    # lambda = theta2(0)^4 / theta3(0)^4: the relative errors of the two
    # constants, each at most its rounding scale over its modulus, add up
    # four times over
    (th2, s2, _), (th3, s3, _) = (_theta_series(j, 0.0, tau.tau)
                                  for j in (2, 3))
    expect = (th2 / th3) ** 4
    kappa = 4.0 * (s2 / abs(th2) + s3 / abs(th3))
    assert lam is None or abs(lam - expect) <= 1e-13 * kappa * abs(expect)
    # G2 = (pi^2/3)(1 - 24 sum sigma(n) q^n), a divisor sum, not the
    # Lambert series the library sums
    with mpmath.workdps(30):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau.tau))
        terms, qn, n = [], q, 1
        # sigma(n) <= n^2; n stays below 164 at |q| <= exp(-pi / 5)
        while n * n * abs(qn) >= 1e-40:
            terms.append(int(_SIGMA[n]) * qn)
            qn *= q
            n += 1
        pi2 = mpmath.pi**2 / 3
        expect = complex(pi2 * (1 - 24 * mpmath.fsum(terms)))
        scale = float(pi2 * (1 + 24 * mpmath.fsum(map(abs, terms))))
    assert g2 is None or abs(g2 - expect) <= 1e-13 * scale


def _product_series(n_max, a, b, c) -> list[tuple[float, float, float]]:
    """(term 1, term 2, scale) for degrees 0..n_max as 40-digit Cauchy
    products of the 2F1 power series they multiply,
    c F(a, b; c) F(-a-1, 1-b; -c) and
    a(a+1)(c-b)(c-b+1) / (c(1+c)(1-c)) z^2 F(a+2, b; 2+c) F(1-a, 1-b; 2-c),
    with the moduli of each product's terms summed as its scale.  The sums
    ``product_coeffs`` forms in double precision, each coefficient from
    mpmath's Pochhammer symbols rather than a running product."""
    with mpmath.workdps(40):
        a, b, c = map(mpmath.mpf, (a, b, c))

        def series(x, y, z):
            return [mpmath.rf(x, k) * mpmath.rf(y, k)
                    / (mpmath.rf(z, k) * mpmath.factorial(k))
                    for k in range(n_max + 1)]

        f, g = series(a, b, c), series(-a - 1, 1 - b, -c)
        if n_max >= 2:  # the prefactor's denominator may vanish below
            pref = (a * (a + 1) * (c - b) * (c - b + 1)
                    / (c * (1 + c) * (1 - c)))
            h, m = series(a + 2, b, 2 + c), series(1 - a, 1 - b, 2 - c)
        out = []
        for n in range(n_max + 1):
            first = [c * f[k] * g[n - k] for k in range(n + 1)]
            second = [pref * h[k] * m[n - 2 - k] for k in range(n - 1)]
            out.append((float(mpmath.fsum(first)), float(mpmath.fsum(second)),
                        float(mpmath.fsum(map(abs, first + second)))))
        return out


def _assert_cauchy_products(pairs, a, b, c):
    for (term1, term2), (one, two, scale) in zip(
            pairs, _product_series(len(pairs) - 1, a, b, c)):
        assert math.isfinite(term1) and math.isfinite(term2)
        assert abs(term1 - one) <= 1e-11 * scale
        assert abs(term2 - two) <= 1e-11 * scale


@settings(max_examples=100)
@given(st.integers(0, 16), coordinates(2), coordinates(2), coordinates(2))
def test_product_coeffs_agree_with_cauchy_products_or_raise(n_max, a, b, c):
    pairs = _served(product_coeffs, n_max, a, b, c, errors=HypergeomError)
    if pairs is not None:
        assert len(pairs) == n_max + 1
        _assert_cauchy_products(pairs, a, b, c)


@pytest.mark.parametrize("a, b, c", [
    (1.0 + 1.5e-9, 0.3, 0.6), (2.0, 0.3, 0.6), (-1.0, 0.3, 0.6),
    (0.3, 2.0, 0.6), (0.2, 3.0 + 1e-8, 0.6)])
def test_product_coeffs_near_an_integer_a_or_b(a, b, c):
    # a and b sit only in numerators: the coefficients have no pole there
    _assert_cauchy_products(product_coeffs(12, a, b, c), a, b, c)


@pytest.mark.parametrize("a, b, c", [
    (0.2, 0.3, 0.6), (2.0, 0.3, 0.6), (-0.7, 1.4, -2.5)])
def test_product_coeffs_at_degree_120(a, b, c):
    _assert_cauchy_products(product_coeffs(120, a, b, c), a, b, c)


@settings(max_examples=150)
@given(endpoint_exponents, endpoint_exponents)
def test_tanh_sinh_integrates_beta_powers(e0, e1):
    # x^e0 (1-x)^e1 over (0, 1) is B(e0 + 1, e1 + 1), at least 1/30 here
    value = _served(lambda: tanh_sinh(lambda x, dl, dr: dl**e0 * dr**e1,
                                      0.0, 1.0, (e0, e1)),
                    errors=QuadratureError)
    if value is None:
        return
    with mpmath.workdps(30):
        expect = float(mpmath.beta(e0 + 1, e1 + 1))
    assert abs(value - expect) <= 1e-10 * expect


@settings(max_examples=100)
@given(refused_exponents, st.one_of(endpoint_exponents, refused_exponents),
       st.booleans())
def test_tanh_sinh_refuses_exponents_outside_its_domain(bad, other, swap):
    # the one check of the endpoint-exponent domain: QuadratureError and
    # nothing else, before the integrand is called
    exponents = (other, bad) if swap else (bad, other)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="endpoint exponents > -1"):
            tanh_sinh(lambda x, dl, dr: pytest.fail("integrand called"),
                      0.0, 1.0, exponents)


def test_tanh_sinh_on_a_small_integral():
    # 1e-16 x^2 (1-x)^2 is 1e-16 B(3, 3) = 3.3e-18: every stopping rule is
    # relative, so a small integral is refined like a large one
    value = tanh_sinh(lambda x, dl, dr: 1e-16 * dl**2 * dr**2, 0.0, 1.0,
                      (2.0, 2.0))
    assert abs(value - 1e-16 / 30.0) <= 1e-10 * 1e-16 / 30.0


def test_tanh_sinh_on_an_integral_that_cancels_raises():
    # sin 2 pi x integrates to 0: the levels settle at rounding noise,
    # which no relative rule accepts
    with pytest.raises(QuadratureError, match="failed to converge"):
        tanh_sinh(lambda x, dl, dr: np.sin(2.0 * np.pi * x), 0.0, 1.0)


def _wirtinger_closed_form(p: HgParams, tau: TauPoint) -> complex:
    """The Wirtinger integral from its closed form: cocycle 3 over cycle 1
    of P+, over the Jacobian pi theta2(0)^2."""
    return (period_matrix(p, tau)[2, 0]
            / (math.pi * theta_constants(tau).th2_0 ** 2))


_PERIOD_ERRORS = (AdmissibilityError, HypergeomError, PeriodError,
                  QuadratureError, SeriesError)


@settings(max_examples=200)
@given(wirtinger_params, imaginary_taus)
def test_wirtinger_quadrature_agrees_with_the_closed_form_or_raises(p, tau):
    value = _served(wirtinger_quadrature, p, tau, errors=_PERIOD_ERRORS)
    if value is None:
        return
    assert math.isfinite(value)
    expect = _served(_wirtinger_closed_form, p, tau, errors=_PERIOD_ERRORS)
    if expect is None:
        return
    assert abs(value - expect) <= 1e-8 * abs(expect)


def test_wirtinger_quadrature_on_a_small_integral():
    # about 1.4e-90 at Im tau = 47: only a relative stopping rule serves it
    p = HgParams(1.9135967254381523, -1.174299349621414, 3.8048274903709496)
    tau = TauPoint(47.05385905767068j)
    expect = _wirtinger_closed_form(p, tau)
    assert abs(wirtinger_quadrature(p, tau) - expect) <= 1e-8 * abs(expect)


def test_wirtinger_quadrature_with_both_exponents_near_minus_one():
    # unscaled, theta1(d0)^(2a-1) is about 1e292 at the outermost node and
    # the theta2 power takes it past the double range, although the closed
    # form is about 4.4e36; theta1's prefactors divided by a power of two
    # near 2 q_half^(1/4) keep the powers in range
    p, tau = HgParams(0.0001, -0.13, 0.0025), TauPoint(50j)
    expect = _wirtinger_closed_form(p, tau)
    assert math.isfinite(abs(expect))
    value = wirtinger_quadrature(p, tau)
    assert abs(value - expect) <= 1e-8 * abs(expect)


def _euler_value(side: str, a, b, c, z: float) -> tuple[complex, float]:
    """A side's B(A, C - A) 2F1(A, B; C; z) z^z_power at 30 digits, and the
    2F1 clause's bound scaled by |B(A, C - A) z^z_power|."""
    A, B, C, zpow = _euler_side(side, a, b, c)
    with mpmath.workdps(30):
        factor = mpmath.beta(A, C - A) * mpmath.mpf(z) ** zpow
        value = complex(factor * mpmath.hyp2f1(A, B, C, z))
        return value, 1e-9 * float(abs(factor)) * _term_moduli(A, B, C, z)


@example("2+", (0.3, 0.2, 2.5), 1e-300)  # z^z_power overflows in cmath.exp
@example("2-", (0.3, 0.2, -2.5), 1e-300)
@example("2+", (0.3, 0.99, 1.98), 5e-324)  # and in a float **
@example("2+", (1000.0, 1.000000001, 0.0), 0.5)  # -1e9 times 2.1e301
@settings(max_examples=200)
@given(st.sampled_from(["1+", "1-", "2+", "2-"]), f21_parameters,
       euler_arguments)
def test_euler_pairings_agree_with_mpmath_or_raise(side, abc, z):
    closed, quadrature = (_served(fn, side, *abc, z, errors=_PERIOD_ERRORS)
                          for fn in (euler_pairing_closed, euler_pairing))
    if closed is None and quadrature is None:
        return
    expect, bound = _euler_value(side, *abc, z)
    for value in (closed, quadrature):
        assert value is None or cmath.isfinite(value)
    assert closed is None or abs(closed - expect) <= bound
    assert quadrature is None or abs(quadrature - expect) <= 1e-8 * abs(expect)
