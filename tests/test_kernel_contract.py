"""The kernel contract over the admitted domain: each kernel returns a
value that agrees with an independent oracle, or raises its own typed
error; it never returns nan or inf, and raises or warns nothing else."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import f21_arguments, f21_parameters, taus

from twistedperiods.hypergeom import HypergeomError, gauss_2f1
from twistedperiods.series import SeriesError, theta_taylor


def _term_moduli(a, b, c, z) -> float:
    """The sum of |(a)_n (b)_n / ((c)_n n!) z^n| over n: the scale of the
    series' rounding, where F itself may be near a zero."""
    n = np.arange(3000.0)
    ratios = np.abs((a + n) * (b + n) / ((c + n) * (n + 1.0)) * z)
    return 1.0 + float(np.cumprod(ratios).sum())


@settings(max_examples=200)
@given(f21_parameters, f21_arguments)
def test_gauss_2f1_agrees_with_mpmath_or_raises(abc, z):
    mpmath = pytest.importorskip("mpmath")
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
