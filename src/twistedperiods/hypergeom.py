"""Gamma, Gauss 2F1 in the unit disk, terminating 4F3, Whipple coefficients.

Parameters are restricted to real values; complexity enters only through the
series argument z.  The 2F1 is served by its defining power series within
|z| <= RADIUS_GUARD; no analytic continuation is attempted.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys

# Shared "near-integer" guard: a real x counts as integral when it is within
# this distance of an integer.
INTEGRALITY_GUARD = 1e-9

# Largest degree or termination index accepted: n! leaves double range
# above it (the library's own callers stop at degree 12).
MAX_DEGREE = 170


class HypergeomError(Exception):
    """Raised for pole hits, radius violations, non-convergence, bad input."""


def is_near_nonpositive_integer(x: float) -> bool:
    return x <= INTEGRALITY_GUARD and abs(x - round(x)) <= INTEGRALITY_GUARD


def _count(n, what: str) -> int:
    """``n`` as an int if it is an integer in 0..MAX_DEGREE (3.0 counts)."""
    if not (n >= 0 and n % 1 == 0):
        raise HypergeomError(f"{what} must be a non-negative integer, not {n}")
    if n > MAX_DEGREE:
        raise HypergeomError(
            f"{what} = {n} exceeds the maximum degree {MAX_DEGREE}")
    return int(n)


def _require_finite(what: str, names: str, values) -> None:
    """A HypergeomError naming the first non-finite value.  Hot callers
    first test the values' sum, which any non-finite value makes non-finite."""
    for name, value in zip(names, values):
        if not cmath.isfinite(value):
            raise HypergeomError(f"non-finite {what} {name} = {value}")


# Stopping rule and domain of the 2F1 power series: stop once two successive
# terms fall below F21_REL_TOL relative, raise after F21_MAX_TERMS terms or
# for |z| > RADIUS_GUARD.
F21_MAX_TERMS = 2000
F21_REL_TOL = 1e-16
RADIUS_GUARD = 0.95


def gamma_real(x: float) -> float:
    """Gamma function for real x (``math.gamma``) with typed errors.

    Raises at non-positive integers (within the integrality guard), where
    Gamma overflows double precision (x above about 171.6), and where
    |Gamma| falls below the smallest normal double, so that its reciprocal
    overflows (x below about -170.6, except close to a pole).
    """
    x = float(x)
    if not math.isfinite(x):
        raise HypergeomError(f"non-finite argument {x}")
    if is_near_nonpositive_integer(x):
        raise HypergeomError(f"gamma pole at x = {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        raise HypergeomError(
            f"Gamma({x}) overflows double precision") from None
    if abs(value) < sys.float_info.min:
        # math.gamma returns a subnormal or zero here instead of raising
        raise HypergeomError(f"1/Gamma({x}) overflows double precision")
    return value


def beta_real(a: float, c: float) -> float:
    """Euler's Beta factor ``Gamma(a) Gamma(c - a) / Gamma(c)``."""
    return gamma_real(a) * gamma_real(c - a) / gamma_real(c)


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series sum (a)_n (b)_n / ((c)_n n!) z^n.

    Valid for finite arguments with |z| <= RADIUS_GUARD and c not a
    non-positive integer.
    """
    z = complex(z)
    if not cmath.isfinite(a + b + c + z):
        _require_finite("2F1 argument", "abcz", (a, b, c, z))
    if abs(z) > RADIUS_GUARD:
        raise HypergeomError(
            f"|z| = {abs(z):.4f} exceeds the series radius guard {RADIUS_GUARD}"
        )
    if is_near_nonpositive_integer(c):
        raise HypergeomError(f"2F1 pole: c = {c} is a non-positive integer")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    n = 0.0  # a float counter, as in hyper_4f3_terminating
    for _ in range(F21_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= F21_REL_TOL * abs(total):
            # one extra term as a tail guard
            nxt = term * (a + n + 1) * (b + n + 1) / ((c + n + 1) * (n + 2.0)) * z
            if abs(nxt) <= F21_REL_TOL * abs(total):
                return total
        n += 1.0
    raise HypergeomError(
        f"2F1 series did not converge within {F21_MAX_TERMS} terms at z = {z}"
    )


def hyper_4f3_terminating(n: int, uppers, lowers) -> float:
    """Terminating 4F3(-n, a, b, c; d, e, f; 1) as an exact finite sum.

    ``uppers`` = (a, b, c) and ``lowers`` = (d, e, f).  Terms are accumulated
    left to right; a non-finite parameter, or a lower parameter hitting a
    non-positive integer inside the summation range, raises.
    """
    n = _count(n, "termination index n")
    a, b, c = map(float, uppers)
    d, e, f = map(float, lowers)
    if not math.isfinite(a + b + c + d + e + f):
        _require_finite("4F3 parameter", "abcdef", (a, b, c, d, e, f))
    for low in (d, e, f):
        # only the nearest integer to -low can lie within the guard
        k = -round(low)
        if 0 <= k < n and abs(low + k) <= INTEGRALITY_GUARD:
            raise HypergeomError(
                f"lower parameter {low} hits a pole at term k = {k + 1}"
            )
    total = 1.0
    term = 1.0
    # a float counter: the same values as an int k, without converting k
    # in every operation
    m, k = float(n), 0.0
    for _ in range(n):
        term *= (k - m) * (a + k) * (b + k) * (c + k)
        term /= (d + k) * (e + k) * (f + k) * (k + 1.0)
        total += term
        k += 1.0
    return total


def product_coeffs(n_max: int, a: float, b: float, c: float
                   ) -> list[tuple[float, float]]:
    """(term 1, term 2) power-series coefficients, degrees n = 0..n_max,
    of the two 2F1-product terms in the theta-constant quadratic identity.

    Term 1 is c at n = 0 and a - b + 1 at n = 1; term 2 is 0 below n = 2
    and cancels term 1 above.  Every Pochhammer symbol is a prefix of one
    running product per base; degrees run in order, term 1 first, so the
    first failing coefficient raises; a non-finite one (the products
    overflow from about degree 100 on) raises naming its degree.
    """
    n_max = _count(n_max, "n_max")
    _require_finite("Whipple parameter", "abc", (a, b, c))
    neg_c, neg_a_1, one_b, two_c, one_a = (
        list(itertools.accumulate((x + k for k in range(n_max)),
                                  operator.mul, initial=1.0))
        for x in (-c, -a - 1.0, -b + 1.0, 2.0 - c, -a + 1.0))

    def term(num, denom, k, uppers, lowers):
        if denom == 0.0:
            raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
        return num / denom * hyper_4f3_terminating(k, uppers, lowers)

    pairs = []
    for n in range(n_max + 1):
        term1 = term(c * neg_a_1[n] * one_b[n], neg_c[n] * math.factorial(n),
                     n, (b, a, 1.0 - n + c), (2.0 - n + a, c, -float(n) + b))
        # Lower parameter 2 - n + b (not -n + b): verified against a direct
        # Cauchy-product expansion of the two 2F1 factors.
        term2 = 0.0 if n < 2 else term(
            a * (a + 1.0) * (c - b) * (c - b + 1.0)
            * one_a[n - 2] * one_b[n - 2],
            c * (1.0 + c) * (1.0 - c) * two_c[n - 2] * math.factorial(n - 2),
            n - 2, (b, a + 2.0, 1.0 - n + c),
            (2.0 - n + a, 2.0 + c, 2.0 - n + b))
        if not (math.isfinite(term1) and math.isfinite(term2)):
            raise HypergeomError(
                f"Whipple coefficients ({term1}, {term2}) at degree {n} "
                "are not finite")
        pairs.append((term1, term2))
    return pairs
