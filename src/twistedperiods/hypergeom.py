"""Gamma, Pochhammer, Gauss 2F1 inside the unit disk, and terminating 4F3.

Parameters are restricted to real values; complexity enters only through the
series argument z.  The 2F1 is served by its defining power series within
|z| <= RADIUS_GUARD; no analytic continuation is attempted.
"""

from __future__ import annotations

import math
import sys

# Shared "near-integer" guard: a real x counts as integral when it is within
# this distance of an integer.
INTEGRALITY_GUARD = 1e-9


class HypergeomError(Exception):
    """Raised for pole hits, radius violations, and non-convergence."""


def is_near_integer(x: float, guard: float = INTEGRALITY_GUARD) -> bool:
    return abs(x - round(x)) <= guard


def is_near_nonpositive_integer(x: float, guard: float = INTEGRALITY_GUARD) -> bool:
    return x <= guard and is_near_integer(x, guard)


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


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x+1) ... (x+n-1); the empty product is 1."""
    if n < 0:
        raise HypergeomError("pochhammer needs n >= 0")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series sum (a)_n (b)_n / ((c)_n n!) z^n.

    Valid for |z| <= RADIUS_GUARD; c must not be a non-positive integer.
    """
    z = complex(z)
    if abs(z) > RADIUS_GUARD:
        raise HypergeomError(
            f"|z| = {abs(z):.4f} exceeds the series radius guard {RADIUS_GUARD}"
        )
    if is_near_nonpositive_integer(c):
        raise HypergeomError(f"2F1 pole: c = {c} is a non-positive integer")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for n in range(F21_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= F21_REL_TOL * abs(total):
            # one extra term as a tail guard
            nxt = term * (a + n + 1) * (b + n + 1) / ((c + n + 1) * (n + 2.0)) * z
            if abs(nxt) <= F21_REL_TOL * abs(total):
                return total
    raise HypergeomError(
        f"2F1 series did not converge within {F21_MAX_TERMS} terms at z = {z}"
    )


def hyper_4f3_terminating(n: int, uppers, lowers) -> float:
    """Terminating 4F3(-n, a, b, c; d, e, f; 1) as an exact finite sum.

    ``uppers`` = (a, b, c) and ``lowers`` = (d, e, f).  Terms are accumulated
    left to right; a lower parameter hitting a non-positive integer inside
    the summation range raises.
    """
    if n < 0 or n != int(n):
        raise HypergeomError("termination index n must be a non-negative integer")
    n = int(n)
    a, b, c = (float(v) for v in uppers)
    d, e, f = (float(v) for v in lowers)
    for low in (d, e, f):
        for k in range(n):
            if abs(low + k) <= INTEGRALITY_GUARD:
                raise HypergeomError(
                    f"lower parameter {low} hits a pole at term k = {k + 1}"
                )
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= (-n + k) * (a + k) * (b + k) * (c + k)
        term /= (d + k) * (e + k) * (f + k) * (k + 1.0)
        total += term
    return total


def whipple_transform_rhs(n: int, a: float, b: float, c: float,
                          d: float, e: float, f: float) -> float:
    """Right-hand side of the balanced 4F3 transformation at unit argument.

    Requires a + b + c - n + 1 = d + e + f.  The left-hand side is
    ``hyper_4f3_terminating(n, (a, b, c), (d, e, f))``.
    """
    factor = (pochhammer(e - a, n) * pochhammer(f - a, n)
              / (pochhammer(e, n) * pochhammer(f, n)))
    return factor * hyper_4f3_terminating(
        n, (a, d - b, d - c), (d, a - e - n + 1.0, a - f - n + 1.0)
    )


def product_term1_coeff(n: int, a: float, b: float, c: float) -> float:
    """Power-series coefficient (degree n) of the first 2F1-product term
    in the theta-constant quadratic identity.

    Equals c for n = 0 and a - b + 1 for n = 1.
    """
    denom = pochhammer(-c, n) * math.factorial(n)
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (c * pochhammer(-a - 1.0, n) * pochhammer(-b + 1.0, n) / denom)
    return pref * hyper_4f3_terminating(
        n, (b, a, 1.0 - n + c), (2.0 - n + a, c, -float(n) + b)
    )


def product_term2_coeff(n: int, a: float, b: float, c: float) -> float:
    """Power-series coefficient (degree n, n >= 2) of the second
    2F1-product term; cancels ``product_term1_coeff`` for n >= 2."""
    if n < 2:
        return 0.0
    denom = (c * (1.0 + c) * (1.0 - c)
             * pochhammer(2.0 - c, n - 2) * math.factorial(n - 2))
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (a * (a + 1.0) * (c - b) * (c - b + 1.0)
            * pochhammer(-a + 1.0, n - 2) * pochhammer(-b + 1.0, n - 2)
            / denom)
    # Lower parameter 2 - n + b (not -n + b): verified against a direct
    # Cauchy-product expansion of the two 2F1 factors.
    return pref * hyper_4f3_terminating(
        n - 2, (b, a + 2.0, 1.0 - n + c), (2.0 - n + a, 2.0 + c, 2.0 - n + b)
    )
