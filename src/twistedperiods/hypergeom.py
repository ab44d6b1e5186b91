"""Gamma, Pochhammer, Gauss 2F1 inside the unit disk, and terminating 4F3.

Parameters are restricted to real values; complexity enters only through the
series argument z.  The 2F1 is served by its defining power series within
|z| <= RADIUS_GUARD; no analytic continuation is attempted.
"""

from __future__ import annotations

import cmath
import math
import sys

# Shared "near-integer" guard: a real x counts as integral when it is within
# this distance of an integer.
INTEGRALITY_GUARD = 1e-9


class HypergeomError(Exception):
    """Raised for pole hits, radius violations, and non-convergence."""


def is_near_nonpositive_integer(x: float, guard: float = INTEGRALITY_GUARD) -> bool:
    return x <= guard and abs(x - round(x)) <= guard


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


def _rising(x: float, n: int) -> list[float]:
    """``pochhammer(x, k)`` for k = 0..n: the prefixes of one running product."""
    out = [1.0]
    for k in range(n):
        out.append(out[-1] * (x + k))
    return out


def pochhammer(x: float, n: int) -> float:
    """Rising factorial x (x+1) ... (x+n-1); the empty product is 1."""
    if n < 0:
        raise HypergeomError("pochhammer needs n >= 0")
    return _rising(x, n)[n]


def gauss_2f1(a: float, b: float, c: float, z: complex) -> complex:
    """Gauss hypergeometric series sum (a)_n (b)_n / ((c)_n n!) z^n.

    Valid for finite arguments with |z| <= RADIUS_GUARD and c not a
    non-positive integer.
    """
    z = complex(z)
    for name, value in (("a", a), ("b", b), ("c", c), ("z", z)):
        if not cmath.isfinite(value):
            raise HypergeomError(f"non-finite 2F1 argument {name} = {value}")
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
    left to right; a lower parameter hitting a non-positive integer inside
    the summation range raises.
    """
    if n < 0 or n != int(n):
        raise HypergeomError("termination index n must be a non-negative integer")
    n = int(n)
    a, b, c = map(float, uppers)
    d, e, f = map(float, lowers)
    for low in (d, e, f):
        # only the nearest integer to -low can lie within the guard
        k = -round(low) if math.isfinite(low) else -1
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


def _risings(n: int, a: float, b: float, c: float) -> list[list[float]]:
    """Prefixes 0..n of the rising factorials of -c, -a-1, 1-b, 2-c, 1-a."""
    return [_rising(x, n) for x in (-c, -a - 1.0, -b + 1.0, 2.0 - c, -a + 1.0)]


def _term1(n, a, b, c, neg_c, neg_a_1, one_b, *_) -> float:
    if n < 0:
        raise HypergeomError("pochhammer needs n >= 0")
    denom = neg_c[n] * math.factorial(n)
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (c * neg_a_1[n] * one_b[n] / denom)
    return pref * hyper_4f3_terminating(
        n, (b, a, 1.0 - n + c), (2.0 - n + a, c, -float(n) + b)
    )


def _term2(n, a, b, c, _, __, one_b, two_c, one_a) -> float:
    if n < 2:
        return 0.0
    denom = (c * (1.0 + c) * (1.0 - c)
             * two_c[n - 2] * math.factorial(n - 2))
    if denom == 0.0:
        raise HypergeomError(f"coefficient denominator vanishes at c = {c}")
    pref = (a * (a + 1.0) * (c - b) * (c - b + 1.0)
            * one_a[n - 2] * one_b[n - 2]
            / denom)
    # Lower parameter 2 - n + b (not -n + b): verified against a direct
    # Cauchy-product expansion of the two 2F1 factors.
    return pref * hyper_4f3_terminating(
        n - 2, (b, a + 2.0, 1.0 - n + c), (2.0 - n + a, 2.0 + c, 2.0 - n + b)
    )


def product_coeffs(n_max: int, a: float, b: float, c: float
                   ) -> list[tuple[float, float]]:
    """The (term-1, term-2) coefficient pairs of degrees n = 0..n_max, in
    order and term 1 first, so the first failure raises.  Each Pochhammer
    symbol is a prefix of one running product per base, so every pair
    equals ``product_term1_coeff`` and ``product_term2_coeff`` bit for bit.
    """
    r = _risings(n_max, a, b, c)
    return [(_term1(n, a, b, c, *r), _term2(n, a, b, c, *r))
            for n in range(n_max + 1)]


def product_term1_coeff(n: int, a: float, b: float, c: float) -> float:
    """Power-series coefficient (degree n) of the first 2F1-product term
    in the theta-constant quadratic identity.

    Equals c for n = 0 and a - b + 1 for n = 1.
    """
    return _term1(n, a, b, c, *_risings(n, a, b, c))


def product_term2_coeff(n: int, a: float, b: float, c: float) -> float:
    """Power-series coefficient (degree n, n >= 2) of the second
    2F1-product term; cancels ``product_term1_coeff`` for n >= 2."""
    return _term2(n, a, b, c, *_risings(n, a, b, c))
