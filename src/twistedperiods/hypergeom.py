"""Gamma, Gauss 2F1 in the unit disk, and the Whipple product coefficients.

Parameters are restricted to real values; complexity enters only through the
series argument z.  The 2F1 is served by its defining power series within
|z| <= RADIUS_GUARD; no analytic continuation is attempted.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import sys

import numpy as np

# Shared "near-integer" guard: a real x counts as integral when it is within
# this distance of an integer.
INTEGRALITY_GUARD = 1e-9

# Largest degree accepted, a cap on one table's work (callers stop at 12).
MAX_DEGREE = 170


class HypergeomError(Exception):
    """Raised for pole hits, radius violations, non-convergence, bad input."""


def is_near_nonpositive_integer(x):
    """Whether x <= 0 is within INTEGRALITY_GUARD of an integer, the pole
    rule of Gamma and of a 2F1 lower parameter; elementwise on an array.
    Both routes take x - round(x) exactly: np.rint costs 1 us on a float."""
    off = (x - np.rint(x) if isinstance(x, np.ndarray)
           else math.remainder(x, 1.0))
    return (x <= INTEGRALITY_GUARD) & (abs(off) <= INTEGRALITY_GUARD)


def _count(n, what: str) -> int:
    """``n`` as an int if it is an integer in 0..MAX_DEGREE (3.0 counts)."""
    if np.issubdtype(type(n), np.bool_) or not (n >= 0 and n % 1 == 0):
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


def gamma_real(x):
    """Gamma function for real x (``math.gamma``) with typed errors;
    elementwise on an array, whose shape the values keep: each element in
    C order is a float's ``gamma_real``, so the first that breaks a rule
    raises its error.

    Raises at non-positive integers (within the integrality guard), where
    Gamma overflows double precision (x above about 171.6), and where
    |Gamma| falls below the smallest normal double, so that its reciprocal
    overflows (x below about -170.6, except close to a pole).
    """
    if isinstance(x, np.ndarray):
        return np.array(list(map(_gamma, x.ravel().tolist())),
                        float).reshape(x.shape)
    return _gamma(x)


def _gamma(x: float) -> float:
    """``gamma_real`` of one float."""
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


def beta_real(a, c):
    """Euler's Beta factor ``Gamma(a) Gamma(c - a) / Gamma(c)``; elementwise
    on arrays of one shape, each element's three Gamma factors tested in
    that order (``gamma_real``).  Then the first element, in C order, whose
    product or quotient overflows raises, even where the Beta itself is
    finite: the factors are not reordered, so no finite value moves."""
    x = np.stack([a, c - a, c], axis=-1)
    g = gamma_real(x)
    with np.errstate(over="ignore"):
        value = g[..., 0] * g[..., 1] / g[..., 2]
    for bad in x[~np.isfinite(value)][:1].tolist():
        raise HypergeomError("Gamma({}) Gamma({}) / Gamma({}) overflows "
                             "double precision".format(*bad))
    return value if value.ndim else float(value)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric series sum (a)_n (b)_n / ((c)_n n!) z^n.

    Valid for finite arguments with |z| <= RADIUS_GUARD and c not a
    non-positive integer; raises if 2^-53 sum |t_n| >= |F|: no digit kept.

    Scalar arguments are summed by a loop, term by term.  If any argument
    is a numpy array, they broadcast, one series per element, and are
    summed as tables of series x terms (``_f21_table``), with the loop's
    results bit for bit; the first series in order that fails raises the
    loop's error.  Both routes stop by one rule: at the first term t_n
    where |t_n| and the next term, rounded as the update rounds it, are
    both at most F21_REL_TOL |T_n|, T_n the partial sum.  The table pays
    from about a dozen series (timings in the README).
    """
    if np.ndarray in (type(a), type(b), type(c), type(z)):
        return _f21_table(a, b, c, z)
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
    size = 1.0  # sum |t_n|, the scale of the sum's rounding error
    n = 0.0  # a float counter: no int-to-float conversion per operation
    try:  # free until it catches: abs() of an overflowed complex raises
        for _ in range(F21_MAX_TERMS):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            size += (t := abs(term))
            n += 1.0
            # the next term, rounded as the update rounds it, as a tail guard
            if t <= F21_REL_TOL * abs(total) and abs(
                    term * ((a + n) * (b + n) / ((c + n) * (n + 1.0)) * z)
            ) <= F21_REL_TOL * abs(total):
                if size * 2.0**-53 >= abs(total):
                    raise HypergeomError(f"2F1 sum {total} lost every digit "
                                         f"to cancellation: sum |t_n| = "
                                         f"{size:.3e}")
                return total
    except OverflowError:
        raise HypergeomError(
            f"2F1 terms overflow double precision at z = {z}") from None
    raise HypergeomError(
        f"2F1 series did not converge within {F21_MAX_TERMS} terms at z = {z}"
    )


# Elements of one 2F1 table; more series than fit are split over tables.
F21_TABLE_SIZE = 2**14


def _f21_table(a, b, c, z) -> np.ndarray:
    """``gauss_2f1`` over arrays that broadcast, as tables of series x terms.

    The series are taken in order of falling |z|, and each table's term
    count is sized from its first |z|: about 1.4 times the terms |z|^n
    takes to fall below F21_REL_TOL.  A table runs the loop's sequences:
    np.cumprod of the term ratios from the leading 1, and np.cumsum of the
    terms and of their moduli, so its terms and partial sums T_n equal the
    loop's bit for bit (np.hypot is ``abs``'s modulus; np.abs rounds
    differently).  A series stops at the loop's stop, where the table's
    next term is the loop's tail guard, and keeps its sum if
    2^-53 sum |t_n| < |T_n|.  Every other series, one that fails or that
    does not stop within its table, is summed by the loop, which gives its
    sum or raises its error.  Terms past a series' stop may overflow; they
    are never read.
    """
    a, b, c, z = np.broadcast_arrays(
        np.asarray(a, float), np.asarray(b, float), np.asarray(c, float),
        np.asarray(z, complex))
    shape = a.shape
    a, b, c, z = (x.ravel() for x in (a, b, c, z))
    out = np.empty(a.size, complex)
    summed = np.zeros(a.size, bool)
    with np.errstate(all="ignore"):
        radius = np.hypot(z.real, z.imag)
        rows = np.flatnonzero(
            np.isfinite(a + b + c + z) & (radius <= RADIUS_GUARD)
            & ~is_near_nonpositive_integer(c))
        rows = rows[np.argsort(-radius[rows], kind="stable")]
        while rows.size:
            m = min(F21_MAX_TERMS, 4 + math.ceil(
                1.4 * math.log(F21_REL_TOL)
                / math.log(max(radius[rows[0]], 1e-300))))
            table, rows = np.split(rows, [F21_TABLE_SIZE // m + 1])
            n = np.arange(m, dtype=float)  # the loop's n of each term
            terms = np.ones((table.size, m + 1), complex)
            terms[:, 1:] = ((a[table, None] + n) * (b[table, None] + n)
                            / ((c[table, None] + n) * (n + 1.0))
                            * z[table, None])
            np.cumprod(terms, axis=1, out=terms)
            totals = np.cumsum(terms, axis=1)
            moduli = np.hypot(terms.real, terms.imag)
            sizes = np.cumsum(moduli, axis=1)
            scales = np.hypot(totals.real, totals.imag)
            bound = F21_REL_TOL * scales[:, 1:-1]
            stop = (moduli[:, 1:-1] <= bound) & (moduli[:, 2:] <= bound)
            k = stop.argmax(axis=1) + 1  # the loop's stop, if any
            r = np.arange(table.size)
            stops = stop[r, k - 1] & (sizes[r, k] * 2.0**-53 < scales[r, k])
            out[table[stops]] = totals[r[stops], k[stops]]
            summed[table[stops]] = True
    for i in np.flatnonzero(~summed).tolist():
        out[i] = gauss_2f1(float(a[i]), float(b[i]), float(c[i]),
                           complex(z[i]))
    return out.reshape(shape)


def _f21_coeffs(x: float, y: float, z: float, n: int) -> list[float]:
    """(x)_k (y)_k / ((z)_k k!) for k = 0..n, one running product; raises
    if z is within the integrality guard of -k for some k < n."""
    if is_near_nonpositive_integer(z) and -round(z) < n:
        raise HypergeomError(
            f"lower parameter {z} hits a pole at term k = {1 - round(z)}")
    return list(itertools.accumulate(
        ((x + k) * (y + k) / ((z + k) * (k + 1.0)) for k in range(n)),
        operator.mul, initial=1.0))


def product_params(a: float, b: float, c: float) -> tuple[tuple, ...]:
    """The (a, b, c) of the four 2F1 factors, in order, of the (2,2) product
    c F(a, b; c) F(-a-1, 1-b; -c) + K z^2 F(a+2, b; 2+c) F(1-a, 1-b; 2-c),
    whose sum is c + (a-b+1) z (K is ``product_k``)."""
    return ((a, b, c), (-a - 1.0, 1.0 - b, -c), (a + 2.0, b, 2.0 + c),
            (1.0 - a, 1.0 - b, 2.0 - c))


def product_k(a: float, b: float, c: float) -> float:
    """K = a(a+1)(c-b)(c-b+1) / (c(1+c)(1-c)) of ``product_params``."""
    return (a * (a + 1.0) * (c - b) * (c - b + 1.0)
            / (c * (1.0 + c) * (1.0 - c)))


def product_coeffs(n_max: int, a: float, b: float, c: float
                   ) -> list[tuple[float, float]]:
    """(term 1, term 2) power-series coefficients, degrees n = 0..n_max, of
    the two terms of the (2,2) product (``product_params``): Cauchy sums in
    k order from 0.0 (``functools.reduce``; ``sum`` of floats compensates
    from Python 3.12).  A lower parameter at a pole of the 2F1 coefficients
    used raises, as does the first non-finite degree's pair."""
    n_max = _count(n_max, "n_max")
    _require_finite("Whipple parameter", "abc", (a, b, c))
    f, g, h, m = (_f21_coeffs(*abc, n) for abc, n in zip(
        product_params(a, b, c), (n_max, n_max, n_max - 2, n_max - 2)))
    if n_max >= 2:  # c and -c passed the guard: c(1+c)(1-c) is not 0
        K = product_k(a, b, c)

    def cauchy(u, v):
        return functools.reduce(operator.add, map(operator.mul, u, v), 0.0)

    pairs = []
    for n in range(n_max + 1):
        term1 = c * cauchy(f, g[n::-1])
        term2 = 0.0 if n < 2 else K * cauchy(h, m[n - 2::-1])
        if not (math.isfinite(term1) and math.isfinite(term2)):
            raise HypergeomError(f"Whipple coefficients ({term1}, {term2}) "
                                 f"at degree {n} are not finite")
        pairs.append((term1, term2))
    return pairs
