"""Jacobi theta functions and the series kernels built on top of them.

Everything in this module is a q-series: the four theta functions, their
derivatives at the origin, the modular lambda function, the weight-two
Eisenstein series, the Jacobian elliptic functions expressed as theta
ratios, and truncated power/Laurent series used for coefficient checks.

Conventions: ``e(x) = exp(2*pi*i*x)``, the nome is ``q = e(tau)``, and the
theta series use the half nome ``exp(pi*i*tau)`` so that, e.g.,
``theta3(u) = sum_m q^(m^2/2) e(m u)``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI_I = 2j * math.pi

# Truncation policy for the q-series: sum at least MIN_TERMS and at most
# MAX_TERMS terms, and drop terms below REL_CUTOFF relative.  theta takes its
# count from an a-priori bound and raises past MAX_TERMS; the other series
# stop once a term drops below REL_CUTOFF times the running partial sum.
REL_CUTOFF = 1e-17
MIN_TERMS = 8
MAX_TERMS = 400

_LOG_CUTOFF = math.log(1.0 / REL_CUTOFF)
# largest exponent whose exp (and so cosh) stays finite
_LOG_MAX = math.log(sys.float_info.max)

# Smallest admitted Im(tau); below this the q-series converge too slowly.
IM_TAU_FLOOR = 0.1

POLE_THRESHOLD = 1e-13


class SeriesError(Exception):
    """Raised when a series evaluation cannot be performed as requested."""


class PoleError(SeriesError):
    """Raised when an evaluation point sits on (or too close to) a pole."""


@dataclass(frozen=True)
class TauPoint:
    """A point in the upper half-plane with its cached nomes and kernel values.

    ``q = exp(2*pi*i*tau)`` and ``q_half = exp(pi*i*tau)``.  The theta
    constants, ``lambda(tau)`` and G2 at tau, 2 tau and tau/2 are computed
    on first use and then kept on the point, so checks repeated at one tau
    should share one point.  They are not dataclass fields: equality,
    hashing and repr depend on tau alone.
    """

    tau: complex
    q: complex = field(init=False, repr=False)
    q_half: complex = field(init=False, repr=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise SeriesError(f"non-finite tau: {tau}")
        if tau.imag < IM_TAU_FLOOR:
            raise SeriesError(
                f"Im(tau) = {tau.imag} below floor {IM_TAU_FLOOR}; "
                "q-series would converge too slowly"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q", cmath.exp(TWO_PI_I * tau))
        object.__setattr__(self, "q_half", cmath.exp(TWO_PI_I * tau / 2.0))

    def scaled(self, factor: float) -> "TauPoint":
        """TauPoint at ``factor * tau`` (used for the G2 combinations)."""
        return TauPoint(self.tau * factor)

    @cached_property
    def constants(self) -> ThetaConstants:
        """All theta constants at u = 0 needed by the intersection matrices.

        Derivatives come from termwise differentiation of the defining
        series, never from finite differences.
        """
        s1 = theta_taylor(1, 3, self)
        s2 = theta_taylor(2, 2, self)
        s3 = theta_taylor(3, 2, self)
        s4 = theta_taylor(4, 2, self)
        return ThetaConstants(
            th2_0=s2.coeff(0),
            th3_0=s3.coeff(0),
            th4_0=s4.coeff(0),
            th1p_0=s1.coeff(1),
            th1ppp_0=6.0 * s1.coeff(3),
            th2pp_0=2.0 * s2.coeff(2),
            th3pp_0=2.0 * s3.coeff(2),
            th4pp_0=2.0 * s4.coeff(2),
        )

    @cached_property
    def theta_terms(self) -> tuple:
        """``(frequencies, Re prefactors, Im prefactors)`` of theta_1..4 for
        real u, as read-only arrays indexed by j - 1."""
        tables = []
        for j in (1, 2, 3, 4):
            freq, pref = _theta_terms(j, self, 0.0)
            tables.append((freq, pref.real.copy(), pref.imag.copy()))
            for a in tables[-1]:
                a.setflags(write=False)
        return tuple(tables)

    @cached_property
    def lam(self) -> complex:
        """Modular lambda: ``theta2(0)^4 / theta3(0)^4``."""
        tc = self.constants
        return (tc.th2_0 / tc.th3_0) ** 4

    @cached_property
    def g2(self) -> complex:
        """Weight-two Eisenstein series
        ``pi^2/3 - 8 pi^2 sum n q^n/(1-q^n)``."""
        q = self.q
        acc = 0.0 + 0.0j
        qn = 1.0 + 0.0j
        for n in range(1, MAX_TERMS):
            qn *= q
            term = n * qn / (1.0 - qn)
            acc += term
            if n >= MIN_TERMS and abs(term) < REL_CUTOFF * max(abs(acc), 1e-300):
                break
        return math.pi**2 / 3.0 - 8.0 * math.pi**2 * acc

    @cached_property
    def g2_double(self) -> complex:
        """G2(2 tau)."""
        return self.scaled(2.0).g2

    @cached_property
    def g2_half(self) -> complex:
        """G2(tau/2); raises SeriesError when tau/2 is below the Im floor."""
        return self.scaled(0.5).g2


def _as_array(u):
    arr = np.asarray(u)
    if arr.dtype.kind != "c":
        arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise SeriesError("non-finite argument u")
    return arr


def _theta_terms(j: int, tau: TauPoint, im_u: float):
    """Frequencies ``2 pi mu`` and signed complex prefactors of the theta_j
    series, with as many terms as ``|Im u| <= im_u`` needs.

    Term mu is at most ``|q_half|^(mu^2 - mu_0^2) cosh(2 pi mu im_u)`` times
    the leading term (mu_0 = 1/2 for j = 1, 2 and 0 for j = 3, 4); the count
    keeps every term whose bound exceeds REL_CUTOFF, and at least MIN_TERMS.
    For j = 3, 4 the constant term comes first, as frequency 0.
    """
    t = tau.tau.imag
    first, lead = (0.5, 0.5) if j in (1, 2) else (1.0, 0.0)
    # largest root of pi t (mu^2 - lead^2) - 2 pi mu im_u = ln(1/REL_CUTOFF),
    # bounding ln cosh(z) by |z|
    mu_max = (im_u + math.sqrt(
        im_u * im_u + t * (t * lead * lead + _LOG_CUTOFF / math.pi))) / t
    n = max(MIN_TERMS, math.floor(mu_max - first) + 1)
    if n > MAX_TERMS:
        raise SeriesError(
            f"theta_{j} needs {n} terms at Im(tau) = {t}, |Im u| = {im_u}; "
            f"the cap is {MAX_TERMS}"
        )
    if 2.0 * math.pi * (first + n - 1) * im_u > _LOG_MAX:
        raise SeriesError(
            f"theta_{j} terms overflow at |Im u| = {im_u}, Im(tau) = {t}"
        )
    mu = first + np.arange(n)
    pref = np.exp(1j * math.pi * mu * mu * tau.tau) * 2.0
    # signs (-1)^m: m = 0, 1, ... for j = 1 and m = 1, 2, ... for j = 4
    if j == 1:
        pref[1::2] *= -1.0
    elif j == 4:
        pref[::2] *= -1.0
    freq = 2.0 * math.pi * mu
    if j in (3, 4):
        freq = np.concatenate(([0.0], freq))
        pref = np.concatenate(([1.0], pref))
    return freq, pref


def theta(j: int, u, tau: TauPoint):
    """Evaluate the theta function ``theta_j(u, tau)`` for j in 1..4.

    ``u`` may be a scalar or an ndarray; the return type matches.  Terms are
    paired symmetrically (m with -(m+1) for j=1,2 and m with -m for j=3,4),
    so theta_1 is a sine series and the others cosine series.  The term
    count comes from an a-priori bound (see ``_theta_terms``), with at
    least MIN_TERMS terms; a SeriesError is raised when the bound needs more
    than MAX_TERMS terms or the terms' ``cosh(2 pi mu Im u)`` growth
    overflows.  All terms are summed at once, each point along its own row.
    For real u the terms come from ``tau.theta_terms`` and the work array
    stays real, so a point's value does not depend on the other points of
    the array; for complex u the count follows the largest |Im u|.
    """
    if j not in (1, 2, 3, 4):
        raise SeriesError(f"invalid theta index {j}")
    arr = _as_array(u)
    x = arr.reshape(-1, 1)
    # the sine form keeps full relative accuracy near theta_1's zero at 0
    trig = np.sin if j == 1 else np.cos
    if np.iscomplexobj(x):
        im_u = float(np.abs(x.imag).max(initial=0.0))
        freq, pref = _theta_terms(j, tau, im_u)
        work = x * freq
        trig(work, out=work)
        work *= pref
        total = work.sum(axis=1)
    else:
        freq, pref_re, pref_im = tau.theta_terms[j - 1]
        work = x * freq
        trig(work, out=work)
        im = (work * pref_im).sum(axis=1)
        work *= pref_re
        total = work.sum(axis=1).astype(complex)
        total.imag = im
    return complex(total[0]) if arr.ndim == 0 else total.reshape(arr.shape)


@dataclass(frozen=True)
class ThetaConstants:
    """Values of the theta functions and their derivatives at u = 0."""

    th2_0: complex
    th3_0: complex
    th4_0: complex
    th1p_0: complex
    th1ppp_0: complex
    th2pp_0: complex
    th3pp_0: complex
    th4pp_0: complex


@dataclass
class PowerSeries:
    """Truncated Laurent series ``sum_k coeffs[k] * u**(k - pole_order)``.

    Arithmetic is exact on the retained coefficients; the retained length of
    a product/quotient is the shorter of the operands'.
    """

    coeffs: np.ndarray
    pole_order: int = 0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.pole_order < 0:
            raise ValueError("pole_order must be >= 0")

    @property
    def order(self) -> int:
        """Highest retained power of u."""
        return len(self.coeffs) - 1 - self.pole_order

    def coeff(self, power: int) -> complex:
        """Coefficient of u**power (0 outside the retained window)."""
        k = power + self.pole_order
        if k < 0 or k >= len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.coeffs[k])

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        p = max(self.pole_order, other.pole_order)
        top = min(self.order, other.order)
        n = top + p + 1
        out = np.zeros(n, dtype=complex)
        for k in range(n):
            power = k - p
            out[k] = self.coeff(power) + other.coeff(power)
        return PowerSeries(out, p)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self + other.scale(-1.0)

    def scale(self, factor: complex) -> "PowerSeries":
        return PowerSeries(self.coeffs * factor, self.pole_order)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        for i in range(n):
            for k in range(i + 1):
                if k < len(self.coeffs) and i - k < len(other.coeffs):
                    out[i] += self.coeffs[k] * other.coeffs[i - k]
        return PowerSeries(out, self.pole_order + other.pole_order)

    def inverse(self) -> "PowerSeries":
        """Multiplicative inverse; leading exact zeros become pole orders."""
        c = self.coeffs
        lead = 0
        while lead < len(c) and c[lead] == 0:
            lead += 1
        if lead == len(c):
            raise ZeroDivisionError("inverting the zero series")
        tail = c[lead:]
        n = len(tail)
        inv = np.zeros(n, dtype=complex)
        inv[0] = 1.0 / tail[0]
        for i in range(1, n):
            acc = 0.0 + 0.0j
            for k in range(1, i + 1):
                acc += tail[k] * inv[i - k]
            inv[i] = -acc / tail[0]
        # self = u**(lead - pole_order) * tail-series, so the inverse carries
        # pole order (lead - pole_order); a negative value is a zero at 0 and
        # shifts the coefficients instead.
        new_pole = lead - self.pole_order
        if new_pole < 0:
            inv = np.concatenate([np.zeros(-new_pole, dtype=complex), inv])[:n]
            new_pole = 0
        return PowerSeries(inv, new_pole)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        return self * other.inverse()


def theta_taylor(j: int, order: int, tau: TauPoint) -> PowerSeries:
    """Taylor series of ``theta_j`` around u = 0 by termwise differentiation.

    Parity is enforced exactly: odd-index coefficients of the even functions
    (j = 2, 3, 4) and even-index coefficients of ``theta_1`` are zero.
    """
    if j not in (1, 2, 3, 4):
        raise SeriesError(f"invalid theta index {j}")
    if order > 12:
        raise SeriesError(f"order {order} exceeds the supported maximum 12")
    t = tau.tau
    coeffs = np.zeros(order + 1, dtype=complex)
    factorials = [math.factorial(k) for k in range(order + 1)]

    if j in (1, 2):
        for m in range(MAX_TERMS):
            mu = m + 0.5
            pref = cmath.exp(1j * math.pi * mu * mu * t)
            z = TWO_PI_I * mu
            if j == 1:
                # theta_1(u) = -sum_m Q_m e(mu/2) e(mu u), paired over +/-mu
                phase = cmath.exp(1j * math.pi * mu)
                for k in range(1, order + 1, 2):
                    coeffs[k] += (
                        -pref
                        * (phase * z**k + phase.conjugate() * (-z) ** k)
                        / factorials[k]
                    )
            else:
                for k in range(0, order + 1, 2):
                    coeffs[k] += pref * 2.0 * z**k / factorials[k]
            if m + 1 >= MIN_TERMS and abs(pref) * (2.0 * math.pi * mu) ** order < REL_CUTOFF:
                break
    else:
        coeffs[0] = 1.0
        for m in range(1, MAX_TERMS):
            pref = cmath.exp(1j * math.pi * m * m * t)
            if j == 4:
                pref *= (-1) ** m
            z = TWO_PI_I * m
            for k in range(0, order + 1, 2):
                coeffs[k] += pref * 2.0 * z**k / factorials[k]
            if m >= MIN_TERMS and abs(pref) * (2.0 * math.pi * m) ** order < REL_CUTOFF:
                break
    return PowerSeries(coeffs, 0)


def theta_constants(tau: TauPoint) -> ThetaConstants:
    """All theta constants at u = 0 (``tau.constants``)."""
    return tau.constants


def lambda_tau(tau: TauPoint) -> complex:
    """Modular lambda: ``theta2(0)^4 / theta3(0)^4`` (``tau.lam``)."""
    return tau.lam


def eisenstein_g2(tau: TauPoint) -> complex:
    """Weight-two Eisenstein series ``pi^2/3 - 8 pi^2 sum n q^n/(1-q^n)``
    (``tau.g2``)."""
    return tau.g2


# Jacobian elliptic functions as theta ratios.  Each entry maps a name to
# (constant factor builder, numerator index, denominator index): the value at
# lattice coordinate u is  const(tc) * theta_num(u) / theta_den(u), and it
# equals the classical function evaluated at 2K u with K = pi*theta3(0)^2/2.
_ELLIPTIC = {
    "sn": (lambda tc: tc.th3_0 / tc.th2_0, 1, 4),
    "cn": (lambda tc: tc.th4_0 / tc.th2_0, 2, 4),
    "dn": (lambda tc: tc.th4_0 / tc.th3_0, 3, 4),
    "cs": (lambda tc: tc.th4_0 / tc.th3_0, 2, 1),
    "ds": (lambda tc: tc.th2_0 * tc.th4_0 / tc.th3_0**2, 3, 1),
    "ns": (lambda tc: tc.th2_0 / tc.th3_0, 4, 1),
}


def jacobi_elliptic(kind: str, u, tau: TauPoint):
    """Jacobian elliptic function at argument ``2K u`` via theta ratios.

    ``kind`` is one of sn, cn, dn, cs, ds, ns; ``u`` is the coordinate on
    the torus (so ``jacobi_elliptic('sn', u, tau)`` is sn(2K u)).
    """
    if kind not in _ELLIPTIC:
        raise SeriesError(f"unknown elliptic function {kind!r}")
    const, num, den = _ELLIPTIC[kind]
    tc = tau.constants
    denom = theta(den, u, tau)
    if np.min(np.abs(np.atleast_1d(np.asarray(denom)))) < POLE_THRESHOLD:
        raise PoleError(
            f"{kind}: theta_{den} denominator vanishes at u = {u} "
            f"(|theta_{den}(u)| < {POLE_THRESHOLD})"
        )
    return const(tc) * theta(num, u, tau) / denom


def fourier_partial(kind: str, u: float, tau: TauPoint) -> complex:
    """Trigonometric series for ``2K * kind(2K u)``, valid for real 0 < u < 1.

    This is the cot/cosec term plus the q-Fourier tail, an evaluation route
    independent of the theta-ratio one.
    """
    if kind not in ("cs", "ds", "ns"):
        raise SeriesError(f"no trigonometric series route for {kind!r}")
    if isinstance(u, complex) or not (0.0 < float(u) < 1.0):
        raise SeriesError(f"u = {u} outside the validity strip (real, 0 < u < 1)")
    u = float(u)
    q = tau.q
    qh = tau.q_half
    pi = math.pi
    if kind == "cs":
        head = pi / math.tan(pi * u)
        acc = 0.0 + 0.0j
        qn = 1.0 + 0.0j
        for n in range(1, MAX_TERMS):
            qn *= q
            term = qn * math.sin(2.0 * n * pi * u) / (1.0 + qn)
            acc += term
            if n >= MIN_TERMS and abs(term) < REL_CUTOFF * max(abs(head + acc), 1e-300):
                break
        return head - 4.0 * pi * acc
    # ds and ns share the cosec head; they differ only by the sign pattern
    # of the q^(n-1/2) tail.
    head = pi / math.sin(pi * u)
    denom_sign = 1.0 if kind == "ds" else -1.0
    tail_sign = -1.0 if kind == "ds" else 1.0
    acc = 0.0 + 0.0j
    for n in range(1, MAX_TERMS):
        qpow = qh ** (2 * n - 1)
        term = qpow * math.sin((2 * n - 1) * pi * u) / (1.0 + denom_sign * qpow)
        acc += term
        if n >= MIN_TERMS and abs(term) < REL_CUTOFF * max(abs(head), 1e-300):
            break
    return head + tail_sign * 4.0 * pi * acc
