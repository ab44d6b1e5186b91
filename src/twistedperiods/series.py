"""Jacobi theta functions and the series kernels built on top of them.

Everything in this module is a q-series: the four theta functions, their
Taylor coefficients at the origin, the modular lambda function and the
weight-two Eisenstein series.

Conventions: ``e(x) = exp(2*pi*i*x)``, the nome is ``q = e(tau)``, and the
theta series use the half nome ``exp(pi*i*tau)`` so that, e.g.,
``theta3(u) = sum_m q^(m^2/2) e(m u)``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI_I = 2j * math.pi

# Truncation policy for the q-series: every series takes its term count from
# an a-priori bound that drops only terms below REL_CUTOFF relative, sums at
# least MIN_TERMS terms, and raises SeriesError where the bound needs more
# than MAX_TERMS.  Theta series get their terms from _theta_terms, Lambert
# series theirs from q_terms.
REL_CUTOFF = 1e-17
MIN_TERMS = 8
MAX_TERMS = 400

_LOG_CUTOFF = math.log(1.0 / REL_CUTOFF)
# largest exponent whose exp (and so cosh) stays finite
_LOG_MAX = math.log(sys.float_info.max)

# Admitted range of Im(tau): below the floor the q-series converge too
# slowly; well above the ceiling residuals overflow and the theta constants
# underflow.
IM_TAU_FLOOR = 0.1
IM_TAU_CEILING = 50.0

# Entries of each per-process kernel cache (``theta_constants`` here and
# verify's identity-suite residuals, both by tau), least recently used
# evicted first: room for a sweep's 4 taus, while a run with a fresh tau per
# unit keeps few.
KERNEL_CACHE_SIZE = 32


class SeriesError(Exception):
    """Raised when a series evaluation cannot be performed as requested."""


@dataclass(frozen=True)
class TauPoint:
    """A point in the upper half-plane and its nomes.

    ``q = exp(2*pi*i*tau)`` and ``q_half = exp(pi*i*tau)``, both taken at
    ``tau_mod8``, tau with its real part reduced mod 8 (exactly).  The
    point keeps no kernel value: ``theta_constants``, ``lambda_tau`` and
    ``eisenstein_g2`` compute them from it.  Equality, hashing and repr
    depend on tau alone.
    """

    tau: complex
    q: complex = field(init=False, repr=False)
    q_half: complex = field(init=False, repr=False)
    tau_mod8: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tau = complex(self.tau)
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise SeriesError(f"non-finite tau: {tau}")
        if tau.imag < IM_TAU_FLOOR:
            raise SeriesError(
                f"Im(tau) = {tau.imag} below floor {IM_TAU_FLOOR}; "
                "q-series would converge too slowly"
            )
        if tau.imag > IM_TAU_CEILING:
            raise SeriesError(
                f"Im(tau) = {tau.imag} above ceiling {IM_TAU_CEILING}; "
                "residuals and theta constants would leave double range"
            )
        object.__setattr__(self, "tau", tau)
        # Every exponential the kernels take (exp(i pi mu^2 tau) for integer
        # and half-integer mu, q, q_half) has period 8 in tau, so each is
        # taken at tau_mod8: fmod is exact, and it is tau for |Re tau| < 8.
        tau = complex(math.fmod(tau.real, 8.0), tau.imag)
        object.__setattr__(self, "tau_mod8", tau)
        object.__setattr__(self, "q", cmath.exp(TWO_PI_I * tau))
        object.__setattr__(self, "q_half", cmath.exp(TWO_PI_I * tau / 2.0))


def _as_array(u):
    arr = np.asarray(u)
    if arr.dtype.kind != "c":
        arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise SeriesError("non-finite argument u")
    return arr


def q_terms(x: complex):
    """Indices ``n = 1..N`` and powers ``x**n`` for a Lambert-type series.

    Such terms fall off like ``n |x|^n``, so N is chosen with
    ``N |x|^N <= REL_CUTOFF`` (a term or two above the least such N), and at
    least MIN_TERMS.  A SeriesError is raised when that needs more than
    MAX_TERMS terms.
    """
    a = -math.log(max(abs(x), sys.float_info.min))
    n = math.inf
    if a * MAX_TERMS > _LOG_CUTOFF:
        # N a - ln N >= ln(1/REL_CUTOFF) with ln N bounded above by its
        # tangent at n0 = ln(1/REL_CUTOFF) / a: linear in N, an upper bound
        n0 = _LOG_CUTOFF / a
        n = max(MIN_TERMS, math.ceil(
            (_LOG_CUTOFF + math.log(n0) - 1.0) / (a - 1.0 / n0)))
    if n > MAX_TERMS:
        raise SeriesError(
            f"q-series at |x| = {abs(x)} needs more than {MAX_TERMS} terms")
    return np.arange(1, n + 1), np.full(n, complex(x)).cumprod()


def _theta_terms(j: int, tau: TauPoint, im_u: float, order: int = 0):
    """Frequencies ``2 pi mu`` and signed complex prefactors of the theta_j
    series, with as many terms as ``|Im u| <= im_u`` and the derivatives up
    to ``order`` at real u need.

    Term mu is at most ``|q_half|^(mu^2 - mu_0^2) cosh(2 pi mu im_u)`` times
    the leading term (mu_0 = 1/2 for j = 1, 2 and 0 for j = 3, 4), and its
    derivatives grow by a further ``(mu / mu_1)^order`` (mu_1 the first
    frequency); the count keeps every term whose bound exceeds REL_CUTOFF,
    and at least MIN_TERMS.  For j = 3, 4 the constant term comes first, as
    frequency 0.  The one check of the index j is here.
    """
    if j not in (1, 2, 3, 4):
        raise SeriesError(f"invalid theta index {j}")
    t = tau.tau.imag
    first, lead = (0.5, 0.5) if j in (1, 2) else (1.0, 0.0)
    # largest root of pi t (mu^2 - lead^2) - 2 pi mu im_u = ln(1/REL_CUTOFF),
    # bounding ln cosh(z) by |z|
    mu_max = (im_u + math.sqrt(
        im_u * im_u + t * (t * lead * lead + _LOG_CUTOFF / math.pi))) / t
    if order:
        # add order * ln(mu / first) to the left side, bounded above by its
        # tangent at mu_max, so the root stays a quadratic's and an upper
        # bound
        b = (im_u + order / (2.0 * math.pi * mu_max)) / t
        rhs = (lead * lead + (_LOG_CUTOFF + order * (
            math.log(mu_max / first) - 1.0)) / (math.pi * t))
        mu_max = b + math.sqrt(b * b + rhs)
    if not math.isfinite(mu_max):
        raise SeriesError(f"theta_{j} term bound overflows at Im(tau) = {t}")
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
    # j = 3, 4 start from the constant term, mu = 0
    mu = 0.5 + np.arange(n) if j in (1, 2) else np.arange(n + 1.0)
    pref = np.exp(1j * math.pi * mu * mu * tau.tau_mod8) * 2.0
    # signs (-1)^(mu - 1/2) for j = 1 and (-1)^mu for j = 4
    if j in (1, 4):
        pref[1::2] *= -1.0
    if j in (3, 4):
        pref[0] = 1.0
    return 2.0 * math.pi * mu, pref


def trig_sums(trig, x, freq, *weights) -> tuple:
    """``sum_k w[k] trig(freq[k] x)`` at every point of ``x``, one sum per
    weight vector ``w``, all from one (points x terms) table of
    ``trig(freq x)``.

    Each row is summed on its own, so a point's sums do not depend on the
    other points of ``x``.
    """
    table = np.reshape(x, (-1, 1)) * freq
    trig(table, out=table)
    return tuple((table * w).sum(axis=1) for w in weights)


def theta(j: int, u, tau: TauPoint):
    """Evaluate the theta function ``theta_j(u, tau)`` for j in 1..4.

    ``u`` may be a scalar or an ndarray; the return type matches.  Terms are
    paired symmetrically (m with -(m+1) for j=1,2 and m with -m for j=3,4),
    so theta_1 is a sine series and the others cosine series.  The series
    is summed at ``u - n``, n = round(Re u), and theta_1, theta_2 take the
    sign ``(-1)^n``; the shift is exact, so large real u loses no accuracy
    to the sum.  Real and complex u take one path: the terms come from
    ``_theta_terms`` with as many as the largest |Im u| of the array needs
    (0 for real u), at least MIN_TERMS; a SeriesError is raised when the
    bound needs more than MAX_TERMS terms or the terms'
    ``cosh(2 pi mu Im u)`` growth overflows.  Each point is summed on its
    own, so at real u its value does not depend on the other points.
    """
    arr = _as_array(u)
    # x - rint(x) is exact; adding 0.0 turns rint's -0.0 into 0.0, so that
    # u = -0.0 keeps its sign and |Re u| <= 1/2 is summed as given
    n = np.rint(arr.real.reshape(-1)) + 0.0
    x = arr.reshape(-1) - n
    # the sine form keeps full relative accuracy near theta_1's zero at 0
    trig = np.sin if j == 1 else np.cos
    im_u = float(np.abs(x.imag).max(initial=0.0))
    freq, pref = _theta_terms(j, tau, im_u)
    (total,) = trig_sums(trig, x, freq, pref)
    if j in (1, 2):
        np.negative(total, out=total, where=n % 2.0 != 0.0)
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

    @property
    def log_ratios(self) -> tuple[complex, complex, complex, complex]:
        """theta1'''/theta1' and theta_j''/theta_j for j = 2, 3, 4, at 0."""
        return (self.th1ppp_0 / self.th1p_0, self.th2pp_0 / self.th2_0,
                self.th3pp_0 / self.th3_0, self.th4pp_0 / self.th4_0)


# Taylor orders k = 0..12 and the sign and scale (-1)^(k//2) / k! of each
_ORDERS = np.arange(13)
_TAYLOR_SCALE = np.array(
    [(-1.0) ** (k // 2) / math.factorial(k) for k in range(13)])


def theta_taylor(j: int, order: int, tau: TauPoint) -> np.ndarray:
    """Taylor coefficients ``c[k]`` of u^k, k = 0..order, of ``theta_j``
    around u = 0, by termwise differentiation.

    The terms are theta's (``_theta_terms``, counted for the derivatives up
    to ``order``), and coefficient k is ``(-1)^(k//2) sum pref freq^k / k!``
    summed in term order.  Parity is enforced exactly: odd-index
    coefficients of the even functions (j = 2, 3, 4) and even-index
    coefficients of ``theta_1`` are zero.
    """
    if not (np.issubdtype(type(order), np.integer) and 0 <= order <= 12):
        raise SeriesError(f"order {order!r} is not an integer in 0..12")
    freq, pref = _theta_terms(j, tau, 0.0, order)
    # the parity-matching orders k: odd for theta_1, even for the others
    k = slice(1 if j == 1 else 0, order + 1, 2)
    work = freq[:, None] ** _ORDERS[k] * _TAYLOR_SCALE[k]
    # A running sum in term order makes theta_j(0) and so lambda(tau) the
    # same to the bit as a term-by-term loop: entry22-2f1 sums 2F1 at
    # lambda near its radius guard, where one ulp of lambda can move the
    # residual across its tolerance.
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[k] = np.add.accumulate(work * pref[:, None])[-1]
    return coeffs


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def theta_constants(tau: TauPoint) -> ThetaConstants:
    """All theta constants at u = 0, by termwise differentiation
    (``theta_taylor``), once per tau and process: a least-recently-used
    cache of KERNEL_CACHE_SIZE entries keyed by the point.  Points at
    Re tau = +0.0 and -0.0 are equal and share one entry; their sums agree
    to the bit.
    """
    s1 = theta_taylor(1, 3, tau)
    s2 = theta_taylor(2, 2, tau)
    s3 = theta_taylor(3, 2, tau)
    s4 = theta_taylor(4, 2, tau)
    return ThetaConstants(
        th2_0=complex(s2[0]),
        th3_0=complex(s3[0]),
        th4_0=complex(s4[0]),
        th1p_0=complex(s1[1]),
        th1ppp_0=6.0 * complex(s1[3]),
        th2pp_0=2.0 * complex(s2[2]),
        th3pp_0=2.0 * complex(s3[2]),
        th4pp_0=2.0 * complex(s4[2]),
    )


def lambda_tau(tau: TauPoint) -> complex:
    """Modular lambda: ``theta2(0)^4 / theta3(0)^4``."""
    tc = theta_constants(tau)
    return (tc.th2_0 / tc.th3_0) ** 4


def g2_lambert(n: np.ndarray, xn: np.ndarray) -> complex:
    """Weight-two Eisenstein series ``pi^2/3 - 8 pi^2 sum n x^n/(1-x^n)``
    at the nome ``x`` of its argument, from the ``q_terms(x)`` table
    ``(n, xn)``."""
    lambert = complex((n * xn / (1.0 - xn)).sum())
    return math.pi**2 / 3.0 - 8.0 * math.pi**2 * lambert


def eisenstein_g2(tau: TauPoint) -> complex:
    """Weight-two Eisenstein series ``pi^2/3 - 8 pi^2 sum n q^n/(1-q^n)``
    (``g2_lambert`` at ``tau.q``), uncached."""
    return g2_lambert(*q_terms(tau.q))
