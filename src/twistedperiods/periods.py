"""Period matrices: closed forms, eigenspace blocks, and quadrature routes.

``period_matrix`` gives the periods of the four cocycles (rows) over the
four reference cycles (columns) as one 4x4 matrix, and ``block_periods``
slices the eigenspace blocks out of it.  Every row reduces, by the shift
table below, to the two independent closed forms for the first and third
cycle; the second and fourth columns are fixed linear combinations of
those.  P+ is ``period_matrix(p, tau)`` and P- is
``period_matrix(p.negated(), tau)``: integrating the inverse weight
negates the parameters.

Prefactors, at the (a, b, g) given: the first cycle's period carries
P1 = theta2^(2g) theta3^(-2a-2b) theta4^(2a+2b-2g) in every row, the third's
P3 / lambda^(d_gamma), P3 = theta2^(4-2g) theta3^(2a+2b-4) theta4^(2g-2a-2b).

A direct tanh-sinh evaluation of the defining integral over (0, 1/2) is
kept for purely imaginary tau, where the integrand is a product of
positive reals and the principal powers are unambiguous.  The analogous
Euler integrals on the projective line (paired plus/minus weights over
(0,1) and (1/z, infinity)) are provided both by ``tanh_sinh``, where it
admits the endpoint exponents, and by their Gamma-factor closed forms.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .hypergeom import beta_real, gauss_2f1
from .matrices import HgParams, require_admissible
from .quadrature import tanh_sinh
from .series import (TWO_PI_I, TauPoint, _theta_terms, lambda_tau,
                     theta_constants, trig_sums)

# Parameter shifts reducing each cocycle's periods to the third cocycle's
# closed form: index -> (d_alpha, d_beta, d_gamma).
SHIFT_RULES: dict[int, tuple[float, float, float]] = {
    1: (0.5, 0.5, 1.0),
    2: (-0.5, 0.5, 0.0),
    3: (0.0, 0.0, 0.0),
    4: (0.0, 1.0, 1.0),
}
# the rules as an array: (d_alpha, d_beta, d_gamma) x row; sigma_3 is at
# _SIGMA3 minus the (b, a, g) of sigma_1
_SHIFTS = np.array(list(SHIFT_RULES.values())).T
_SIGMA3 = np.array([1.0, 1.0, 2.0])[:, None, None]


class PeriodError(Exception):
    """Raised on precondition violations in period evaluation."""


def _cpow(z: complex, s: float) -> complex:
    """Principal power z**s for complex z, real s."""
    return cmath.exp(s * cmath.log(z))


def _scaled(evaluate, name: str, *args):
    """``evaluate()``, a value times a power, or PeriodError naming the
    quantity ``name.format(*args)`` where it overflows: there a float
    ``**`` or ``cmath.exp`` raises OverflowError, and a product gives inf
    or nan.  ``evaluate`` is run as written, so a finite value keeps its
    bits; the name is formatted only for the error, off the hot path."""
    try:
        value = evaluate()
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise PeriodError(name.format(*args) + " overflows double precision")
    return value


def row_params(p: HgParams) -> list[HgParams]:
    """The parameters of rows 1..4 of ``period_matrix(p, tau)``: p under
    each row's ``SHIFT_RULES``."""
    return [p.shifted(*rule) for rule in SHIFT_RULES.values()]


def period_matrix(p: HgParams, tau: TauPoint) -> np.ndarray:
    """4x4 period matrix of the weight with exponents ``p``: P+ at p, and
    P- at ``p.negated()``.  The batch of one of ``period_matrices``.

    Raises PeriodError inside the discs |tau -+ 1/2| < 1/2, past lambda's
    cut: there sigma_1 is wrong (39% off at -0.4+0.2i) yet full-tpr passes.
    Also raises for |Re tau| > 1, where sigma_1 is the integral times a
    phase exp(+-i pi gamma) (at 1.3+1.2i and -1.3+1.2i, for instance).
    """
    return period_matrices([(p, tau)])[0]


def _prefactors(abg: np.ndarray, taus) -> np.ndarray:
    """P1 and P3 of each draw (a column of abg) at its tau, with an axis
    for the rows: exponentials of sums of the theta constants' logarithms,
    P1 as in the module docstring and P3 = (theta2/theta3)^4 / P1.  Raises
    PeriodError for the first draw where either overflows."""
    l2, l3, l4 = np.log(np.array([
        (tc.th2_0, tc.th3_0, tc.th4_0) for tc in map(theta_constants, taus)
    ])).T
    ab, g = 2.0 * (abg[0] + abg[1]), 2.0 * abg[2]
    log_p1 = g * l2 - ab * l3 + (ab - g) * l4
    with np.errstate(all="ignore"):
        p13 = np.exp([log_p1, 4 * (l2 - l3) - log_p1])
    for k in np.flatnonzero(~np.isfinite(p13).all(axis=0))[:1].tolist():
        raise PeriodError(
            f"a theta-power prefactor of {HgParams(*abg[:, k].tolist())} "
            f"at tau = {taus[k].tau} overflows double precision")
    return p13[..., None]


def period_matrices(draws) -> np.ndarray:
    """``period_matrix(p, tau)`` of each (p, tau) of ``draws``, stacked on
    a leading batch axis: an array (draws, 4, 4).  The rows' Beta factors,
    prefactors, phases and the combinations of columns 2 and 4 are numpy
    closed forms evaluated once over the batch; a single draw is a batch of
    one (shape-(1,) arrays, never numpy scalars), so a draw's matrix has
    the same bits in any batch.

    Draw by draw, in order, the tau checks and ``require_admissible``
    run first.  The later rules are tested rule by rule, each once over
    the whole batch: the prefactors' overflow, then the Gamma rules of
    every Beta factor (per draw and row, sigma_1's before sigma_3's), then
    the Beta factors' overflow (``beta_real``); then
    one ``gauss_2f1`` table sums the eight series of every draw, at lambda:
    sigma_1's at (a, b, g) and sigma_3's at (1 - b, 1 - a, 2 - g) of each
    row.  Within a rule the first draw that breaks it raises its error.  A
    batch of one so raises the first error of its draw (a Gamma error of
    row 1 before a 2F1 error of any row), while in a larger batch a Gamma
    error of draw 2 comes before a 2F1 error of draw 1.
    """
    if not draws:
        return np.zeros((0, 4, 4), complex)
    for p, tau in draws:
        t = tau.tau
        if abs(t.real) > 1.0:
            raise PeriodError(
                f"tau = {t} has |Re tau| > 1, where the closed-form "
                "periods differ from the integral by a phase")
        if abs(t - 0.5) < 0.5 or abs(t + 0.5) < 0.5:
            raise PeriodError(
                f"tau = {t} lies inside a disc |tau -+ 1/2| < 1/2, "
                "where the closed-form periods are on the wrong branch")
        require_admissible(p)
    taus = [tau for _, tau in draws]
    abg = np.array([(p.alpha, p.beta, p.gamma) for p, _ in draws], float).T
    p1, p3 = _prefactors(abg, taus)
    lam = np.array([lambda_tau(tau) for tau in taus])[:, None]
    # (a, b, g) of each draw and row, then the series' parameters
    # (a, b, g) and (1 - b, 1 - a, 2 - g) on a last axis
    rows = abg[..., None] + _SHIFTS[:, None]
    series = np.stack([rows, _SIGMA3 - rows[[1, 0, 2]]], axis=-1)
    beta = beta_real(series[0], series[2])
    f21 = gauss_2f1(*series, lam[..., None])
    a, b, g = rows
    h, ga = a + b - g, g - a
    # the unit phases e(x) = exp(2 pi i x) of the rows' closed forms
    e_half, e_ga, e_a, e_abg, e_gb, e_ag, e_g = np.exp(TWO_PI_I * np.array([
        0.5 * h, ga, a, 2.0 * h, g - b, -2.0 * ga, g]))
    s1 = beta[..., 0] / 2.0 * p1 * f21[..., 0]
    s3 = -e_half * beta[..., 1] / 2.0 * p3 / lam**_SHIFTS[2] * f21[..., 1]
    s4 = (1.0 - e_ga) * s1
    s2 = -((1.0 - e_a) * s1 + e_abg * (1.0 - e_gb) * s3) / (
        e_ag * (1.0 - e_g))
    return np.stack([s1, s2, s3, s4], axis=-1)


def block_periods(m: np.ndarray) -> dict[int, np.ndarray]:
    """The 2x2 period blocks in the eigenspace bases, from the 4x4
    ``period_matrix`` ``m``.

    Integrals over the eigenspace cycle combinations reduce to the first
    and third cycle, so the blocks are sub-matrices of the full closed
    forms: rows (1,2) for the odd eigenspace, rows (3,4) for the even one,
    columns (1,3) in both.  A stack of matrices gives stacks of blocks.
    """
    return {-1: m[..., :2, ::2], 1: m[..., 2:, ::2]}


def wirtinger_quadrature(p: HgParams, tau: TauPoint) -> float:
    """Direct tanh-sinh evaluation of the theta-power integral over (0, 1/2).

    Integrand: theta1(u)^(2a-1) theta2(u)^(2g-2a-1) theta3(u)^(-2b+1)
    theta4(u)^(2b-2g+1).  Requires purely imaginary tau (|Re tau| up to
    1e-12 is taken as 0), where every factor is a positive real on
    (0, 1/2) and principal real powers apply.  The endpoint exponents go
    to ``tanh_sinh``, which requires both > -1 (a > 0 and g - a > 0),
    where the integral converges, and subtracts an end power near -1.  The
    closed form ``period_matrix(p, tau)[2, 0]`` (cocycle 3 over cycle 1)
    equals pi theta2(0)^2 times this value, the Jacobian of the coordinate
    change from the rational model.

    theta1 vanishes linearly at the endpoint u = 0 and theta2 at u = 1/2;
    both are summed as theta1 at the exact endpoint distance (theta2(u) =
    theta1(1/2 - u)), keeping full relative accuracy at either end.  Only
    the real prefactors are summed, so each call builds one sine table
    (theta1, theta2) and one cosine table (theta3, theta4), and one set of
    prefactors for each: theta4's are theta3's with every odd term negated,
    which is exact.  theta1's are divided exactly by s, the power of two
    nearest 2 q_half^(1/4), and the integral multiplied by s^(2g-2), so its
    powers do not overflow.  The integral comes first, so ``tanh_sinh``'s
    errors (its exponent rule, a non-finite integrand) come before a
    rescale that overflows, which raises PeriodError.
    """
    require_admissible(p)
    if abs(tau.tau.real) > 1e-12:
        raise PeriodError("quadrature route requires purely imaginary tau")
    a, b, g = p.alpha, p.beta, p.gamma
    sin_freq, th1_pref = _theta_terms(1, tau, 0.0)
    cos_freq, th3_pref = _theta_terms(3, tau, 0.0)
    th4_pref = th3_pref.copy()
    th4_pref[1::2] *= -1.0
    s = 2.0 ** round(math.log2(th1_pref[0].real))
    th1_pref = th1_pref.real / s

    def integrand(u, dl, dr):
        (t1,) = trig_sums(np.sin, dl, sin_freq, th1_pref)
        # the tanh-sinh nodes are mirror-symmetric, so dr is dl reversed
        # and theta1(dr) is t1 reversed; a contiguous copy keeps np.power's
        # rounding that of a fresh array
        t2 = t1[::-1].copy()
        t3, t4 = trig_sums(np.cos, u, cos_freq, th3_pref.real,
                            th4_pref.real)
        return (
            t1 ** (2 * a - 1)
            * t2 ** (2 * g - 2 * a - 1)
            * t3 ** (-2 * b + 1)
            * t4 ** (2 * b - 2 * g + 1)
        )

    value = tanh_sinh(integrand, 0.0, 0.5, (2 * a - 1, 2 * g - 2 * a - 1))
    return _scaled(lambda: float(np.real(value)) * s ** (2 * g - 2),
                   "the rescale {}^{} of the Wirtinger integral", s, 2 * g - 2)


# Euler-integral pairings on the projective line.  Each side is z^z_power
# times Euler's integral of t^(A-1) (1-t)^(C-A-1) (1-zt)^(-B) over (0,1),
# which is B(A, C - A) 2F1(A, B; C; z) (DLMF 15.6.1); the (1/z, infinity)
# sides are mapped to (0,1) by t -> 1/(z s).  side -> (A, B, C, z_power).
_EULER_SIDES = {
    "1+": lambda a, b, c: (a, b, c, 0.0),
    "1-": lambda a, b, c: (-a - 1.0, 1.0 - b, -c, 0.0),
    "2+": lambda a, b, c: (b - c + 1.0, a - c + 1.0, 2.0 - c, 1.0 - c),
    "2-": lambda a, b, c: (c - b + 2.0, c - a, c + 2.0, c + 1.0),
}


def _euler_side(p_side: str, a: float, b: float, c: float):
    if p_side not in _EULER_SIDES:
        raise PeriodError(f"invalid pairing side {p_side!r}")
    return _EULER_SIDES[p_side](a, b, c)


def euler_pairing(p_side: str, a: float, b: float, c: float,
                  z: complex) -> complex:
    """Euler-integral pairing by tanh-sinh quadrature.

    ``p_side`` is one of '1+', '2+', '1-', '2-'.  Requires real z in (0,1);
    the endpoint exponents go to ``tanh_sinh``, which requires both > -1
    (this rules out, e.g., the '1-' side whenever the '1+' side converges;
    use ``euler_pairing_closed`` for the regularized value there).  A
    value past the double range raises PeriodError.
    """
    z = complex(z)
    if abs(z.imag) > 1e-14 or not (0.0 < z.real < 1.0):
        raise PeriodError("euler quadrature requires real z in (0, 1)")
    zr = z.real
    A, B, C, zpow = _euler_side(p_side, a, b, c)
    e0, e1, ez = A - 1.0, C - A - 1.0, -B

    def integrand(t, dl, dr):
        return dl**e0 * dr**e1 * (1.0 - zr + zr * dr) ** ez

    val = tanh_sinh(integrand, 0.0, 1.0, (e0, e1))
    return _scaled(lambda: complex(zr**zpow * val),
                   "the {} Euler pairing at z = {}", p_side, zr)


def euler_pairing_closed(p_side: str, a: float, b: float, c: float, z: complex) -> complex:
    """Gamma-factor closed form of the Euler pairing (valid by continuation
    even where the literal integral diverges); sides '2+-' need z != 0.
    A value past the double range raises PeriodError."""
    A, B, C, zpow = _euler_side(p_side, a, b, c)
    if p_side[0] == "2" and z == 0:
        raise PeriodError(f"side {p_side} is undefined at z = 0")
    value = beta_real(A, C) * gauss_2f1(A, B, C, z)
    return _scaled(lambda: _cpow(complex(z), zpow) * value if zpow else value,
                   "the {} Euler pairing at z = {}", p_side, z)
