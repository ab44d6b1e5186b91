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
from .matrices import HgParams, require_admissible, unit_phase
from .quadrature import tanh_sinh
from .series import (TauPoint, _theta_terms, lambda_tau, theta_constants,
                     trig_sums)

# Parameter shifts reducing each cocycle's periods to the third cocycle's
# closed form: index -> (d_alpha, d_beta, d_gamma).
SHIFT_RULES: dict[int, tuple[float, float, float]] = {
    1: (0.5, 0.5, 1.0),
    2: (-0.5, 0.5, 0.0),
    3: (0.0, 0.0, 0.0),
    4: (0.0, 1.0, 1.0),
}


class PeriodError(Exception):
    """Raised on precondition violations in period evaluation."""


def _cpow(z: complex, s: float) -> complex:
    """Principal power z**s for complex z, real s."""
    return cmath.exp(s * cmath.log(z))


def row_params(p: HgParams) -> list[HgParams]:
    """The parameters of rows 1..4 of ``period_matrix(p, tau)``: p under
    each row's ``SHIFT_RULES``."""
    return [p.shifted(*rule) for rule in SHIFT_RULES.values()]


def _period_row(a: float, b: float, g: float, s1: complex, s3: complex
                ) -> np.ndarray:
    """The four cycle periods of the cocycle at shifted parameters
    (a, b, g), from those of the first and third cycle, s1 and s3."""
    e = unit_phase
    s4 = (1.0 - e(g - a)) * s1
    s2 = -((1.0 - e(a)) * s1 + e(2 * a + 2 * b - 2 * g) * (1.0 - e(g - b)) * s3) / (
        e(2 * a - 2 * g) * (1.0 - e(g))
    )
    return np.array([s1, s2, s3, s4], dtype=complex)


def period_matrix(p: HgParams, tau: TauPoint) -> np.ndarray:
    """4x4 period matrix of the weight with exponents ``p``: P+ at p, and
    P- at ``p.negated()``.  The batch of one of ``period_matrices``.

    Raises PeriodError inside the discs |tau -+ 1/2| < 1/2, past lambda's
    cut: there sigma_1 is wrong (39% off at -0.4+0.2i) yet full-tpr passes.
    Also raises for |Re tau| > 1, where sigma_1 is the integral times a
    phase exp(+-i pi gamma) (at 1.3+1.2i and -1.3+1.2i, for instance).
    """
    return period_matrices([(p, tau)])[0]


def period_matrices(draws) -> list[np.ndarray]:
    """``period_matrix(p, tau)`` for each (p, tau) of ``draws``; raises the
    first typed error of a draw.

    Per draw, in order: the tau checks, ``require_admissible``, and each
    row's Beta factors and prefactors, so a Gamma error of row 1 comes
    before a 2F1 error of any row.  Then one array ``gauss_2f1`` call sums
    the eight series of every draw, at all the taus, at lambda: sigma_1's
    at (a, b, g) and sigma_3's at (1 - b, 1 - a, 2 - g) of each row.
    """
    rows = []  # (a, b, g, sigma_1 and sigma_3 factors), 4 per draw
    series = []
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
        lam = lambda_tau(tau)
        tc = theta_constants(tau)
        a, b, g = p.alpha, p.beta, p.gamma
        p1 = (_cpow(tc.th2_0, 2 * g) * _cpow(tc.th3_0, -2 * a - 2 * b)
              * _cpow(tc.th4_0, 2 * a + 2 * b - 2 * g))
        p3 = (_cpow(tc.th2_0, 4 - 2 * g) * _cpow(tc.th3_0, 2 * a + 2 * b - 4)
              * _cpow(tc.th4_0, 2 * g - 2 * a - 2 * b))
        for r, (_, _, d_gamma) in zip(row_params(p), SHIFT_RULES.values()):
            a, b, g = r.alpha, r.beta, r.gamma
            rows.append((a, b, g, beta_real(a, g) / 2.0 * p1,
                         -unit_phase(0.5 * (a + b - g))
                         * beta_real(1 - b, 2 - g) / 2.0 * p3 / lam**d_gamma))
            series += [(a, b, g, lam), (1 - b, 1 - a, 2 - g, lam)]
    f21 = iter(gauss_2f1(*map(np.array, zip(*series))).tolist()
               if series else ())
    out = [_period_row(a, b, g, f1 * next(f21), f3 * next(f21))
           for a, b, g, f1, f3 in rows]
    return [np.array(out[k:k + 4]) for k in range(0, len(out), 4)]


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
    the real prefactors are summed, so each level builds one sine table
    (theta1, theta2) and one cosine table (theta3, theta4).  theta1's are
    divided exactly by s, the power of two nearest 2 q_half^(1/4), and the
    integral multiplied by s^(2g-2), so its powers do not overflow.
    """
    require_admissible(p)
    if abs(tau.tau.real) > 1e-12:
        raise PeriodError("quadrature route requires purely imaginary tau")
    a, b, g = p.alpha, p.beta, p.gamma
    sin_freq, th1_pref = _theta_terms(1, tau, 0.0)
    cos_freq, th3_pref = _theta_terms(3, tau, 0.0)
    th4_pref = _theta_terms(4, tau, 0.0)[1]
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

    return s ** (2 * g - 2) * float(np.real(tanh_sinh(
        integrand, 0.0, 0.5, (2 * a - 1, 2 * g - 2 * a - 1))))


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
    use ``euler_pairing_closed`` for the regularized value there).
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
    return complex(zr**zpow * val)


def euler_pairing_closed(p_side: str, a: float, b: float, c: float, z: complex) -> complex:
    """Gamma-factor closed form of the Euler pairing (valid by continuation
    even where the literal integral diverges); sides '2+-' need z != 0."""
    A, B, C, zpow = _euler_side(p_side, a, b, c)
    if p_side[0] == "2" and z == 0:
        raise PeriodError(f"side {p_side} is undefined at z = 0")
    value = beta_real(A, C) * gauss_2f1(A, B, C, z)
    return _cpow(complex(z), zpow) * value if zpow else value
