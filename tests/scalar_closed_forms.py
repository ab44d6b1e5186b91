"""Closed forms written out one draw at a time in scalar Python (``cmath``),
entry by entry: the period rows, the reference the stacked numpy rows of
``periods.period_matrices`` are checked against, and the homology matrix H
as one literal, the reference ``matrices.homology_H``'s chain rule is
checked against bit for bit."""

import cmath

import numpy as np

from twistedperiods.hypergeom import gamma_real, gauss_2f1
from twistedperiods.matrices import require_admissible
from twistedperiods.periods import SHIFT_RULES
from twistedperiods.series import TWO_PI_I, lambda_tau, theta_constants


def e(x: float) -> complex:
    return cmath.exp(TWO_PI_I * x)


def _cpow(z: complex, s: float) -> complex:
    return cmath.exp(s * cmath.log(z))


def period_matrix(p, tau) -> np.ndarray:
    lam, tc = lambda_tau(tau), theta_constants(tau)
    a, b, g = p.alpha, p.beta, p.gamma
    p1 = (_cpow(tc.th2_0, 2 * g) * _cpow(tc.th3_0, -2 * a - 2 * b)
          * _cpow(tc.th4_0, 2 * a + 2 * b - 2 * g))
    p3 = (_cpow(tc.th2_0, 4 - 2 * g) * _cpow(tc.th3_0, 2 * a + 2 * b - 4)
          * _cpow(tc.th4_0, 2 * g - 2 * a - 2 * b))
    rows = []
    for da, db, dg in SHIFT_RULES.values():
        a, b, g = p.alpha + da, p.beta + db, p.gamma + dg
        s1 = (gamma_real(a) * gamma_real(g - a) / gamma_real(g) / 2.0 * p1
              * gauss_2f1(a, b, g, lam))
        s3 = (-e(0.5 * (a + b - g)) * gamma_real(1 - b)
              * gamma_real(1 - g + b) / gamma_real(2 - g) / 2.0 * p3
              / lam**dg * gauss_2f1(1 - b, 1 - a, 2 - g, lam))
        s4 = (1.0 - e(g - a)) * s1
        s2 = -((1.0 - e(a)) * s1 + e(2 * a + 2 * b - 2 * g)
               * (1.0 - e(g - b)) * s3) / (e(2 * a - 2 * g) * (1.0 - e(g)))
        rows.append([s1, s2, s3, s4])
    return np.array(rows, dtype=complex)


def homology_H(p) -> np.ndarray:
    require_admissible(p)
    c0, c1, c2, c3, c4 = p.c0, p.c1, p.c2, p.c3, p.c4
    return np.array([
        [
            (1 - e(c1 + c2)) / ((1 - e(c1)) * (1 - e(c2))),
            -1 / (1 - e(c2)),
            0.0,
            e(c1) * (1 - e(-c0)) / (1 - e(c1)),
        ],
        [
            -e(c2) / (1 - e(c2)),
            (1 - e(c2 + c3)) / ((1 - e(c2)) * (1 - e(c3))),
            -1 / (1 - e(c3)),
            0.0,
        ],
        [
            0.0,
            -e(c3) / (1 - e(c3)),
            (1 - e(c3 + c4)) / ((1 - e(c3)) * (1 - e(c4))),
            0.0,
        ],
        [
            (1 - e(c0)) / (1 - e(c1)),
            0.0,
            0.0,
            (1 - e(c0)) * (e(c0) - e(c1)) / (e(c0) * (1 - e(c1))),
        ],
    ], dtype=complex)
