"""Exponent bookkeeping and the closed-form intersection matrices.

The parameter triple (alpha, beta, gamma) induces the exponent vector
(c0, ..., c4) = (gamma, 2 alpha, 2 gamma - 2 alpha, -2 beta,
2 beta - 2 gamma).  Under the admissibility conditions below, the 4x4
homology intersection matrix H, the 4x4 cohomology intersection matrix C,
the eigenspace basis-change coefficients, and the 2x2 block matrices
H'(+-1), C(+-1) are all finite closed forms in the unit phases e(c_j) and
(for C) the theta constants.  Matrices are built entry by entry from those
closed forms; consistency between the routes is checked by the verifier,
not re-derived here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypergeom import INTEGRALITY_GUARD
from .series import ThetaConstants

TWO_PI_I = 2j * math.pi

COND_LIMIT = 1e12


class AdmissibilityError(Exception):
    """Raised when a matrix is requested for inadmissible parameters."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("inadmissible parameters: " + "; ".join(self.violations))


class ConditioningError(Exception):
    """Raised when a matrix is too ill-conditioned to solve with reliably."""


def unit_phase(x: float) -> complex:
    """e(x) = exp(2 pi i x)."""
    return cmath.exp(TWO_PI_I * x)


@dataclass(frozen=True)
class HgParams:
    """Real hypergeometric parameter triple with derived exponents."""

    alpha: float
    beta: float
    gamma: float

    @property
    def c0(self) -> float:
        return self.gamma

    @property
    def c1(self) -> float:
        return 2.0 * self.alpha

    @property
    def c2(self) -> float:
        return 2.0 * self.gamma - 2.0 * self.alpha

    @property
    def c3(self) -> float:
        return -2.0 * self.beta

    @property
    def c4(self) -> float:
        return 2.0 * self.beta - 2.0 * self.gamma

    def negated(self) -> "HgParams":
        return HgParams(-self.alpha, -self.beta, -self.gamma)

    def shifted(self, d_alpha: float, d_beta: float, d_gamma: float) -> "HgParams":
        return HgParams(self.alpha + d_alpha, self.beta + d_beta, self.gamma + d_gamma)


def admissible(p: HgParams,
               guard: float = INTEGRALITY_GUARD) -> tuple[bool, list[str]]:
    """Check every non-integrality condition the closed forms rely on.

    Returns (ok, violations).  The conditions keep all 1 - e(.) and
    1 +- e(.) denominators, the C-matrix rational denominators, and the
    Gamma factors of the period formulas away from their zeros/poles.  A
    value counts as integral within ``guard`` of an integer; a non-finite
    value is a violation of its own.
    """
    a, b, g = p.alpha, p.beta, p.gamma
    c1, c2, c3, c4 = 2.0 * a, 2.0 * g - 2.0 * a, -2.0 * b, 2.0 * b - 2.0 * g
    half = "in (1/2)Z"
    violations = []
    # (name, condition, value, scaled value that must avoid the integers)
    for name, condition, value, scaled in (
            ("c0", "integral", g, g), ("c1", "integral", c1, c1),
            ("c2", "integral", c2, c2), ("c3", "integral", c3, c3),
            ("c4", "integral", c4, c4), ("alpha", half, a, 2.0 * a),
            ("beta", half, b, 2.0 * b),
            ("gamma-alpha", half, g - a, 2.0 * (g - a)),
            ("gamma-beta", half, g - b, 2.0 * (g - b))):
        if not math.isfinite(scaled):
            violations.append(f"{name} not finite ({name} = {value})")
        elif abs(math.remainder(scaled, 1.0)) <= guard:  # exact x - round(x)
            violations.append(f"{name} {condition} ({name} = {value})")
    return (not violations, violations)


def require_admissible(p: HgParams) -> None:
    ok, violations = admissible(p)
    if not ok:
        raise AdmissibilityError(violations)


def homology_H(p: HgParams) -> np.ndarray:
    """Closed-form 4x4 homology intersection matrix."""
    require_admissible(p)
    e = unit_phase
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


def theta_bracket(p: HgParams, tc: ThetaConstants) -> complex:
    """The (2,2) entry's -c1 r1 - c2 r2 - c3 r3 + (2 c1 - c4) r4, r = tc.log_ratios."""
    r1, r2, r3, r4 = tc.log_ratios
    return -p.c1 * r1 - p.c2 * r2 - p.c3 * r3 + (2.0 * p.c1 - p.c4) * r4


def _c22(p: HgParams, tc: ThetaConstants) -> complex:
    """The theta-constant entry of the cohomology intersection matrix
    (before the overall 2 pi i factor)."""
    return theta_bracket(p, tc) / (
        math.pi**2 * tc.th3_0**4 * (p.c1 - 1.0) * (p.c1 + 1.0))


def cohomology_C(p: HgParams, tc: ThetaConstants) -> np.ndarray:
    """Closed-form 4x4 cohomology intersection matrix (block diagonal)."""
    require_admissible(p)
    c1, c2, c3 = p.c1, p.c2, p.c3
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0 / (c1 + 1.0)
    m[1, 0] = 1.0 / (c1 - 1.0)
    m[1, 1] = _c22(p, tc)
    m[2, 2] = (c1 + c2) / (c1 * c2)
    m[2, 3] = 1.0 / c1
    m[3, 2] = 1.0 / c1
    m[3, 3] = (c1 + c3) / (c1 * c3)
    return TWO_PI_I * m


class SignPair(NamedTuple):
    """A pair of arrays indexed by the involution eigenvalue: 2x2 blocks,
    or the 2x4 rows of ``basis_change``."""

    minus: np.ndarray
    plus: np.ndarray

    def for_sign(self, sign: int) -> np.ndarray:
        return self.plus if sign > 0 else self.minus


def basis_change(p: HgParams) -> SignPair:
    """Coefficients of the involution-eigenspace cycle combinations in the
    original four-cycle basis: a 2x4 array per eigenvalue, one row per
    combination."""
    require_admissible(p)
    e = unit_phase
    a, b, g = p.alpha, p.beta, p.gamma

    def rows(eps: float) -> np.ndarray:
        out = np.zeros((2, 4), dtype=complex)
        pref1 = -eps / (2.0 * e(g - a))
        out[0, 0] = pref1 * (-(1.0 + eps * e(g - a)))
        out[0, 3] = pref1
        pref2 = eps / (2.0 * e(b + g))
        out[1, 0] = pref2 * (1.0 - e(2 * a - g)) / e(2 * a - 2 * g)
        out[1, 1] = pref2 * (1.0 - e(g))
        out[1, 2] = pref2 * e(2 * b) * (1.0 + eps * e(g - b))
        out[1, 3] = pref2 * e(g)
        return out

    return SignPair(minus=rows(-1.0), plus=rows(+1.0))


def block_H_prime(p: HgParams) -> SignPair:
    """Diagonal 2x2 homology intersection blocks in the eigenspace bases."""
    require_admissible(p)
    e = unit_phase
    a, b, g = p.alpha, p.beta, p.gamma

    def block(eps: float) -> np.ndarray:
        front = (1.0 - e(g)) / 2.0
        d1 = front / ((1.0 - eps * e(g - a)) * (1.0 - eps * e(a)))
        d2 = -front / ((1.0 - eps * e(g - b)) * (1.0 - eps * e(b)))
        return np.diag([d1, d2]).astype(complex)

    return SignPair(minus=block(-1.0), plus=block(+1.0))


def block_C(c: np.ndarray) -> SignPair:
    """The 2x2 cohomology intersection blocks: the diagonal blocks of the
    4x4 ``cohomology_C`` matrix ``c``."""
    return SignPair(minus=c[:2, :2], plus=c[2:, 2:])


def _check_condition(cond: float) -> None:
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"condition estimate {cond:.3e} exceeds limit {COND_LIMIT:.0e}"
        )


def guarded_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of ``a x = b`` by LU with partial pivoting.

    Rejects matrices whose condition number exceeds ``COND_LIMIT``.
    """
    _check_condition(np.linalg.cond(a))
    return np.linalg.solve(a, b)


def diagonal_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of ``a x = b`` for a diagonal ``a``, guarded like
    ``guarded_solve`` by max|d| / min|d|, its exact 2-norm condition number."""
    d = np.diagonal(a)
    size = np.abs(d)
    smallest = size.min()
    _check_condition(size.max() / smallest if smallest > 0.0 else math.inf)
    return b / d[:, None]
