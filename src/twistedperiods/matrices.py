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

import numpy as np

from .hypergeom import INTEGRALITY_GUARD
from .series import TWO_PI_I, ThetaConstants

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
    """Check that none of the five exponents c0..c4 is integral.

    Returns (ok, violations).  These conditions keep all 1 - e(.) and
    1 +- e(.) denominators, the C-matrix rational denominators, and the
    Gamma factors of the period formulas away from their zeros/poles.  An
    exponent counts as integral within ``guard`` of an integer; a
    non-finite one is a violation of its own.
    """
    violations = []
    for name, c in (("c0", p.c0), ("c1", p.c1), ("c2", p.c2), ("c3", p.c3),
                    ("c4", p.c4)):
        if not math.isfinite(c):
            violations.append(f"{name} not finite ({name} = {c})")
        elif abs(math.remainder(c, 1.0)) <= guard:  # exact x - round(x)
            violations.append(f"{name} integral ({name} = {c})")
    return (not violations, violations)


def require_admissible(p: HgParams) -> None:
    ok, violations = admissible(p)
    if not ok:
        raise AdmissibilityError(violations)


def homology_H(p: HgParams) -> np.ndarray:
    """Closed-form 4x4 homology intersection matrix.

    Chain cycles 1-3 pair the exponents (u, v) = (c1, c2), (c2, c3),
    (c3, c4).  Each meets itself in (1 - e(u + v)) / ((1 - e(u)) (1 - e(v)))
    of its pair; cycles i and i+1 share v and meet in -1 / (1 - e(v)) at
    (i, i+1) and -e(v) / (1 - e(v)) at (i+1, i).  Cycle 4 meets only cycle
    1, and every other entry is 0.
    """
    require_admissible(p)
    e = unit_phase
    c0, c1, c2, c3, c4 = p.c0, p.c1, p.c2, p.c3, p.c4
    h = np.zeros((4, 4), dtype=complex)
    for i, (u, v) in enumerate(((c1, c2), (c2, c3), (c3, c4))):
        h[i, i] = (1 - e(u + v)) / ((1 - e(u)) * (1 - e(v)))
    for i, v in enumerate((c2, c3)):
        h[i, i + 1] = -1 / (1 - e(v))
        h[i + 1, i] = -e(v) / (1 - e(v))
    h[0, 3] = e(c1) * (1 - e(-c0)) / (1 - e(c1))
    h[3, 0] = (1 - e(c0)) / (1 - e(c1))
    h[3, 3] = (1 - e(c0)) * (e(c0) - e(c1)) / (e(c0) * (1 - e(c1)))
    return h


def theta_bracket(p: HgParams, tc: ThetaConstants) -> complex:
    """The (2,2) entry's -c1 r1 - c2 r2 - c3 r3 + (2 c1 - c4) r4, r = tc.log_ratios."""
    r1, r2, r3, r4 = tc.log_ratios
    return -p.c1 * r1 - p.c2 * r2 - p.c3 * r3 + (2.0 * p.c1 - p.c4) * r4


def cohomology_C(p: HgParams, tc: ThetaConstants) -> np.ndarray:
    """Closed-form 4x4 cohomology intersection matrix (block diagonal)."""
    require_admissible(p)
    c1, c2, c3 = p.c1, p.c2, p.c3
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.0 / (c1 + 1.0)
    m[1, 0] = 1.0 / (c1 - 1.0)
    m[1, 1] = theta_bracket(p, tc) / (  # the one theta-constant entry
        math.pi**2 * tc.th3_0**4 * (c1 - 1.0) * (c1 + 1.0))
    m[2, 2] = (c1 + c2) / (c1 * c2)
    m[2, 3] = 1.0 / c1
    m[3, 2] = 1.0 / c1
    m[3, 3] = (c1 + c3) / (c1 * c3)
    return TWO_PI_I * m


def basis_change(p: HgParams) -> dict[int, np.ndarray]:
    """Coefficients of the involution-eigenspace cycle combinations in the
    original four-cycle basis: a 2x4 array per eigenvalue -1 and 1, one row
    per combination."""
    require_admissible(p)
    e = unit_phase
    a, b, g = p.alpha, p.beta, p.gamma

    def rows(eps: int) -> np.ndarray:
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

    return {eps: rows(eps) for eps in (-1, 1)}


def block_H_prime(p: HgParams) -> dict[int, np.ndarray]:
    """Diagonal 2x2 homology intersection blocks {e: H'(e)}, e = -1, 1."""
    require_admissible(p)
    e = unit_phase
    a, b, g = p.alpha, p.beta, p.gamma

    def block(eps: int) -> np.ndarray:
        front = (1.0 - e(g)) / 2.0
        d1 = front / ((1.0 - eps * e(g - a)) * (1.0 - eps * e(a)))
        d2 = -front / ((1.0 - eps * e(g - b)) * (1.0 - eps * e(b)))
        return np.diag([d1, d2]).astype(complex)

    return {eps: block(eps) for eps in (-1, 1)}


def block_C(c: np.ndarray) -> dict[int, np.ndarray]:
    """The 2x2 cohomology intersection blocks, keyed by the eigenvalue: the
    diagonal blocks of the 4x4 ``cohomology_C`` matrix ``c``, or of each
    matrix of a stack."""
    return {-1: c[..., :2, :2], 1: c[..., 2:, 2:]}


def _check_condition(cond: float) -> None:
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ConditioningError(
            f"condition estimate {cond:.3e} exceeds limit {COND_LIMIT:.0e}"
        )


def guarded_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of ``a x = b`` by LU with partial pivoting; for a stack
    of matrices (k, n, n), of each slice, in one call.

    Rejects ``a`` if the condition number of a slice exceeds
    ``COND_LIMIT`` (the error names the largest), or if ``a`` holds a nan
    or an infinity (the estimate is then nan), before any solve.
    """
    finite = np.isfinite(a).all()  # np.linalg.cond raises on a nan
    _check_condition(np.max(np.linalg.cond(a)) if finite else math.nan)
    return np.linalg.solve(a, b)


def diagonal_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution x of ``a x = b`` for a diagonal ``a``, or for each slice of a
    stack of them, guarded like ``guarded_solve`` by max|d| / min|d|, the
    exact 2-norm condition number."""
    d = np.diagonal(a, axis1=-2, axis2=-1)
    size = np.abs(d)
    smallest = size.min(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smallest > 0.0, size.max(axis=-1) / smallest, math.inf)
    _check_condition(np.max(cond))
    return b / d[..., :, None]
