"""Named verification checks, seeded sweeps, and machine-readable reports.

Every check computes a residual for one of the library's quadratic or
q-series identities and compares it against a tolerance profile.  Check
names come from a static registry mapping each name to a plain statement
of the identity it tests; constructing a result under an unregistered
name is an error, so the report vocabulary cannot drift from the docs.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .hypergeom import HypergeomError, gauss_2f1, product_coeffs
from .matrices import (AdmissibilityError, ConditioningError, HgParams,
                       admissible, basis_change, block_C, block_H_prime,
                       cohomology_C, diagonal_solve, guarded_solve,
                       homology_H, require_admissible, theta_bracket)
from .periods import SHIFT_RULES, PeriodError, block_periods, period_matrix
from .quadrature import QuadratureError
from .series import SeriesError, TauPoint, ThetaConstants, q_terms

SWEEP_TAUS = (1j, 1.3j, 2j, 0.3 + 1.2j)

# Margin kept between every sampled exponent and the nearest integer so
# that shifted and negated parameter variants stay clearly admissible.
SAMPLER_MARGIN = 1e-3

# name -> plain-math statement of the identity the check tests
CHECK_REGISTRY: dict[str, str] = {
    "full-tpr": "4x4 quadratic relation C = P+ . H^-T . P-^T, "
                "relative Frobenius residual",
    "block-tpr-minus": "2x2 odd-eigenspace relation "
                       "C(-1) = P'+(-1) . H'(-1)^-T . P'-(-1)^T",
    "block-tpr-plus": "2x2 even-eigenspace relation "
                      "C(+1) = P'+(+1) . H'(+1)^-T . P'-(+1)^T",
    "orthogonality": "cross-eigenspace cycle pairings vanish: "
                     "B(e) . H . B(-e)^T = 0 entrywise, both signs",
    "entry22-theta": "theta-derivative form of the (2,2) entry equals "
                     "(a-b+1) lambda(tau) + c",
    "entry22-2f1": "2F1-product form of the (2,2) entry equals "
                   "(a-b+1) lambda(tau) + c",
    "entry22-cross": "theta-derivative and 2F1-product forms of the "
                     "(2,2) entry agree",
    "whipple-cancellation": "degree-n coefficients of the two 2F1-product "
                            "terms cancel for n >= 2; degrees 0 and 1 give "
                            "c and a-b+1",
    "theta1-log-derivative": "theta1'''(0)/theta1'(0) equals both its "
                             "q-series and the sum of the three "
                             "theta_j''(0)/theta_j(0)",
    "theta2-ratio-g2": "theta2''(0)/theta2(0) = -4 G2(2 tau) + G2(tau), "
                       "with its alternating q-series",
    "theta3-ratio-g2": "theta3''(0)/theta3(0) = 4 G2(2 tau) - 5 G2(tau) "
                       "+ G2(tau/2), with its q-series",
    "theta4-ratio-g2": "theta4''(0)/theta4(0) = G2(tau) - G2(tau/2), "
                       "with its q-series",
    "lambda-quartic-cs": "1 + 24 sum n q^n/(1+q^n) = "
                         "(1 - lambda/2) theta3(0)^4",
    "lambda-quartic-ds": "1 - 24 sum (2n-1) q^(n-1/2)/(1+q^(n-1/2)) = "
                         "(1 - 2 lambda) theta3(0)^4",
    "lambda-quartic-ns": "1 + 24 sum (2n-1) q^(n-1/2)/(1-q^(n-1/2)) = "
                         "(1 + lambda) theta3(0)^4",
    "g2-combination-cs": "2 G2(2 tau) - G2(tau) = "
                         "(pi^2/3)(1 - lambda/2) theta3(0)^4",
    "g2-combination-ds": "4 G2(2 tau) + G2(tau/2) - 4 G2(tau) = "
                         "(pi^2/3)(1 - 2 lambda) theta3(0)^4",
    "g2-combination-ns": "2 G2(tau) - G2(tau/2) = "
                         "(pi^2/3)(1 + lambda) theta3(0)^4",
    "laurent-coeff-cs": "u^1 Laurent coefficient of 2K cs(2Ku) matches its "
                        "q-sum and lambda forms",
    "laurent-coeff-ds": "u^1 Laurent coefficient of 2K ds(2Ku) matches its "
                        "q-sum and lambda forms",
    "laurent-coeff-ns": "u^1 Laurent coefficient of 2K ns(2Ku) matches its "
                        "q-sum and lambda forms",
    "phi2-laurent": "second cocycle over du has u^-2 coefficient "
                    "1/(pi theta3^2) (Jacobi's theta1' = pi theta2 theta3 "
                    "theta4) and u^0 coefficient that times "
                    "theta4''/theta4 - theta1'''/(3 theta1')",
    "entry22-g2-form": "theta-derivative form of the (2,2) entry equals "
                       "its G2-combination rewrite",
}

_RECOVERABLE = (AdmissibilityError, ConditioningError, HypergeomError,
                PeriodError, QuadratureError, SeriesError)


@dataclass(frozen=True)
class CheckResult:
    """One named check: echoed parameters, residual, verdict."""

    name: str
    params: dict
    residual: float | None
    tolerance: float
    passed: bool
    error: str | None = None

    def __post_init__(self):
        if self.name not in CHECK_REGISTRY:
            raise ValueError(f"unregistered check name {self.name!r}")
        if self.error is None:
            if self.residual is None or self.residual < 0.0:
                raise ValueError("residual must be a non-negative real")
            if self.passed != (self.residual <= self.tolerance):
                raise ValueError("pass flag inconsistent with residual")
        elif self.passed:
            raise ValueError("an errored check cannot pass")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "error": self.error,
        }


@dataclass(frozen=True)
class VerificationReport:
    """A batch of check results with aggregate counts."""

    tool_version: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        n_pass = sum(1 for c in self.checks if c.passed)
        n_err = sum(1 for c in self.checks if c.error is not None)
        return {
            "pass": n_pass,
            "fail": len(self.checks) - n_pass - n_err,
            "errored": n_err,
        }

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        """One-line JSON, sorted keys; ``indent`` would bypass C encoding."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        d = json.loads(text)
        checks = [
            CheckResult(
                name=c["name"], params=c["params"], residual=c["residual"],
                tolerance=c["tolerance"], passed=c["pass"],
                error=c["error"],
            )
            for c in d["checks"]
        ]
        return cls(tool_version=d["tool_version"], seed=d["seed"],
                   checks=checks)


@dataclass(frozen=True)
class Tolerances:
    """Tolerance profile by check category."""

    matrix: float = 1e-8
    series: float = 1e-10
    entry22: float = 1e-9
    orthogonality: float = 1e-12
    whipple: float = 1e-10


PROFILES: dict[str, Tolerances] = {
    "default": Tolerances(),
    "loose": Tolerances(matrix=1e-6, series=1e-8, entry22=1e-7,
                        orthogonality=1e-10, whipple=1e-8),
}


def resolve_tolerances(spec) -> Tolerances:
    """A profile name, a number (uniform override), or a Tolerances."""
    if isinstance(spec, Tolerances):
        return spec
    if isinstance(spec, str):
        if spec in PROFILES:
            return PROFILES[spec]
        try:
            value = float(spec)
        except ValueError:
            raise ValueError(
                f"unknown tolerance profile {spec!r}; "
                f"expected one of {sorted(PROFILES)} or a number"
            ) from None
        return resolve_tolerances(value)
    value = float(spec)
    if not (value > 0.0):
        raise ValueError("tolerance must be positive")
    return Tolerances(matrix=value, series=value, entry22=value,
                      orthogonality=value, whipple=value)


def _params_dict(p: HgParams | None, tau: TauPoint | None, **extra) -> dict:
    out = {
        "alpha": p.alpha if p is not None else None,
        "beta": p.beta if p is not None else None,
        "gamma": p.gamma if p is not None else None,
        "tau_re": tau.tau.real if tau is not None else None,
        "tau_im": tau.tau.imag if tau is not None else None,
    }
    out.update(extra)
    return out


def _errored(name: str, params: dict, tolerance: float,
             error: Exception | str) -> CheckResult:
    return CheckResult(name=name, params=params, residual=None,
                       tolerance=tolerance, passed=False, error=str(error))


def _run_check(name: str, params: dict, tolerance: float, fn) -> CheckResult:
    """A check of ``fn()``'s residual; a recoverable exception or a
    non-finite residual makes it an errored check, never a plain FAIL."""
    try:
        residual = float(fn())
    except _RECOVERABLE as exc:
        return _errored(name, params, tolerance, exc)
    if not math.isfinite(residual):
        return _errored(name, params, tolerance,
                        f"non-finite residual {residual}")
    return CheckResult(name=name, params=params, residual=residual,
                       tolerance=tolerance, passed=residual <= tolerance)


def verify_tpr(p: HgParams, tau: TauPoint, tol=PROFILES["default"]
               ) -> tuple[CheckResult, CheckResult, CheckResult]:
    """Relative Frobenius residuals of the full 4x4 relation
    C = P+ . H^-T . P-^T and of its two eigenspace blocks.

    C, P+ and P- are built once; the blocks are their diagonal slices,
    paired with the diagonal ``block_H_prime`` d, in the simple form
    C(+-1) = P'+ . diag(1/d) . P'-^T (``diagonal_solve``); H is solved by
    LU.  Returns (full-tpr, block-tpr-minus, block-tpr-plus).  A failed
    build errors all three checks; a badly conditioned H or H' errors only
    its own.

    full-tpr is not a certificate above Im tau of about 3: over 40 seeded
    draws at Re tau = 0.1 it failed 0 at Im tau = 3, 7 at 4, 33 at 10 and
    40 at 50, while both block relations stayed at or below 1.1e-13.
    """
    tols = resolve_tolerances(tol)
    params = _params_dict(p, tau)
    names = ("full-tpr", "block-tpr-minus", "block-tpr-plus")
    try:
        c = cohomology_C(p, tau.constants)
        pp = period_matrix("+", p, tau)
        pm = period_matrix("-", p, tau)
        blocks = (block_C(c), block_periods(pp), block_periods(pm),
                  block_H_prime(p))
        relations = [(c, pp, pm, homology_H(p), guarded_solve)] + [
            (*(pair.for_sign(sign) for pair in blocks), diagonal_solve)
            for sign in (-1, 1)]
    except _RECOVERABLE as exc:
        return tuple(_errored(name, params, tols.matrix, exc)
                     for name in names)

    def residual(c, pp, pm, h, solve):
        return np.linalg.norm(c - pp @ solve(h.T, pm.T)) / np.linalg.norm(c)

    return tuple(
        _run_check(name, params, tols.matrix,
                   functools.partial(residual, *relation))
        for name, relation in zip(names, relations))


def verify_orthogonality(p: HgParams, tol=PROFILES["default"]) -> CheckResult:
    """Cross-eigenspace cycle pairings vanish entrywise (both signs)."""
    tols = resolve_tolerances(tol)

    def residual():
        h = homology_H(p)
        rows = basis_change(p)
        dual = basis_change(p.negated())
        worst = 0.0
        for sign in (-1, 1):
            cross = rows.for_sign(sign) @ h @ dual.for_sign(-sign).T
            worst = max(worst, float(np.max(np.abs(cross))))
        return worst

    return _run_check("orthogonality", _params_dict(p, None),
                      tols.orthogonality, residual)


def _entry22_theta_form(p: HgParams, tau: TauPoint) -> complex:
    tc = tau.constants
    return theta_bracket(p, tc) / (2.0 * math.pi**2 * tc.th3_0**4)


def _entry22_2f1_form(a: float, b: float, c: float, tau: TauPoint) -> complex:
    lam = tau.lam
    first = c * gauss_2f1(a, b, c, lam) * gauss_2f1(-a - 1, -b + 1, -c, lam)
    second = (
        a * (a + 1) * (c - b) * (c - b + 1) / (c * (1 + c) * (1 - c))
        * lam**2
        * gauss_2f1(a + 2, b, 2 + c, lam)
        * gauss_2f1(-a + 1, -b + 1, 2 - c, lam)
    )
    return first + second


def verify_entry22(a: float, b: float, c: float, tau: TauPoint,
                   tol=PROFILES["default"]) -> tuple[CheckResult, ...]:
    """Both routes to the reduced (2,2) entry against (a-b+1) lambda + c.

    Residuals are absolute: the target is order one over the sampled range.
    entry22-theta sums no 2F1, so only the other two checks error where
    |lambda(tau)| exceeds the 2F1 radius guard.
    """
    tols = resolve_tolerances(tol)
    p = HgParams(a + 0.5, b - 0.5, c)
    params = _params_dict(p, tau, a=a, b=b, c=c)
    try:
        require_admissible(p)
    except AdmissibilityError as exc:
        return tuple(_errored(name, params, tols.entry22, exc) for name in (
            "entry22-theta", "entry22-2f1", "entry22-cross"))

    def make(name, fn):
        return _run_check(name, params, tols.entry22, lambda: fn(tau.lam))

    # Each form is evaluated once, by the first check that needs it.  A
    # form that raises is not kept, so every check using it errors.
    theta_form = functools.cache(lambda: _entry22_theta_form(p, tau))
    f21_form = functools.cache(lambda: _entry22_2f1_form(a, b, c, tau))
    return (
        make("entry22-theta",
             lambda lam: abs(theta_form() - ((a - b + 1) * lam + c))),
        make("entry22-2f1",
             lambda lam: abs(f21_form() - ((a - b + 1) * lam + c))),
        make("entry22-cross", lambda lam: abs(theta_form() - f21_form())),
    )


def verify_whipple(a: float, b: float, c: float, n_max: int = 12,
                   tol=PROFILES["default"]) -> CheckResult:
    """Cancellation of the product-series coefficients for n >= 2.

    The degree-0 and degree-1 anchors (c and a - b + 1) are folded into the
    residual, so a wrong low-order coefficient also fails the check.  One
    ``product_coeffs`` call gives every degree's pair of coefficients.
    """
    tols = resolve_tolerances(tol)
    params = _params_dict(None, None, a=a, b=b, c=c, n_max=n_max)

    def residual():
        coeffs = product_coeffs(max(n_max, 1), a, b, c)
        worst = abs(coeffs[0][0] - c)
        worst = max(worst, abs(coeffs[1][0] - (a - b + 1)))
        for c1, c2 in coeffs[2:]:
            worst = max(worst, abs(c1 + c2) / (1.0 + abs(c1)))
        return worst

    return _run_check("whipple-cancellation", params, tols.whipple, residual)


def _laurent_coefficients(tc: ThetaConstants) -> tuple[complex, ...]:
    """The u^1 Laurent coefficients of theta_j / theta_1 for j = 2, 3, 4,
    then the u^-2 and u^0 ones of phi2 = pi theta2(0)^2 (theta4/theta1)^2.

    They follow from theta_j = theta_j(0) (1 + (r_j/2) u^2 + ...) and
    theta_1 = theta1'(0) u (1 + (r1/6) u^2 + ...), r = ``tc.log_ratios``.
    """
    r1, r2, r3, r4 = tc.log_ratios
    t21, t31, t41 = (th / tc.th1p_0 * (r / 2.0 - r1 / 6.0) for th, r in (
        (tc.th2_0, r2), (tc.th3_0, r3), (tc.th4_0, r4)))
    m2 = math.pi * tc.th2_0**2 * tc.th4_0**2 / tc.th1p_0**2
    return t21, t31, t41, m2, m2 * (r4 - r1 / 3.0)


def _rel(x: complex, y: complex) -> float:
    return abs(x - y) / (1.0 + abs(x))


def verify_series_identities(tau: TauPoint,
                             tol=PROFILES["default"]) -> list[CheckResult]:
    """The q-series identity suite at a single tau.

    Covers the theta-derivative constants (q-series, G2-combination, and
    direct routes), the three lambda-quartic identities, the three G2
    combinations, the u^1 Laurent coefficients of the three odd elliptic
    functions, the Laurent expansion of the second cocycle, and the
    G2-combination rewrite of the (2,2) entry at a fixed (a, b, c).
    """
    tols = resolve_tolerances(tol)
    params = _params_dict(None, tau)
    pi2 = math.pi**2
    # Lambert-series terms in q^n and in q_half^m, with q^m = q_half^(2m)
    n, qn = q_terms(tau.q)
    m, qhm = q_terms(tau.q_half)
    qm = qhm * qhm
    tc = tau.constants
    lam = tau.lam
    t34 = tc.th3_0**4
    g2t = tau.g2
    g2_2t = tau.g2_double
    g2_ht = tau.g2_half
    r1, r2, r3, r4 = tc.log_ratios
    results: list[CheckResult] = []

    def add(name, fn):
        results.append(_run_check(name, params, tols.series, fn))

    add("theta1-log-derivative", lambda: max(
        _rel(r1, pi2 * (-1.0 + 24.0 * (qn / (1 - qn)**2).sum())),
        _rel(r1, r2 + r3 + r4),
    ))
    add("theta2-ratio-g2", lambda: max(
        _rel(r2, -4.0 * g2_2t + g2t),
        _rel(r2, pi2 * (-1.0 + 8.0 * ((-1.0) ** n * n * qn / (1 - qn)).sum())),
    ))
    # expanding q^(n-1/2)/(1+q^(n-1/2))^2 termwise gives the alternating
    # sum with a leading plus sign
    add("theta3-ratio-g2", lambda: max(
        _rel(r3, 4.0 * g2_2t - 5.0 * g2t + g2_ht),
        _rel(r3, 8.0 * pi2 * ((-1.0) ** m * m * qhm / (1 - qm)).sum()),
    ))
    add("theta4-ratio-g2", lambda: max(
        _rel(r4, g2t - g2_ht),
        _rel(r4, 8.0 * pi2 * (m * qhm / (1 - qm)).sum()),
    ))

    # the odd slices [::2] hold the powers q_half^(2n-1)
    sum_cs = 1.0 + 24.0 * (n * qn / (1 + qn)).sum()
    sum_ds = 1.0 - 24.0 * (m * qhm / (1 + qhm))[::2].sum()
    sum_ns = 1.0 + 24.0 * (m * qhm / (1 - qhm))[::2].sum()
    add("lambda-quartic-cs", lambda: _rel(sum_cs, (1.0 - lam / 2.0) * t34))
    add("lambda-quartic-ds", lambda: _rel(sum_ds, (1.0 - 2.0 * lam) * t34))
    add("lambda-quartic-ns", lambda: _rel(sum_ns, (1.0 + lam) * t34))

    add("g2-combination-cs", lambda: _rel(
        2.0 * g2_2t - g2t, (pi2 / 3.0) * (1.0 - lam / 2.0) * t34))
    add("g2-combination-ds", lambda: _rel(
        4.0 * g2_2t + g2_ht - 4.0 * g2t, (pi2 / 3.0) * (1.0 - 2.0 * lam) * t34))
    add("g2-combination-ns", lambda: _rel(
        2.0 * g2t - g2_ht, (pi2 / 3.0) * (1.0 + lam) * t34))

    t21, t31, t41, phi2_m2, phi2_0 = _laurent_coefficients(tc)
    two_k_sq = (math.pi * tc.th3_0**2) ** 2
    ratios = {
        "laurent-coeff-cs": (
            math.pi * tc.th3_0 * tc.th4_0 * t21,
            -(pi2 / 3.0) * sum_cs,
            (-1.0 / 3.0 + lam / 6.0) * two_k_sq,
        ),
        "laurent-coeff-ds": (
            math.pi * tc.th2_0 * tc.th4_0 * t31,
            (pi2 / 6.0) * sum_ds,
            (1.0 / 6.0 - lam / 3.0) * two_k_sq,
        ),
        "laurent-coeff-ns": (
            math.pi * tc.th2_0 * tc.th3_0 * t41,
            (pi2 / 6.0) * sum_ns,
            (1.0 / 6.0 + lam / 6.0) * two_k_sq,
        ),
    }
    for name, (series_c, qsum_c, lam_c) in ratios.items():
        add(name, lambda sc=series_c, qc=qsum_c, lc=lam_c: max(
            _rel(sc, qc), _rel(sc, lc)))

    lead = 1.0 / (math.pi * tc.th3_0**2)
    add("phi2-laurent", lambda: max(
        _rel(phi2_m2, lead), _rel(phi2_0, lead * (r4 - r1 / 3.0))))

    def entry22_g2_residual():
        a, b, c = 0.2, 0.3, 0.6
        rewrite = (
            2.0 * (a - b + c + 1) * (2.0 * g2_2t - g2t)
            - 2.0 * (a - b + 1) * (4.0 * g2_2t + g2_ht - 4.0 * g2t)
            + c * (2.0 * g2t - g2_ht)
        ) / (pi2 * t34)
        theta_form = _entry22_theta_form(HgParams(a + 0.5, b - 0.5, c), tau)
        return _rel(theta_form, rewrite)

    add("entry22-g2-form", entry22_g2_residual)
    return results


def sample_admissible(rng: np.random.Generator,
                      margin: float = SAMPLER_MARGIN) -> HgParams:
    """Draw one parameter triple uniformly from (-2, 2)^3, rejecting any
    draw whose shifted or negated variants come within ``margin`` of an
    admissibility boundary."""
    while True:
        alpha, beta, gamma = rng.uniform(-2.0, 2.0, size=3)
        p = HgParams(float(alpha), float(beta), float(gamma))
        variants = [p, p.negated()]
        variants += [p.shifted(*s) for s in SHIFT_RULES.values()]
        variants += [p.negated().shifted(*s) for s in SHIFT_RULES.values()]
        if all(admissible(v, margin)[0] for v in variants):
            return p


def run_sweep(seed: int, count: int,
              tol_profile="default") -> VerificationReport:
    """Seeded sweep of every check over ``count`` admissible draws.

    tau cycles through the fixed list, one ``TauPoint`` per entry, so its
    kernel values are computed once; residuals are deterministic given the
    seed because every summation order in the library is fixed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    tols = resolve_tolerances(tol_profile)
    rng = np.random.default_rng(seed)
    taus = [TauPoint(t) for t in SWEEP_TAUS]
    checks: list[CheckResult] = []
    for k in range(count):
        p = sample_admissible(rng)
        tau = taus[k % len(taus)]
        checks.extend(verify_tpr(p, tau, tols))
        checks.append(verify_orthogonality(p, tols))
        a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
        checks.extend(verify_entry22(a, b, c, tau, tols))
        checks.append(verify_whipple(a, b, c, tol=tols))
        checks.extend(verify_series_identities(tau, tols))
    return VerificationReport(tool_version=__version__, seed=seed,
                              checks=checks)
