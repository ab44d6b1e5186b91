"""Named verification checks, seeded sweeps, and machine-readable reports.

Every check computes a residual for one of the library's quadratic or
q-series identities and compares it against a tolerance profile.  Check
names come from a static registry mapping each name to its tolerance
category and a plain statement of the identity it tests; constructing a
result under an unregistered name is an error, so the report vocabulary
cannot drift from the docs.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import __version__
from .hypergeom import (HypergeomError, gauss_2f1, product_coeffs,
                        product_k, product_params)
from .matrices import (AdmissibilityError, ConditioningError, HgParams,
                       admissible, basis_change, block_C, block_H_prime,
                       cohomology_C, diagonal_solve, guarded_solve,
                       homology_H, require_admissible, theta_bracket)
from .periods import PeriodError, block_periods, period_matrices, row_params
from .quadrature import QuadratureError
from .series import (KERNEL_CACHE_SIZE, TWO_PI_I, SeriesError, TauPoint,
                     ThetaConstants, g2_lambert, lambda_tau, q_terms,
                     theta_constants)

SWEEP_TAUS = (1j, 1.3j, 2j, 0.3 + 1.2j)

# Margin kept between every sampled exponent and the nearest integer so
# that shifted and negated parameter variants stay clearly admissible.
SAMPLER_MARGIN = 1e-3

WHIPPLE_N_MAX = 12

# name -> (tolerance category, plain-math statement of the identity the
# check tests); each check is judged at its category's tolerance
CHECK_REGISTRY: dict[str, tuple[str, str]] = {
    "full-tpr": ("matrix", "4x4 quadratic relation C = P+ . H^-T . P-^T, "
                 "relative Frobenius residual"),
    "block-tpr-minus": ("matrix", "2x2 odd-eigenspace relation "
                        "C(-1) = P'+(-1) . H'(-1)^-T . P'-(-1)^T"),
    "block-tpr-plus": ("matrix", "2x2 even-eigenspace relation "
                       "C(+1) = P'+(+1) . H'(+1)^-T . P'-(+1)^T"),
    "orthogonality": ("orthogonality", "cross-eigenspace cycle pairings "
                      "B(e) . H . B(-e)^T vanish relative to "
                      "|B(e)|_F |H|_F |B(-e)|_F, both signs"),
    "entry22-theta": ("entry22", "theta-derivative form of the (2,2) entry "
                      "equals (a-b+1) lambda(tau) + c"),
    "entry22-2f1": ("entry22", "2F1-product form of the (2,2) entry equals "
                    "(a-b+1) lambda(tau) + c"),
    "entry22-cross": ("entry22", "theta-derivative and 2F1-product forms of "
                      "the (2,2) entry agree"),
    "whipple-cancellation": ("whipple", "degree-n coefficients of the two "
                             "2F1-product terms cancel for n >= 2; degrees "
                             "0 and 1 give c and a-b+1"),
    "theta1-log-derivative": ("series", "theta1'''(0)/theta1'(0) equals "
                              "both its q-series and the sum of the three "
                              "theta_j''(0)/theta_j(0)"),
    "theta2-ratio-g2": ("series", "theta2''(0)/theta2(0) = -4 G2(2 tau) + "
                        "G2(tau), with its alternating q-series"),
    "theta3-ratio-g2": ("series", "theta3''(0)/theta3(0) = 4 G2(2 tau) "
                        "- 5 G2(tau) + G2(tau/2), with its q-series"),
    "theta4-ratio-g2": ("series", "theta4''(0)/theta4(0) = G2(tau) - "
                        "G2(tau/2), with its q-series"),
    "lambda-quartic-cs": ("series", "1 + 24 sum n q^n/(1+q^n) = "
                          "(1 - lambda/2) theta3(0)^4"),
    "lambda-quartic-ds": ("series", "1 - 24 sum (2n-1) q^(n-1/2)/"
                          "(1+q^(n-1/2)) = (1 - 2 lambda) theta3(0)^4"),
    "lambda-quartic-ns": ("series", "1 + 24 sum (2n-1) q^(n-1/2)/"
                          "(1-q^(n-1/2)) = (1 + lambda) theta3(0)^4"),
    "g2-combination-cs": ("series", "2 G2(2 tau) - G2(tau) = "
                          "(pi^2/3)(1 - lambda/2) theta3(0)^4"),
    "g2-combination-ds": ("series", "4 G2(2 tau) + G2(tau/2) - 4 G2(tau) = "
                          "(pi^2/3)(1 - 2 lambda) theta3(0)^4"),
    "g2-combination-ns": ("series", "2 G2(tau) - G2(tau/2) = "
                          "(pi^2/3)(1 + lambda) theta3(0)^4"),
    "laurent-coeff-cs": ("series", "u^1 Laurent coefficient of 2K cs(2Ku) "
                         "matches its q-sum and lambda forms"),
    "laurent-coeff-ds": ("series", "u^1 Laurent coefficient of 2K ds(2Ku) "
                         "matches its q-sum and lambda forms"),
    "laurent-coeff-ns": ("series", "u^1 Laurent coefficient of 2K ns(2Ku) "
                         "matches its q-sum and lambda forms"),
    "phi2-laurent": ("series", "second cocycle over du has u^-2 coefficient "
                     "1/(pi theta3^2) (Jacobi's theta1' = pi theta2 theta3 "
                     "theta4)"),
    "entry22-g2-form": ("series", "theta-derivative form of the (2,2) entry "
                        "equals its G2-combination rewrite"),
}

# the identity suite's checks: the series rows, in registry order
_SERIES_CHECKS = tuple(name for name, (category, _) in CHECK_REGISTRY.items()
                       if category == "series")

REPORT_COLUMNS = ("name", "params", "residual", "tolerance", "pass", "error")

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
        if type(self.params) is not dict:
            raise ValueError(f"params {self.params!r} is not a dict")
        if type(self.passed) is not bool:
            raise ValueError(f"pass flag {self.passed!r} is not a bool")
        if (type(self.tolerance) not in (float, int)
                or not 0.0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance {self.tolerance!r} is not a "
                             "finite positive real")
        if self.error is None:
            if (type(self.residual) not in (float, int)
                    or not 0.0 <= self.residual < math.inf):
                raise ValueError(f"residual {self.residual!r} is not a "
                                 "finite non-negative real")
            if self.passed != (self.residual <= self.tolerance):
                raise ValueError("pass flag inconsistent with residual")
        elif type(self.error) is not str:
            raise ValueError(f"error {self.error!r} is not a str")
        elif self.passed:
            raise ValueError("an errored check cannot pass")


@dataclass(frozen=True)
class VerificationReport:
    """A batch of check results with aggregate counts.

    Its JSON (schema 2) lists each params dict once, by identity, as
    ``==`` would merge -0.0 with 0.0, and each check as a row of
    ``REPORT_COLUMNS`` that indexes that list.  Schema 1 still loads."""

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

    def to_json(self) -> str:
        """One-line JSON, sorted keys; ``indent`` would bypass C encoding."""
        table: dict[int, tuple] = {}  # id(params) -> (index, params)
        rows = []
        for c in self.checks:
            i, _ = table.setdefault(id(c.params), (len(table), c.params))
            rows.append([c.name, i, c.residual, c.tolerance, c.passed, c.error])
        return json.dumps({
            "schema": 2, "tool_version": self.tool_version,
            "seed": self.seed, "params": [p for _, p in table.values()],
            "columns": REPORT_COLUMNS, "checks": rows,
            "summary": self.summary}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """The report ``text`` encodes; a malformed one, or one whose summary
        or params table its rows contradict, raises ValueError."""
        d = json.loads(text)
        try:
            schema, table = d.get("schema", 1), d.get("params")
            if schema == 1:
                table = [c["params"] for c in d["checks"]]
                d["checks"] = [[i if key == "params" else c[key]
                                for key in REPORT_COLUMNS]
                               for i, c in enumerate(d["checks"])]
            elif schema != 2:
                raise ValueError(f"unknown report schema {schema!r}")
            elif d["columns"] != list(REPORT_COLUMNS):
                raise ValueError(f"unknown report columns {d['columns']!r}")
            checks = []
            for row in d["checks"]:
                if len(row) != len(REPORT_COLUMNS):
                    raise ValueError(f"check row {row!r} does not fit columns")
                if type(row[1]) is not int or not 0 <= row[1] < len(table):
                    raise ValueError(f"params index {row[1]!r} out of range")
                checks.append(CheckResult(row[0], table[row[1]], *row[2:]))
            if len({row[1] for row in d["checks"]}) < len(table):
                raise ValueError("params has an entry no check row indexes")
            for key, kind in (("tool_version", str), ("seed", int)):
                if type(d[key]) is not kind:
                    raise ValueError(
                        f"{key} {d[key]!r} is not of type {kind.__name__}")
            report = cls(d["tool_version"], d["seed"], checks)
            if d["summary"] != report.summary:
                raise ValueError(f"summary {d['summary']!r} disagrees with "
                                 "the check rows")
            return report
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed report: {exc!r}") from None


# profile -> tolerance category -> tolerance, read-only
PROFILES = MappingProxyType({
    "default": MappingProxyType({"matrix": 1e-8, "orthogonality": 1e-12,
                                 "entry22": 1e-9, "whipple": 1e-10,
                                 "series": 1e-10}),
    "loose": MappingProxyType({"matrix": 1e-6, "orthogonality": 1e-10,
                               "entry22": 1e-7, "whipple": 1e-8,
                               "series": 1e-8}),
})


def resolve_tolerances(spec) -> MappingProxyType:
    """The tolerance of each category: a profile's, by its name, or one
    finite positive number, or a string that ``float`` reads as one, for
    every category."""
    if isinstance(spec, str) and spec in PROFILES:
        return PROFILES[spec]
    try:
        if np.issubdtype(type(spec), np.bool_):  # float(True) is 1.0
            raise TypeError("a bool is not a number")
        value = float(spec)
    except (TypeError, ValueError):
        raise ValueError(f"unknown tolerance profile {spec!r}; expected "
                         f"one of {sorted(PROFILES)} or a number") from None
    if not 0.0 < value < math.inf:
        raise ValueError(f"tolerance must be finite and positive, not {value}")
    return MappingProxyType(dict.fromkeys(PROFILES["default"], value))


def _params_dict(p: HgParams | None, tau: TauPoint | None, **extra) -> dict:
    alpha, beta, gamma = (None,) * 3 if p is None else (
        p.alpha, p.beta, p.gamma)
    re, im = (None, None) if tau is None else (tau.tau.real, tau.tau.imag)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "tau_re": re,
            "tau_im": im, **extra}


# the typed errors a draw or a check records in its place; the CLI exits 2
RECOVERABLE = (AdmissibilityError, ConditioningError, HypergeomError,
               PeriodError, QuadratureError, SeriesError)


def _attempt(build):
    """``build()``, or the typed error it raises, in its place."""
    try:
        return build()
    except RECOVERABLE as exc:
        return exc


def _value(x):
    """``x``, unless it is the error that took its place."""
    if isinstance(x, Exception):
        raise x
    return x


def each_draw(step, n: int) -> list:
    """The values of n draws from one stacked pass, ``step(range(n))``.  If
    that raises a typed error, each draw k is redone alone, by
    ``step(range(k, k + 1))``, and keeps its value or its error."""
    try:
        return step(range(n))
    except RECOVERABLE:
        return [_attempt(lambda: step(range(k, k + 1))[0]) for k in range(n)]


def _run_check(name: str, params: dict, tols, outcome) -> CheckResult:
    """The check of a residual, or of the typed error that took its place
    (``_attempt``), the one place a verdict is made, at the tolerance in
    ``tols`` of the check's registry category: an error or a non-finite
    residual errors it, never a FAIL."""
    tolerance = tols[CHECK_REGISTRY[name][0]]
    if isinstance(outcome, Exception):
        return CheckResult(name, params, None, tolerance, False, str(outcome))
    residual = float(outcome)
    if not math.isfinite(residual):
        return CheckResult(name, params, None, tolerance, False,
                           f"non-finite residual {residual}")
    return CheckResult(name, params, residual, tolerance,
                       residual <= tolerance)


def _worst(*residuals: float) -> float:
    """The largest of some non-negative residuals, or nan if any is nan:
    ``max(0.0, nan)`` is 0.0, so ``max`` alone would let a nan pass."""
    return math.nan if math.isnan(sum(residuals)) else max(residuals)


def verify_tpr(p: HgParams, tau: TauPoint, tol="default"
               ) -> tuple[CheckResult, ...]:
    """Relative Frobenius residuals of the full 4x4 relation
    C = P+ . H^-T . P-^T and of its two eigenspace blocks, and the
    orthogonality of the eigenspaces that the blocks rest on.

    Returns (full-tpr, block-tpr-minus, block-tpr-plus, orthogonality):
    the batch of one of ``_verify_tpr_batch``, which ``run_sweep`` runs
    over all its draws and which states what each check builds and reads.
    The blocks take the simple form C(+-1) = P'+ . diag(1/d) . P'-^T of
    the diagonal ``block_H_prime`` d; orthogonality reads no tau, so its
    params echo none.

    full-tpr is not a certificate above Im tau of about 3: over 40 seeded
    draws at Re tau = 0.1 it failed 0 at Im tau = 3, 7 at 4, 33 at 10 and
    40 at 50, while both block relations stayed at or below 1.1e-13.
    """
    return _verify_tpr_batch([(p, tau)], tol)[0]


def _by_sign(pair: dict[int, np.ndarray]) -> np.ndarray:
    """An eigenspace pair as an array, eigenvalue -1 first."""
    return np.array([pair[-1], pair[1]])


def _frobenius(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, the squares of its
    entries' real and imaginary parts summed in memory order (np.cumsum),
    whatever the stack's size."""
    square = np.square(np.ascontiguousarray(m).view(float))
    return np.sqrt(np.cumsum(square.reshape(m.shape[:-2] + (-1,)),
                             axis=-1)[..., -1])


def _verify_tpr_batch(draws, tol) -> list[tuple[CheckResult, ...]]:
    """``verify_tpr``'s four checks for each (p, tau) of ``draws``, each
    draw's bits, errors and texts those of its batch of one.

    Each draw's pieces are built once, value or error (``_attempt``): C,
    H, H' and the basis changes of p and -p from their scalar closed
    forms, then P+ and P- of every draw from one ``period_matrices`` call
    (``each_draw``, so a failed call is redone draw by draw).  Each check
    is one step of ``each_draw``: it gathers the pieces of a range of
    draws as stacks (C, P+ and P-, then H or H'; orthogonality the basis
    changes, then H), the first error among them raised, then runs one
    stacked solve and batched products.  A draw redone alone so reports
    its first failed piece, else its solve's error.  The Frobenius norms
    (``_frobenius``) sum each matrix in one order, whatever the batch.
    ``tol`` is a spec for ``resolve_tolerances``.
    """
    tols = resolve_tolerances(tol)

    def signed(ks):  # (P+, P-) of each draw of ks
        plus = [draws[k] for k in ks]
        m = period_matrices(plus + [(q.negated(), tau) for q, tau in plus])
        return np.stack([m[:len(ks)], m[len(ks):]], axis=1)

    def stack(key: str, ks: range) -> np.ndarray:
        return np.array([_value(built[key][k]) for k in ks])

    def full(ks):
        c, periods, h = (stack(key, ks) for key in ("c", "periods", "h"))
        pp, pm = np.swapaxes(periods, 0, 1)
        x = guarded_solve(np.swapaxes(h, 1, 2), np.swapaxes(pm, 1, 2))
        return (_frobenius(c - pp @ x) / _frobenius(c)).tolist()

    def block(i: int, sign: int, ks):
        cb = block_C(stack("c", ks))[sign]
        pb, mb = np.swapaxes(block_periods(stack("periods", ks))[sign], 0, 1)
        x = diagonal_solve(stack("hd", ks)[:, i], np.swapaxes(mb, 1, 2))
        return (_frobenius(cb - pb @ x) / _frobenius(cb)).tolist()

    def orthogonality(ks):
        # rows[k, i] is B(e), e = (-1, 1)[i], and dual[k, i] is -p's B(-e)
        rows, dual, h = (stack(key, ks) for key in ("rows", "dual", "h"))
        top = np.abs(rows @ h[:, None] @ np.swapaxes(dual, 2, 3)).max(
            axis=(2, 3))
        ratio = top / (_frobenius(rows) * _frobenius(h)[:, None]
                       * _frobenius(dual))
        return np.maximum(ratio[:, 0], ratio[:, 1]).tolist()  # nan if either

    pieces = {
        "c": lambda p, tau: cohomology_C(p, theta_constants(tau)),
        "h": lambda p, tau: homology_H(p),
        "hd": lambda p, tau: _by_sign(block_H_prime(p)),
        "rows": lambda p, tau: _by_sign(basis_change(p)),
        "dual": lambda p, tau: _by_sign(basis_change(p.negated()))[::-1],
    }
    # a piece or a norm that overflows (a norm near the Im ceiling) errors
    # its check as non-finite, unwarned
    with np.errstate(all="ignore"):
        built = {key: [_attempt(lambda: build(p, tau)) for p, tau in draws]
                 for key, build in pieces.items()}
        built["periods"] = each_draw(signed, len(draws))
        outcomes = list(zip(*(each_draw(step, len(draws)) for step in (
            full, functools.partial(block, 0, -1),
            functools.partial(block, 1, 1), orthogonality))))
    names = ("full-tpr", "block-tpr-minus", "block-tpr-plus", "orthogonality")
    return [tuple(map(_run_check, names,
                      (_params_dict(p, tau),) * 3 + (_params_dict(p, None),),
                      (tols,) * 4, row))
            for (p, tau), row in zip(draws, outcomes)]


def _entry22_theta_form(p: HgParams, tc: ThetaConstants) -> complex:
    return theta_bracket(p, tc) / (2.0 * math.pi**2 * tc.th3_0**4)


def _entry22_2f1_form(a: float, b: float, c: float,
                      lam: complex) -> complex:
    f1, f2, f3, f4 = (gauss_2f1(*abc, lam) for abc in product_params(a, b, c))
    return c * f1 * f2 + product_k(a, b, c) * lam**2 * f3 * f4


def verify_entry22(a: float, b: float, c: float, tau: TauPoint,
                   tol="default") -> tuple[CheckResult, ...]:
    """Both routes to the reduced (2,2) entry against (a-b+1) lambda + c.

    Residuals are absolute: the target is order one over the sampled range.
    Each value is built once, value or error (``_attempt``): first
    ``require_admissible`` of p = (a+1/2, b-1/2, c), whose error stands in
    for every form, so an inadmissible p errors all three and evaluates
    none; then the theta form, the target and the 2F1 form.  Each check
    reads its two values through ``_value``, so it errors with the first
    of them that is an error, and every check reading a failed form errors.
    entry22-theta sums no 2F1, so only the other two checks error where
    |lambda(tau)| exceeds the 2F1 radius guard.
    """
    tols = resolve_tolerances(tol)
    p = HgParams(a + 0.5, b - 0.5, c)
    params = _params_dict(p, tau, a=a, b=b, c=c)
    refused = _attempt(lambda: require_admissible(p))
    theta_form, target, f21_form = (refused,) * 3 if refused else (
        _attempt(build) for build in (
            lambda: _entry22_theta_form(p, theta_constants(tau)),
            lambda: (a - b + 1) * lambda_tau(tau) + c,
            lambda: _entry22_2f1_form(a, b, c, lambda_tau(tau))))
    return tuple(_run_check(name, params, tols,
                            _attempt(lambda: abs(_value(x) - _value(y))))
                 for name, x, y in (("entry22-theta", theta_form, target),
                                    ("entry22-2f1", f21_form, target),
                                    ("entry22-cross", theta_form, f21_form)))


def verify_whipple(a: float, b: float, c: float, tol="default") -> CheckResult:
    """Cancellation of the product-series coefficients for
    2 <= n <= WHIPPLE_N_MAX (echoed as ``n_max``), from one
    ``product_coeffs`` table.

    The degree-0 and degree-1 anchors (c and a - b + 1) are folded into the
    residual, so a wrong low-order coefficient also fails the check.
    """
    tols = resolve_tolerances(tol)
    params = _params_dict(None, None, a=a, b=b, c=c, n_max=WHIPPLE_N_MAX)

    def residual():
        coeffs = product_coeffs(WHIPPLE_N_MAX, a, b, c)
        return _worst(abs(coeffs[0][0] - c), abs(coeffs[1][0] - (a - b + 1)),
                      *(_rel(c1, -c2) for c1, c2 in coeffs[2:]))

    return _run_check("whipple-cancellation", params, tols, _attempt(residual))


def _laurent_coefficients(tc: ThetaConstants) -> tuple[complex, ...]:
    """The u^1 Laurent coefficients of theta_j / theta_1 for j = 2, 3, 4,
    then the u^-2 one of phi2 = pi theta2(0)^2 (theta4/theta1)^2.

    They follow from theta_j = theta_j(0) (1 + (r_j/2) u^2 + ...) and
    theta_1 = theta1'(0) u (1 + (r1/6) u^2 + ...), r = ``tc.log_ratios``.
    """
    r1, r2, r3, r4 = tc.log_ratios
    t21, t31, t41 = (th / tc.th1p_0 * (r / 2.0 - r1 / 6.0) for th, r in (
        (tc.th2_0, r2), (tc.th3_0, r3), (tc.th4_0, r4)))
    m2 = math.pi * tc.th2_0**2 * tc.th4_0**2 / tc.th1p_0**2
    return t21, t31, t41, m2


def _rel(x: complex, y: complex) -> float:
    return abs(x - y) / (1.0 + abs(x))


@functools.lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _series_residuals(tau: TauPoint) -> tuple[float, ...]:
    """The identity suite's 15 residuals at tau, in ``_SERIES_CHECKS``
    order, computed once per tau and process: a least-recently-used cache
    of KERNEL_CACHE_SIZE entries, like the theta constants.

    The residuals depend on tau alone, so only they are cached, never a
    check's params or tolerance.  Every kernel is read before the first
    residual, so a kernel error raises from here and is not cached; the
    residuals themselves are plain arithmetic, and one that is not finite
    errors its check in the caller.  Each Jacobi family's values are built
    once; its u^1 Laurent coefficient is k times its q-sum and its lambda
    form, k = (-pi^2/3, pi^2/6, pi^2/6), as (2K)^2 = pi^2 theta3(0)^4.
    """
    pi2 = math.pi**2
    # Lambert-series terms in q^n and in q_half^m, with q^m = q_half^(2m)
    n, qn = q_terms(tau.q)
    m, qhm = q_terms(tau.q_half)
    qm = qhm * qhm
    tc = theta_constants(tau)
    lam = lambda_tau(tau)
    t34 = tc.th3_0**4
    # G2 at tau, tau/2 and 2 tau from their nomes' Lambert tables: 2 tau
    # may lie above the Im ceiling and tau/2 below the floor
    g2t = g2_lambert(n, qn)
    g2_ht = g2_lambert(m, qhm)
    g2_2t = g2_lambert(*q_terms(cmath.exp(TWO_PI_I * (tau.tau_mod8 * 2.0))))
    r1, r2, r3, r4 = tc.log_ratios
    t21, t31, t41, phi2_m2 = _laurent_coefficients(tc)
    # per family cs, ds, ns: q-sum, L = (1 - lambda/2, 1 - 2 lambda,
    # 1 + lambda) theta3(0)^4, G2 combination, u^1 coefficient from the
    # theta series; the odd slices [::2] hold the powers q_half^(2n-1)
    families = (
        (1.0 + 24.0 * (n * qn / (1 + qn)).sum(), (1.0 - lam / 2.0) * t34,
         2.0 * g2_2t - g2t, math.pi * tc.th3_0 * tc.th4_0 * t21),
        (1.0 - 24.0 * (m * qhm / (1 + qhm))[::2].sum(),
         (1.0 - 2.0 * lam) * t34, 4.0 * g2_2t + g2_ht - 4.0 * g2t,
         math.pi * tc.th2_0 * tc.th4_0 * t31),
        (1.0 + 24.0 * (m * qhm / (1 - qhm))[::2].sum(), (1.0 + lam) * t34,
         2.0 * g2t - g2_ht, math.pi * tc.th2_0 * tc.th3_0 * t41),
    )
    g2_cs, g2_ds, g2_ns = (family[2] for family in families)
    a, b, c = 0.2, 0.3, 0.6
    g2_rewrite = (2.0 * (a - b + c + 1) * g2_cs - 2.0 * (a - b + 1) * g2_ds
                  + c * g2_ns) / (pi2 * t34)
    return tuple(map(float, (
        # theta1-log-derivative
        _worst(_rel(r1, pi2 * (-1.0 + 24.0 * (qn / (1 - qn)**2).sum())),
               _rel(r1, r2 + r3 + r4)),
        # theta2-ratio-g2
        _worst(_rel(r2, -4.0 * g2_2t + g2t),
               _rel(r2, pi2 * (-1.0 + 8.0 * (
                   (-1.0) ** n * n * qn / (1 - qn)).sum()))),
        # theta3-ratio-g2: expanding q^(n-1/2)/(1+q^(n-1/2))^2 termwise
        # gives the alternating sum with a leading plus sign
        _worst(_rel(r3, 4.0 * g2_2t - 5.0 * g2t + g2_ht),
               _rel(r3, 8.0 * pi2 * ((-1.0) ** m * m * qhm / (1 - qm)).sum())),
        # theta4-ratio-g2
        _worst(_rel(r4, g2t - g2_ht),
               _rel(r4, 8.0 * pi2 * (m * qhm / (1 - qm)).sum())),
        # lambda-quartic-cs, -ds, -ns
        *(_rel(q_sum, lam_form) for q_sum, lam_form, _, _ in families),
        # g2-combination-cs, -ds, -ns
        *(_rel(g2c, (pi2 / 3.0) * lam_form)
          for _, lam_form, g2c, _ in families),
        # laurent-coeff-cs, -ds, -ns
        *(_worst(_rel(coeff, k * q_sum), _rel(coeff, k * lam_form))
          for (q_sum, lam_form, _, coeff), k in zip(
              families, (-pi2 / 3.0, pi2 / 6.0, pi2 / 6.0))),
        # phi2-laurent
        _rel(phi2_m2, 1.0 / (math.pi * tc.th3_0**2)),
        # entry22-g2-form
        _rel(_entry22_theta_form(HgParams(a + 0.5, b - 0.5, c), tc),
             g2_rewrite),
    )))


def verify_series_identities(tau: TauPoint,
                             tol="default") -> list[CheckResult]:
    """The q-series identity suite at a single tau.

    Covers the theta-derivative constants (q-series, G2-combination, and
    direct routes), the three lambda-quartic identities, the three G2
    combinations, the u^1 Laurent coefficients of the three odd elliptic
    functions, the Laurent expansion of the second cocycle, and the
    G2-combination rewrite of the (2,2) entry at a fixed (a, b, c).

    The residuals depend on tau alone and are computed once per tau and
    process (``_series_residuals``); each call builds its own results
    from them, with its own tolerance and params, so a point at
    Re tau = -0.0 still echoes ``tau_re`` -0.0.
    """
    tols = resolve_tolerances(tol)
    params = _params_dict(None, tau)
    return [_run_check(name, params, tols, r)
            for name, r in zip(_SERIES_CHECKS, _series_residuals(tau))]


def sample_admissible(rng: np.random.Generator) -> HgParams:
    """Draw p uniformly from (-2, 2)^3 until the eight sets the period rows
    evaluate, ``row_params`` of p and of -p, all keep their five exponents
    SAMPLER_MARGIN from the integers."""
    while True:
        alpha, beta, gamma = rng.uniform(-2.0, 2.0, size=3)
        p = HgParams(float(alpha), float(beta), float(gamma))
        if all(admissible(r, SAMPLER_MARGIN)[0]
               for v in (p, p.negated()) for r in row_params(v)):
            return p


def run_sweep(seed: int, count: int,
              tol_profile="default") -> VerificationReport:
    """Seeded sweep of every check over ``count`` admissible draws; the seed
    >= 0 and the count >= 1 are ints or numpy integers (a bool is neither).

    tau cycles through the fixed list, one ``TauPoint`` per entry; its
    theta constants and suite residuals are cached, and residuals are
    deterministic given the seed because every summation order is fixed.
    All ``count`` draws are made first (the sampler is the only reader of
    the generator), and ``verify_tpr``'s checks run for all of them as one
    batch (``_verify_tpr_batch``).  Each draw then reports them,
    ``verify_entry22`` and ``verify_whipple`` (one ``product_coeffs`` table
    each), and, at each tau's first draw only, the suite of
    ``verify_series_identities``, which reads tau alone: the results of
    the public calls, bit for bit, in registry order.  ``tol_profile`` is a
    spec for ``resolve_tolerances``, passed on to each call.
    """
    for name, n, least in (("seed", seed, 0), ("count", count, 1)):
        if not np.issubdtype(type(n), np.integer) or n < least:
            raise ValueError(f"{name} must be an integer >= {least}, not {n!r}")
    rng = np.random.default_rng(seed)
    taus = [TauPoint(t) for t in SWEEP_TAUS]
    draws = [(sample_admissible(rng), taus[k % len(taus)])
             for k in range(count)]
    checks: list[CheckResult] = []
    for k, tpr in enumerate(_verify_tpr_batch(draws, tol_profile)):
        p, tau = draws[k]
        a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
        checks += [*tpr, *verify_entry22(a, b, c, tau, tol_profile),
                   verify_whipple(a, b, c, tol_profile)]
        if k < len(taus):  # draw k is the first at taus[k]
            checks += verify_series_identities(tau, tol_profile)
    return VerificationReport(tool_version=__version__, seed=int(seed),
                              checks=checks)
