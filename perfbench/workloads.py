"""The three benchmark workloads and the scoring of their outputs.

A workload turns (seed, stream, unit index) into one unit's inputs, runs the
unit through the library's public API, and reduces the outputs to a
``UnitRecord``.  Scoring against the mpmath oracle happens afterwards,
outside every timed region.  A unit that fails is counted, never redrawn.

An end-to-end loop runs at least ``window_units`` units (at least 100, so
that 10 samples lie beyond p90).  The verdict counts (attempted, passed,
failures by type, pass_share) and residual_margin cover exactly those units,
so a seed always gives the same counts, however fast the machine ran and
however many units the rest of the run took.  Only throughput counts the
passed checks of every unit.

The library is always called through the ``twistedperiods`` package
namespace, so that the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np
import twistedperiods as tp

# Streams of unit inputs: the timed loops and the traced count prefix draw
# from TIMED, warm-up units from WARMUP, so warm-up never repeats a timed tau.
TIMED, WARMUP = 0, 1

# Relative error allowed between the library's theta kernels (lambda and
# theta3(0)) and the 30-digit oracle; the q-series are exact to ~1e-15.
KERNEL_TOL = 1e-10
# Relative error allowed between a quadrature result and its oracle.
QUAD_TOL = 1e-8
# Beyond this relative error a value is wrong, not merely inaccurate: the run
# reports correct=false.
WRONG_TOL = 1e-6

ENTRY22_CHECKS = 3
SERIES_CHECKS = 15


@dataclass
class UnitRecord:
    """What one unit produced, reduced to what scoring needs."""

    # (check name, passed, residual/tolerance if passed, errored) per
    # CheckResult the library returned
    checks: list = field(default_factory=list)
    # (exception type name, checks lost) per call that raised
    lost: list = field(default_factory=list)
    # (tau, (lambda, theta3) or None, exception type name or None); a
    # mismatch with the oracle, or a raise, fails every check of the unit
    kernels: list = field(default_factory=list)
    # (kind, key, value): quadrature results, each itself a check
    integrals: list = field(default_factory=list)
    roundtrip_ok: bool = True
    # passed checks dropped from ``checks`` by compact()
    passed_dropped: int = 0

    def compact(self) -> None:
        """Keep only failed checks and a count of passed ones, so that the
        records of a long run do not inflate peak_rss_mb; units past the
        window need no ratios."""
        failed = [c for c in self.checks if not c[1]]
        self.passed_dropped += len(self.checks) - len(failed)
        self.checks = failed


def _check_tuples(results) -> list:
    return [(c.name, c.passed,
             c.residual / c.tolerance if c.passed else None,
             c.error is not None) for c in results]


def _call(fn, *args):
    """(value, None) or (None, exception type name); the caller counts the
    checks a raised exception loses."""
    try:
        return fn(*args), None
    except Exception as exc:  # every raise is a counted failure
        return None, type(exc).__name__


def _kernel_values(tau):
    return tp.lambda_tau(tau), tp.theta_constants(tau).th3_0


class Sweep:
    """``run_sweep(seed_i, 4)`` plus the report's JSON round trip.

    The four sweep taus repeat in every unit, so a per-tau cache hits here.
    """

    name = "sweep"
    warmup_units = 2
    # 1200 draws: fewer left residual_margin's seed-to-seed spread near 10%
    window_units = 300
    count_units = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.taus = [complex(t) for t in tp.verify.SWEEP_TAUS]
        self.checks_per_unit = len(self.taus) * len(tp.CHECK_REGISTRY)

    def inputs(self, stream: int, index: int):
        seq = np.random.SeedSequence([self.seed, stream, index])
        return int(seq.generate_state(1)[0])

    def run(self, sweep_seed):
        report, raised = _call(tp.run_sweep, sweep_seed, len(self.taus))
        back = None
        if report is not None:
            back, raised = _call(
                lambda: tp.VerificationReport.from_json(report.to_json()))
        kernels = [(t, _call(_kernel_values, tp.TauPoint(t)))
                   for t in self.taus]
        return report, back, raised, kernels

    def record(self, out) -> UnitRecord:
        report, back, raised, kernels = out
        rec = UnitRecord()
        if raised is not None:
            rec.lost.append((raised, self.checks_per_unit))
        else:
            rec.checks = _check_tuples(report.checks)
            rec.roundtrip_ok = back == report
        _add_kernels(rec, kernels)
        return rec


class TauScan:
    """A fresh tau over the whole admitted domain per unit, with one
    ``sample_admissible`` draw, through entry22 and the identity suite.

    No tau repeats, so caches across calls never hit; low Im tau and
    |lambda| near the 2F1 radius guard grow the series term counts.
    """

    name = "tau_scan"
    warmup_units = 20
    window_units = 4000
    count_units = 100
    checks_per_unit = ENTRY22_CHECKS + SERIES_CHECKS

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, stream: int, index: int):
        rng = np.random.default_rng([self.seed, stream, index])
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 3.0))
        return tau, rng

    def run(self, inp):
        tau_value, rng = inp
        tau = tp.TauPoint(tau_value)
        p = tp.sample_admissible(rng)
        # the entry-(2,2) parameters run_sweep derives from a draw
        a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
        entry22 = _call(tp.verify_entry22, a, b, c, tau)
        series = _call(tp.verify_series_identities, tau)
        return entry22, series, [(tau_value, _call(_kernel_values, tau))]

    def record(self, out) -> UnitRecord:
        entry22, series, kernels = out
        rec = UnitRecord()
        for (results, raised), size in ((entry22, ENTRY22_CHECKS),
                                        (series, SERIES_CHECKS)):
            if raised is not None:
                rec.lost.append((raised, size))
            else:
                rec.checks.extend(_check_tuples(results))
        _add_kernels(rec, kernels)
        return rec


class Quadrature:
    """One Wirtinger integral at tau in [0.1i, 3i] and one '1+' Euler
    pairing at z in (0, 1), each checked against its oracle at 1e-8.

    Vector theta over thousands of nodes and tanh-sinh do the work;
    theta constants, the matrices and 2F1 are barely touched.
    """

    name = "quadrature"
    warmup_units = 10
    window_units = 3000
    count_units = 50
    checks_per_unit = 2

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, stream: int, index: int):
        rng = np.random.default_rng([self.seed, stream, index])
        # both integrals converge only for alpha > 0 and gamma - alpha > 0
        while True:
            p = tp.sample_admissible(rng)
            if p.alpha > 0.0 and p.gamma - p.alpha > 0.0:
                break
        return p, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 1.0))

    def run(self, inp):
        p, tau_im, z = inp
        tau = tp.TauPoint(complex(0.0, tau_im))
        wirtinger = _call(tp.wirtinger_quadrature, p, tau)
        euler = _call(tp.euler_pairing, "1+", p.alpha, p.beta, p.gamma, z)
        return inp, wirtinger, euler

    def record(self, out) -> UnitRecord:
        (p, tau_im, z), wirtinger, euler = out
        rec = UnitRecord()
        for kind, key, (value, raised) in (
                ("wirtinger", (p.alpha, p.beta, p.gamma, tau_im), wirtinger),
                ("euler", (p.alpha, p.beta, p.gamma, z), euler)):
            if raised is not None:
                rec.lost.append((raised, 1))
            else:
                rec.integrals.append((kind, key, complex(value)))
        return rec


WORKLOADS = {w.name: w for w in (Sweep, TauScan, Quadrature)}


def _add_kernels(rec: UnitRecord, kernels) -> None:
    rec.kernels.extend((tau, values, raised)
                       for tau, (values, raised) in kernels)


@dataclass
class Score:
    # checks of the first window units
    attempted: int = 0
    passed: int = 0
    failures: Counter = field(default_factory=Counter)
    # residual / tolerance of the passed checks of the window, by check name
    ratios: dict = field(default_factory=lambda: defaultdict(list))
    # checks of every unit, for throughput
    attempted_all: int = 0
    passed_all: int = 0
    # values further than WRONG_TOL from the oracle, and failed round trips
    # of every unit
    wrong: int = 0
    roundtrip_failures: int = 0
    worst_kernel_error: float = 0.0

    @property
    def margin(self) -> float:
        """The largest, over check names, of the median residual/tolerance.

        The single worst residual is an extreme value that moves 2-40x
        between seeds; the median of the check that runs closest to its
        tolerance is steady enough to bound.
        """
        return max((statistics.median(r) for r in self.ratios.values()),
                   default=0.0)

    @property
    def worst_ratio(self) -> float:
        return max((max(r) for r in self.ratios.values()), default=0.0)


def _rel_err(value: complex, ref: complex) -> float:
    return abs(value - ref) / abs(ref)


def score(records: list, window_units: int) -> Score:
    """Check every unit's outputs against the oracle; count the verdicts of
    the first ``window_units`` units, and the passed checks of all."""
    import oracle  # imports mpmath; only after the timed loops

    s = Score()
    refs: dict = {}
    for index, rec in enumerate(records):
        # without matching kernel values none of the unit's checks pass
        unit_failure = None
        for tau, values, raised in rec.kernels:
            if raised is not None:
                unit_failure = "raised-kernel:" + raised
                continue
            if tau not in refs:
                refs[tau] = oracle.lambda_theta3(tau)
            err = max(_rel_err(v, r) for v, r in zip(values, refs[tau]))
            s.worst_kernel_error = max(s.worst_kernel_error, err)
            s.wrong += err > WRONG_TOL
            if err > KERNEL_TOL:
                unit_failure = unit_failure or "oracle-mismatch"
        verdicts = []
        for name, passed, ratio, errored in rec.checks:
            label = ("errored:" if errored else "tolerance:") + name
            verdicts.append((passed, ratio, name, label))
        for kind, key, value in rec.integrals:
            ref = (oracle.wirtinger_integral(*key) if kind == "wirtinger"
                   else oracle.euler_plus(*key))
            err = _rel_err(value, ref)
            s.wrong += err > WRONG_TOL
            verdicts.append((err <= QUAD_TOL, err / QUAD_TOL, kind,
                             "tolerance:" + kind))
        verdicts += [(True, None, None, None)] * rec.passed_dropped
        failures = Counter()
        passed_checks = 0
        for passed, ratio, name, label in verdicts:
            if unit_failure is not None:
                failures[unit_failure] += 1
            elif not passed:
                failures[label] += 1
            else:
                passed_checks += 1
                if index < window_units:
                    s.ratios[name].append(ratio)
        for exc_name, lost in rec.lost:
            failures["raised:" + exc_name] += lost
        attempted = passed_checks + sum(failures.values())
        s.attempted_all += attempted
        s.passed_all += passed_checks
        if index < window_units:
            s.attempted += attempted
            s.passed += passed_checks
            s.failures.update(failures)
        s.roundtrip_failures += not rec.roundtrip_ok
    return s
