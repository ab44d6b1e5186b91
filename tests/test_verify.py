"""Verifier checks, sweep determinism, report serialization, and the CLI."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistedperiods
from twistedperiods import cli, matrices, periods, series, verify
from twistedperiods.cli import main
from twistedperiods.hypergeom import HypergeomError
from twistedperiods.matrices import HgParams
from twistedperiods.periods import SHIFT_RULES, PeriodError
from twistedperiods.series import TauPoint, lambda_tau, theta_constants
from twistedperiods.verify import (CHECK_REGISTRY, CheckResult, PROFILES,
                                   REPORT_COLUMNS, SWEEP_TAUS,
                                   VerificationReport, each_draw,
                                   resolve_tolerances, run_sweep,
                                   sample_admissible, verify_entry22,
                                   verify_series_identities, verify_tpr,
                                   verify_whipple)

P_REF = HgParams(0.30, 0.21, 0.77)
TAU_I = TauPoint(1j)

# near the Im tau ceiling, where full-tpr's norms overflow
P_OVERFLOW = HgParams(1.4832439376605402, -1.4843901826391568,
                      -2.831776254082926)
TAU_OVERFLOW = 0.9009137718442823 + 46.501341186967004j

# committed run_sweep(0, 4) reports: schema 1, each check a dict echoing
# its params, and schema 2, a params table and one row per check
REPORT_V1 = (Path(__file__).parent / "fixtures"
             / "report_v1_sweep_seed0_count4.json")
REPORT_V2 = (Path(__file__).parent / "fixtures"
             / "report_v2_sweep_seed0_count4.json")


def _json_checks(text: str) -> list[dict]:
    """The checks of a JSON report as dicts, read through its ``columns``
    with each params index resolved; NaN and Infinity tokens raise."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    d = json.loads(text, parse_constant=reject)
    checks = [dict(zip(d["columns"], row)) for row in d["checks"]]
    for check in checks:
        check["params"] = d["params"][check["params"]]
    return checks


def _report_json(checks) -> str:
    """The checks' report JSON: names, params (signed zeros and int/float
    kinds included), residual bits, tolerances, verdicts and errors."""
    return VerificationReport("x", 0, list(checks)).to_json()


def _written_out_entry22_theta_form(a, b, c, tau):
    """The (2,2) entry's theta form with its four coefficients written out
    in (a, b, c): the reference for ``theta_bracket``."""
    tc = theta_constants(tau)
    bracket = (
        -(2 * a + 1) * tc.th1ppp_0 / tc.th1p_0
        + (2 * a - 2 * c + 1) * tc.th2pp_0 / tc.th2_0
        + (2 * b - 1) * tc.th3pp_0 / tc.th3_0
        + (4 * a - 2 * b + 2 * c + 3) * tc.th4pp_0 / tc.th4_0
    )
    return bracket / (2.0 * math.pi**2 * tc.th3_0**4)


class TestCheckResult:
    def test_registry_enforced(self):
        with pytest.raises(ValueError):
            CheckResult(name="no-such-check", params={}, residual=0.0,
                        tolerance=1.0, passed=True)

    def test_pass_flag_consistency(self):
        with pytest.raises(ValueError):
            CheckResult(name="full-tpr", params={}, residual=2.0,
                        tolerance=1.0, passed=True)

    def test_errored_cannot_pass(self):
        with pytest.raises(ValueError):
            CheckResult(name="full-tpr", params={}, residual=None,
                        tolerance=1.0, passed=True, error="boom")

    def test_registry_descriptions_nonempty(self):
        for name, (category, statement) in CHECK_REGISTRY.items():
            assert name and statement and category in PROFILES["default"]

    def test_readme_table_lists_the_registry_in_order(self):
        # every row of the table counts, so an unquoted name shows too
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("## Check registry", 1)[1]
        rows = [line for line in section.split("\n## ", 1)[0].splitlines()
                if line.startswith("|")]
        assert rows[:2] == [
            "| check name | tolerance (default / loose) | identity tested |",
            "| --- | --- | --- |"]
        cells = [row.split(" | ", 2)[:2] for row in rows[2:]]
        assert ([name.removeprefix("| ").strip("`") for name, _ in cells]
                == list(CHECK_REGISTRY))
        for (_, tolerances), (category, _) in zip(cells,
                                                  CHECK_REGISTRY.values()):
            assert [float(t) for t in tolerances.split(" / ")] == [
                PROFILES["default"][category], PROFILES["loose"][category]]


class TestWorst:
    @pytest.mark.parametrize("position", range(3))
    def test_nan_in_any_position(self, position):
        residuals = [1e-16, 3e-16, 2e-16]
        residuals[position] = math.nan
        assert math.isnan(verify._worst(*residuals))

    def test_largest_residual(self):
        assert verify._worst(1e-16, 3e-16, 2e-16) == 3e-16
        assert verify._worst(0.0, math.inf) == math.inf


# the tolerance of every check under the default and loose profiles
TOLERANCE_TABLE = {
    "full-tpr": (1e-8, 1e-6),
    "block-tpr-minus": (1e-8, 1e-6),
    "block-tpr-plus": (1e-8, 1e-6),
    "orthogonality": (1e-12, 1e-10),
    "entry22-theta": (1e-9, 1e-7),
    "entry22-2f1": (1e-9, 1e-7),
    "entry22-cross": (1e-9, 1e-7),
    "whipple-cancellation": (1e-10, 1e-8),
    "theta1-log-derivative": (1e-10, 1e-8),
    "theta2-ratio-g2": (1e-10, 1e-8),
    "theta3-ratio-g2": (1e-10, 1e-8),
    "theta4-ratio-g2": (1e-10, 1e-8),
    "lambda-quartic-cs": (1e-10, 1e-8),
    "lambda-quartic-ds": (1e-10, 1e-8),
    "lambda-quartic-ns": (1e-10, 1e-8),
    "g2-combination-cs": (1e-10, 1e-8),
    "g2-combination-ds": (1e-10, 1e-8),
    "g2-combination-ns": (1e-10, 1e-8),
    "laurent-coeff-cs": (1e-10, 1e-8),
    "laurent-coeff-ds": (1e-10, 1e-8),
    "laurent-coeff-ns": (1e-10, 1e-8),
    "phi2-laurent": (1e-10, 1e-8),
    "entry22-g2-form": (1e-10, 1e-8),
}


class TestTolerances:
    @pytest.mark.parametrize("spec", ["default", "loose", 1e-9])
    def test_every_check_keeps_its_tolerance(self, spec):
        # each row's category picks its tolerance: in the public calls and
        # in the sweep, which passes the spec on to them
        expected = {name: {"default": default, "loose": loose}.get(spec, spec)
                    for name, (default, loose) in TOLERANCE_TABLE.items()}
        a, b, c = P_REF.alpha - 0.5, P_REF.beta + 0.5, P_REF.gamma
        public = [*verify_tpr(P_REF, TAU_I, spec),
                  *verify_entry22(a, b, c, TAU_I, spec),
                  verify_whipple(a, b, c, spec),
                  *verify_series_identities(TAU_I, spec)]
        assert [(r.name, r.tolerance) for r in public] == list(
            expected.items())
        for seed in range(3):
            sweep = run_sweep(seed, 4, spec).checks
            assert len(sweep) == 4 * len(TOLERANCE_TABLE)
            for r in sweep:
                assert r.tolerance == expected[r.name]

    def test_profiles(self):
        assert resolve_tolerances("default") is PROFILES["default"]
        assert resolve_tolerances("loose")["matrix"] == 1e-6

    def test_numeric_override(self):
        tols = resolve_tolerances("1e-6")
        assert tols["matrix"] == tols["series"] == tols["entry22"] == 1e-6
        assert resolve_tolerances(1e-5)["whipple"] == 1e-5

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            resolve_tolerances("nonsense")
        with pytest.raises(ValueError):
            resolve_tolerances(-1.0)

    @pytest.mark.parametrize("spec", [None, [1], {}, True, np.True_,
                                      dict(PROFILES["default"])])
    def test_unreadable_spec_rejected(self, spec):
        # a spec float() cannot read is a ValueError, whatever its type;
        # float(True) is 1.0, a tolerance that passes almost anything; a
        # category map is no spec either: a profile is named, not built
        with pytest.raises(ValueError, match="unknown tolerance profile"):
            resolve_tolerances(spec)
        with pytest.raises(ValueError, match="unknown tolerance profile"):
            verify_tpr(P_REF, TAU_I, spec)

    @pytest.mark.parametrize("spec", [math.inf, math.nan, "inf", "1e400",
                                      "nan"])
    def test_non_finite_tolerance_rejected(self, spec):
        # a tolerance of inf would pass every check with a finite residual
        with pytest.raises(ValueError, match="finite and positive"):
            resolve_tolerances(spec)


class TestFullTpr:
    def test_reference_point(self):
        result = verify_tpr(P_REF, TAU_I)[0]
        assert result.name == "full-tpr"
        assert result.passed and result.residual <= 1e-8

    def test_complex_tau(self):
        result = verify_tpr(P_REF, TauPoint(0.3 + 1.2j))[0]
        assert result.passed and result.residual <= 1e-8

    def test_tau_inside_a_disc_errors_all_three(self):
        # there the closed-form sigma_1 is off by 39% while the full
        # relation would still read 3.3e-15
        for r in verify_tpr(P_REF, TauPoint(-0.4 + 0.2j))[:3]:
            assert not r.passed and "inside a disc" in r.error

    def test_overflowing_norm_is_an_errored_check(self):
        # the norms overflow inside the check, which errors; no
        # RuntimeWarning escapes, and both block relations pass
        full, minus, plus, _ = verify_tpr(P_OVERFLOW, TauPoint(TAU_OVERFLOW))
        assert full.error == "non-finite residual inf"
        assert minus.passed and plus.passed

    def test_inadmissible_recorded_not_raised(self):
        result = verify_tpr(HgParams(0.30, 0.21, 1.0), TAU_I)[0]
        assert result.error is not None and not result.passed
        assert "c0 integral" in result.error

    def test_conditioning_recorded_per_check(self, monkeypatch):
        # the LU solve of H and the diagonal solves of H' share one limit
        monkeypatch.setattr(matrices, "COND_LIMIT", 1.0)
        *relations, orthogonality = verify_tpr(P_REF, TAU_I)
        for r in relations:
            assert not r.passed and "condition estimate" in r.error
            assert "exceeds limit 1e+00" in r.error
        assert orthogonality.passed  # it solves nothing

    def test_failed_h_errors_only_the_checks_that_read_it(self, monkeypatch):
        # each check errors with the first build it reads that fails: H is
        # read by full-tpr and orthogonality, never by the block relations
        error = matrices.AdmissibilityError(["no H"])

        def failing(p):
            raise error

        monkeypatch.setattr(verify, "homology_H", failing)
        full, minus, plus, orthogonality = verify_tpr(P_REF, TAU_I)
        assert full.error == orthogonality.error == str(error)
        assert minus.passed and plus.passed
        errored = [(c.name, c.error) for c in run_sweep(seed=3, count=1).checks
                   if not c.passed]
        assert errored == [("full-tpr", str(error)),
                           ("orthogonality", str(error))]

    def test_one_homology_h_per_call(self, monkeypatch):
        # full-tpr and orthogonality read one H
        calls = Counter()
        original = verify.homology_H

        def counting(p):
            calls[p] += 1
            return original(p)

        monkeypatch.setattr(verify, "homology_H", counting)
        assert all(r.passed for r in verify_tpr(P_REF, TAU_I))
        assert calls == {P_REF: 1}

    def test_one_build_per_draw(self, monkeypatch):
        # full and block relations share one C, one P+ and one P-: the
        # sweep's one period batch builds P+ at p and P- at -p once each
        calls, built = Counter(), Counter()
        for name in ("cohomology_C", "period_matrices"):
            original = getattr(verify, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                if name == "period_matrices":
                    built.update(args[0])
                return original(*args)

            monkeypatch.setattr(verify, name, counting)
        report = run_sweep(seed=3, count=2)
        assert report.summary["pass"] == len(report.checks)
        assert calls == {"cohomology_C": 2, "period_matrices": 1}
        rng = np.random.default_rng(3)
        draws = [(sample_admissible(rng), TauPoint(t)) for t in SWEEP_TAUS[:2]]
        assert built == {(q, tau): 1 for p, tau in draws
                         for q in (p, p.negated())}


class TestBlockTpr:
    def test_both_blocks_pass(self):
        minus, plus = verify_tpr(P_REF, TAU_I)[1:3]
        assert minus.name == "block-tpr-minus" and minus.passed
        assert plus.name == "block-tpr-plus" and plus.passed

    def test_inadmissible_errors_both_blocks(self):
        results = verify_tpr(HgParams(0.30, 0.21, 1.0), TAU_I)[1:3]
        assert [r.name for r in results] == ["block-tpr-minus",
                                             "block-tpr-plus"]
        for r in results:
            assert not r.passed and "c0 integral" in r.error

    def test_failed_blocks_spare_full_tpr(self, monkeypatch):
        def failing(p):
            raise matrices.ConditioningError("no H'")

        monkeypatch.setattr(verify, "block_H_prime", failing)
        full, minus, plus, _ = verify_tpr(P_REF, TAU_I)
        assert full.passed
        assert minus.error == plus.error == "no H'"

    def test_blocks_built_once_for_both_signs(self, monkeypatch):
        calls = Counter()
        original = verify.block_periods

        def counting(m):
            calls["block_periods"] += 1
            return original(m)

        monkeypatch.setattr(verify, "block_periods", counting)
        assert all(r.passed for r in verify_tpr(P_REF, TAU_I))
        assert calls["block_periods"] == 2

    @pytest.mark.parametrize("tau_val", [0.1 + 10j, 0.1 + 50j])
    def test_blocks_pass_where_full_tpr_stops(self, tau_val):
        # full-tpr fails most of these draws above Im tau = 3; the block
        # relations stay a certificate up to the Im ceiling
        rng = np.random.default_rng(0)
        tau = TauPoint(tau_val)
        for _ in range(40):
            minus, plus = verify_tpr(sample_admissible(rng), tau)[1:3]
            assert minus.passed and plus.passed

    @pytest.mark.parametrize("tau_val", [*SWEEP_TAUS, 0.1 + 10j])
    def test_simple_form_matches_the_lu_route(self, tau_val):
        # C(+-1) = P'+ . diag(1/d) . P'-^T against an LU solve with H'^T
        rng = np.random.default_rng(61)
        tau = TauPoint(tau_val)
        for _ in range(20):
            p = sample_admissible(rng)
            c = matrices.cohomology_C(p, theta_constants(tau))
            blocks = (matrices.block_C(c),
                      *(verify.block_periods(periods.period_matrix(q, tau))
                        for q in (p, p.negated())),
                      matrices.block_H_prime(p))
            results = verify_tpr(p, tau)[1:3]
            for sign, result in zip((-1, 1), results):
                c_b, pp_b, pm_b, h_b = (b[sign] for b in blocks)
                lu = (np.linalg.norm(
                    c_b - pp_b @ matrices.guarded_solve(h_b.T, pm_b.T))
                    / np.linalg.norm(c_b))
                assert abs(result.residual - lu) <= 1e-13

    def test_orthogonality(self):
        result = verify_tpr(P_REF, TAU_I)[3]
        assert result.name == "orthogonality"
        assert result.passed and result.residual <= 1e-12

    def test_orthogonality_is_relative_to_the_product_scale(self):
        # the benchmark's sweep seed 6, unit 206 (run_sweep(1053948815, 4)):
        # H's entries are large near the sampler margin, and the absolute
        # max |B(e) H B(-e)^T| read 1.74e-12, a FAIL of a true identity
        p = HgParams(-1.9984996790080625, 1.8238264237732533,
                     1.510139500042322)
        result = verify_tpr(p, TAU_I)[3]
        assert result.passed and result.residual <= 1e-14

    def test_orthogonality_fails_a_wrong_basis_change(self, monkeypatch):
        original = verify.basis_change

        def mutated(p):
            pair = original(p)
            pair[1][1, 2] = -pair[1][1, 2]
            return pair

        monkeypatch.setattr(verify, "basis_change", mutated)
        result = verify_tpr(P_REF, TAU_I)[3]
        assert not result.passed and result.residual > 1e-2


class TestEachDraw:
    def test_one_stacked_pass_when_it_succeeds(self):
        calls = []

        def step(ks):
            calls.append(ks)
            return [10 * k for k in ks]

        assert each_draw(step, 3) == [0, 10, 20]
        assert calls == [range(3)]

    def test_a_failed_stack_is_redone_draw_by_draw(self):
        calls = []

        def step(ks):
            calls.append(ks)
            if 1 in ks:
                raise PeriodError(f"draw 1 of {ks}")
            return [10 * k for k in ks]

        out = each_draw(step, 3)
        assert out[0] == 0 and out[2] == 20
        assert isinstance(out[1], PeriodError)
        assert str(out[1]) == "draw 1 of range(1, 2)"
        assert calls == [range(3), range(0, 1), range(1, 2), range(2, 3)]

    def test_an_untyped_error_is_raised(self):
        def step(ks):
            raise ZeroDivisionError("not a draw's failure")

        with pytest.raises(ZeroDivisionError):
            each_draw(step, 2)


class TestTprBatch:
    """A failure planted in one draw of a batch errors only that draw's
    checks, with the rows of its batch of one; the other draws keep their
    bits."""

    TAU = TauPoint(SWEEP_TAUS[0])

    @staticmethod
    def _draws(planted):
        rng = np.random.default_rng(11)
        draws = [(sample_admissible(rng), TauPoint(t)) for t in SWEEP_TAUS]
        return draws[:2] + [planted] + draws[2:]

    def _assert_isolated(self, planted, errored):
        draws = self._draws(planted)
        batch = verify._verify_tpr_batch(draws, "default")
        for draw, rows in zip(draws, batch):
            assert _report_json(rows) == _report_json(verify_tpr(*draw))
        for k, rows in enumerate(batch):
            assert [r.name for r in rows if r.error is not None] == (
                errored if k == 2 else [])

    @pytest.mark.parametrize("planted, errored", [
        # inadmissible: every build that tests p errors
        ((HgParams(0.30, 0.21, 1.0), TAU), ["full-tpr", "block-tpr-minus",
                                            "block-tpr-plus",
                                            "orthogonality"]),
        # inside a disc: the periods fail, orthogonality reads no tau
        ((P_REF, TauPoint(-0.4 + 0.2j)), ["full-tpr", "block-tpr-minus",
                                          "block-tpr-plus"]),
        # a Gamma overflow and a cancelled 2F1 sum in the period rows
        ((HgParams(171.3, 0.21, 0.77), TAU), ["full-tpr", "block-tpr-minus",
                                              "block-tpr-plus"]),
        ((HgParams(100.3, 0.21, 0.77), TAU), ["full-tpr", "block-tpr-minus",
                                              "block-tpr-plus"]),
        # a period row whose product overflows, unwarned: a non-finite
        # residual of each relation
        ((HgParams(-23.54164982876806, 1.838286094122921,
                   -51.789906944497545),
          TauPoint(0.08798536921073874 + 9.528187062803596j)),
         ["full-tpr", "block-tpr-minus", "block-tpr-plus"]),
    ], ids=["inadmissible", "disc", "gamma", "2f1", "overflow"])
    def test_failed_build(self, planted, errored):
        self._assert_isolated(planted, errored)

    def test_conditioning(self, monkeypatch):
        # near alpha = 1/2, cond(H) = 8.9e5 and cond(H'(-1)) = 7.1e4; the
        # other draws stay far below the lowered limit
        monkeypatch.setattr(matrices, "COND_LIMIT", 1e4)
        self._assert_isolated((HgParams(0.5 + 1e-6, 0.21, 0.77), self.TAU),
                              ["full-tpr", "block-tpr-minus"])

    def test_a_redone_draw_builds_its_pieces_once(self, monkeypatch):
        # full-tpr and block-tpr-minus of the conditioning batch are redone
        # draw by draw, from each draw's C, H, H' and basis changes of the
        # batch's one build and P+ and P- of its one period call
        monkeypatch.setattr(matrices, "COND_LIMIT", 1e4)
        calls = Counter()
        for name in ("cohomology_C", "homology_H", "block_H_prime",
                     "basis_change", "period_matrices"):
            original = getattr(verify, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(verify, name, counting)
        draws = self._draws((HgParams(0.5 + 1e-6, 0.21, 0.77), self.TAU))
        batch = verify._verify_tpr_batch(draws, "default")
        assert calls == {"cohomology_C": 5, "homology_H": 5,
                         "block_H_prime": 5, "basis_change": 10,
                         "period_matrices": 1}
        for draw, rows in zip(draws, batch):
            assert _report_json(rows) == _report_json(verify_tpr(*draw))

    def test_singular_h(self, monkeypatch):
        # a singular H is rejected before any LU solve: np.linalg.solve
        # would raise for the whole stack
        singular = HgParams(0.31, 0.22, 0.78)
        original = verify.homology_H
        monkeypatch.setattr(verify, "homology_H", lambda p: (
            np.zeros((4, 4), complex) if p == singular else original(p)))
        self._assert_isolated((singular, self.TAU),
                              ["full-tpr", "orthogonality"])
        full = verify_tpr(singular, self.TAU)[0]
        assert full.error.startswith("condition estimate inf")

    def test_nan_h(self, monkeypatch):
        # a nan in H is a ConditioningError of its own draw's full-tpr, and
        # a non-finite residual of its orthogonality
        planted = HgParams(0.31, 0.22, 0.78)
        original = verify.homology_H
        monkeypatch.setattr(verify, "homology_H", lambda p: (
            np.full((4, 4), np.nan, complex) if p == planted
            else original(p)))
        self._assert_isolated((planted, self.TAU),
                              ["full-tpr", "orthogonality"])
        full, *_, orthogonality = verify_tpr(planted, self.TAU)
        assert full.error.startswith("condition estimate nan")
        assert orthogonality.error == "non-finite residual nan"

    def test_two_failures_of_different_kinds(self, monkeypatch):
        # a tau inside a disc in draw 1 and an H near alpha = 1/2, past a
        # lowered COND_LIMIT, in draw 4: each errors only its own checks
        monkeypatch.setattr(matrices, "COND_LIMIT", 1e4)
        rng = np.random.default_rng(11)
        draws = [(sample_admissible(rng), TauPoint(t)) for t in SWEEP_TAUS]
        draws.insert(1, (P_REF, TauPoint(-0.4 + 0.2j)))
        draws.insert(4, (HgParams(0.5 + 1e-6, 0.21, 0.77), self.TAU))
        batch = verify._verify_tpr_batch(draws, "default")
        for draw, rows in zip(draws, batch):
            assert _report_json(rows) == _report_json(verify_tpr(*draw))
        errored = [[r.error for r in rows if r.error is not None]
                   for rows in batch]
        assert [len(e) for e in errored] == [0, 3, 0, 0, 2, 0]
        assert all("inside a disc" in e for e in errored[1])
        assert all("exceeds limit 1e+04" in e for e in errored[4])

    def test_a_clean_sweep_takes_the_stacked_path(self, monkeypatch):
        # one 2F1 table of the 8 draws' 128 period series and one stacked
        # LU solve of their H^T: no draw is redone alone
        calls = []
        for module, name in ((periods, "gauss_2f1"),
                             (verify, "guarded_solve")):
            original = getattr(module, name)

            def counting(*args, name=name, original=original):
                calls.append((name, np.shape(args[0])))
                return original(*args)

            monkeypatch.setattr(module, name, counting)
        report = run_sweep(seed=3, count=8)
        assert report.summary["errored"] == 0
        assert calls == [("gauss_2f1", (16, 4, 2)),
                         ("guarded_solve", (8, 4, 4))]

    def test_each_draw_has_its_own_whipple_table(self, monkeypatch):
        # product_coeffs takes one draw's floats, once per draw
        calls = []
        original = verify.product_coeffs
        monkeypatch.setattr(verify, "product_coeffs", lambda *args: (
            calls.append(tuple(map(type, args))), original(*args))[1])
        report = run_sweep(seed=3, count=8)
        assert report.summary["errored"] == 0
        assert calls == [(int, float, float, float)] * 8


class TestEntry22:
    def test_reference_triple(self):
        for tau in (TAU_I, TauPoint(2j)):
            results = verify_entry22(0.2, 0.3, 0.6, tau)
            assert [r.name for r in results] == [
                "entry22-theta", "entry22-2f1", "entry22-cross"]
            for r in results:
                assert r.passed and r.residual <= 1e-9

    def test_inadmissible_recorded(self):
        results = verify_entry22(0.2, 0.3, 1.0, TAU_I)
        assert all(r.error is not None for r in results)
        assert {r.error for r in results} == {
            "inadmissible parameters: c0 integral (c0 = 1.0)"}

    def test_admissibility_checked_once_per_call(self, monkeypatch):
        calls = Counter()
        original = verify.require_admissible

        def counting(p):
            calls["require"] += 1
            return original(p)

        monkeypatch.setattr(verify, "require_admissible", counting)
        assert all(r.passed for r in verify_entry22(0.2, 0.3, 0.6, TAU_I))
        assert calls["require"] == 1

    def test_each_form_evaluated_once(self, monkeypatch):
        calls = Counter()
        original = verify.gauss_2f1

        def counting(*args):
            calls["2f1"] += 1
            return original(*args)

        monkeypatch.setattr(verify, "gauss_2f1", counting)
        results = verify_entry22(0.2, 0.3, 0.6, TAU_I)
        assert all(r.passed for r in results)
        assert calls["2f1"] == 4

    def test_2f1_failure_spares_the_theta_check(self, monkeypatch):
        def failing(*args):
            raise HypergeomError("no convergence")

        monkeypatch.setattr(verify, "gauss_2f1", failing)
        theta, f21, cross = verify_entry22(0.2, 0.3, 0.6, TAU_I)
        assert theta.passed
        assert f21.error == cross.error == "no convergence"

    @pytest.mark.parametrize("tau_val", [*SWEEP_TAUS, 0.1j, 0.25 + 0.15j,
                                         -0.4 + 0.7j, 0.3 + 50j])
    def test_theta_form_matches_written_out_coefficients(self, tau_val):
        tau = TauPoint(tau_val)
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = sample_admissible(rng)
            a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
            old = _written_out_entry22_theta_form(a, b, c, tau)
            new = verify._entry22_theta_form(
                HgParams(a + 0.5, b - 0.5, c), theta_constants(tau))
            assert abs(new - old) <= 1e-14 * max(1.0, abs(old))

    @pytest.mark.parametrize("tau_val", [0.1j, 0.3j, 0.25 + 0.15j, 0.5 + 0.3j])
    def test_theta_form_past_the_2f1_radius(self, tau_val):
        tau = TauPoint(tau_val)
        assert abs(lambda_tau(tau)) > 0.95
        theta, f21, cross = verify_entry22(0.2, 0.3, 0.6, tau)
        assert theta.passed and theta.residual <= 1e-13
        assert f21.error == cross.error
        assert "exceeds the series radius guard" in f21.error


class TestWhipple:
    def test_random_triples(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            a, b = rng.uniform(0.1, 0.9, 2)
            c = rng.uniform(1.1, 1.9)
            result = verify_whipple(a, b, c)
            assert result.passed
            assert result.params["n_max"] == 12

    @pytest.mark.parametrize("a, b, c", [
        (1.0 + 1.5e-9, 0.3, 0.6), (2.0, 0.3, 0.6), (-1.0, 0.3, 0.6),
        (0.3, 2.0, 0.6), (0.2, 3.0 + 1e-8, 0.6)])
    def test_near_and_at_an_integer_a_or_b(self, a, b, c):
        # the identity holds there, and its coefficients have no pole
        result = verify_whipple(a, b, c)
        assert result.passed and result.error is None

    def test_pole_recorded(self):
        result = verify_whipple(0.3, 0.2, 1.0)
        assert result.error is not None

    @pytest.mark.parametrize("a, b, c", [
        (math.nan, 0.2, 0.6), (math.inf, 0.2, 0.6), (0.3, math.nan, 0.6),
        (0.3, -math.inf, 0.6)])
    def test_non_finite_input_is_an_errored_check(self, a, b, c):
        result = verify_whipple(a, b, c)
        assert not result.passed and result.residual is None
        assert "non-finite" in result.error


class TestSeriesIdentities:
    @pytest.mark.parametrize("tau_val", [1j, 0.4 + 1.1j])
    def test_all_pass(self, tau_val):
        results = verify_series_identities(TauPoint(tau_val))
        assert len(results) == 15
        for r in results:
            assert r.passed, f"{r.name}: residual {r.residual}"

    def test_phi2_leading_coefficient(self):
        results = {r.name: r for r in verify_series_identities(TAU_I)}
        assert results["phi2-laurent"].residual <= 1e-11

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_residual_errors_only_its_check(self, monkeypatch,
                                                       value):
        clean = verify_series_identities(TAU_I)
        residuals = list(verify._series_residuals(TAU_I))
        residuals[6] = value
        monkeypatch.setattr(verify, "_series_residuals",
                            lambda tau: tuple(residuals))
        results = verify_series_identities(TAU_I)
        bad = results.pop(6)
        assert bad.name == clean[6].name
        assert bad.residual is None and not bad.passed
        assert bad.error == f"non-finite residual {value}"
        assert results == clean[:6] + clean[7:]


def _clear_kernel_caches():
    for cache in (series.theta_constants, verify._series_residuals):
        cache.cache_clear()


class TestSeriesIdentityCache:
    """The suite's residuals are computed once per tau and process; every
    call builds its own results with its own tolerance and params."""

    def test_second_call_builds_no_series(self, monkeypatch):
        _clear_kernel_caches()
        built = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                built[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(series, "_theta_terms",
                            counting("theta", series._theta_terms))
        for module in (series, verify):
            monkeypatch.setattr(module, "q_terms",
                                counting("lambert", module.q_terms))
        first = verify_series_identities(TauPoint(0.3 + 1.2j))
        assert built["theta"] == 4 and built["lambert"] > 0
        built.clear()
        second = verify_series_identities(TauPoint(0.3 + 1.2j))
        assert built == {}
        assert second == first

    @pytest.mark.parametrize("tol", ["default", "loose", 1e-13])
    def test_cached_results_equal_a_cold_computation(self, tol):
        tau = TauPoint(0.4 + 1.1j)
        _clear_kernel_caches()
        cold = verify_series_identities(tau, tol)
        for warm_tol in ("default", "loose", 1e-13):
            verify_series_identities(tau, warm_tol)
        hits = verify._series_residuals.cache_info().hits
        warm = verify_series_identities(TauPoint(0.4 + 1.1j), tol)
        assert verify._series_residuals.cache_info().hits == hits + 1
        assert warm == cold
        assert _report_json(warm) == _report_json(cold)

    @pytest.mark.parametrize("im", [0.1, 0.15, 1.0, 7.3, 50.0])
    def test_signed_zero_real_part(self, im):
        def residual_bytes(results):
            return np.array([r.residual for r in results]).tobytes()

        def suite(re):
            return verify_series_identities(TauPoint(complex(re, im)))

        _clear_kernel_caches()
        plus = suite(0.0)
        _clear_kernel_caches()
        minus = suite(-0.0)
        assert residual_bytes(plus) == residual_bytes(minus)
        # warm: each sign reads the entry the other filled, and echoes its
        # own sign
        warm_plus = suite(0.0)
        _clear_kernel_caches()
        suite(0.0)
        warm_minus = suite(-0.0)
        for results, sign in ((plus, 1.0), (minus, -1.0), (warm_plus, 1.0),
                              (warm_minus, -1.0)):
            for r in results:
                assert math.copysign(1.0, r.params["tau_re"]) == sign
        assert _report_json(warm_plus) == _report_json(plus)
        assert _report_json(warm_minus) == _report_json(minus)

    def test_sweep_json_cold_and_warm(self):
        for seed in range(10):
            _clear_kernel_caches()
            cold = run_sweep(seed, 8).to_json()
            assert run_sweep(seed, 8).to_json() == cold


GRID_DRAWS = [tuple(map(float, draw)) for draw in
              np.random.default_rng(0).uniform(-3.0, 3.0, size=(20, 3))]


@pytest.mark.parametrize("tau_re", [-0.9, 0.0, 0.45, 0.9])
@pytest.mark.parametrize("tau_im", [0.1, 1.0, 10.0, 46.5, 50.0])
def test_verifiers_return_results_without_warnings(tau_re, tau_im):
    # any input, admissible or not, gives CheckResults; the pytest filter
    # turns an escaping RuntimeWarning into a failure
    tau = TauPoint(complex(tau_re, tau_im))
    results = verify_series_identities(tau)
    for alpha, beta, gamma in GRID_DRAWS:
        p = HgParams(alpha, beta, gamma)
        results += [*verify_tpr(p, tau),
                    *verify_entry22(alpha, beta, gamma, tau),
                    verify_whipple(alpha, beta, gamma)]
    assert all(isinstance(r, CheckResult) for r in results)


def _assert_matches_fixture(report, fixture):
    # residuals to 1e-3 of their tolerance, so that another BLAS build
    # passes too; everything else exactly.  orthogonality's residual was
    # redefined relative to |B(e)| |H| |B(-e)| after the fixtures were
    # written, so its rows are held to 1e-14 instead
    assert report.seed == fixture.seed
    assert report.summary == fixture.summary
    assert len(report.checks) == len(fixture.checks)
    for now, then in zip(report.checks, fixture.checks):
        assert (now.name, now.params, now.tolerance, now.passed,
                now.error) == (then.name, then.params, then.tolerance,
                               then.passed, then.error)
        if then.residual is None:
            assert now.residual is None
        elif now.name == "orthogonality":
            assert now.residual <= 1e-14
        else:
            assert abs(now.residual - then.residual) <= 1e-3 * then.tolerance


class TestReportV1:
    def test_fixture_round_trips_byte_for_byte(self):
        # v1 loads, and its v2 re-encoding round-trips byte for byte
        text = REPORT_V1.read_text()
        assert '"schema"' not in text
        v2 = VerificationReport.from_json(text).to_json()
        assert json.loads(v2)["schema"] == 2
        assert VerificationReport.from_json(v2).to_json() == v2

    def test_indented_fixture_loads_equal(self):
        text = REPORT_V1.read_text()
        indented = json.dumps(json.loads(text), sort_keys=True, indent=2)
        assert (VerificationReport.from_json(indented)
                == VerificationReport.from_json(text))

    def test_current_sweep_matches_the_fixture(self):
        fixture = VerificationReport.from_json(REPORT_V1.read_text())
        _assert_matches_fixture(run_sweep(0, 4), fixture)


class TestReportV2:
    def test_fixture_round_trips_byte_for_byte(self):
        text = REPORT_V2.read_text()
        assert VerificationReport.from_json(text).to_json() == text

    def test_fixture_equals_the_v1_fixture(self):
        assert (VerificationReport.from_json(REPORT_V2.read_text())
                == VerificationReport.from_json(REPORT_V1.read_text()))

    def test_current_sweep_matches_the_fixture(self):
        fixture = VerificationReport.from_json(REPORT_V2.read_text())
        _assert_matches_fixture(run_sweep(0, 4), fixture)

    def test_each_params_set_written_once(self):
        # 4 draws, each with one params dict per verify_* call
        d = json.loads(REPORT_V2.read_text())
        assert (len(d["params"]), len(d["checks"])) == (20, 92)
        assert len(REPORT_V2.read_bytes()) < len(REPORT_V1.read_bytes()) / 2


def _report_text(**changes) -> str:
    """A valid two-check v2 report with some top-level keys replaced."""
    report = VerificationReport("0", 0, [
        CheckResult("full-tpr", {"alpha": 0.3}, 1e-15, 1e-8, True),
        CheckResult("orthogonality", {"alpha": -0.0}, None, 1e-12, False,
                    "boom")])
    return json.dumps({**json.loads(report.to_json()), **changes})


class TestReportErrors:
    """A malformed report raises ValueError naming the problem, never a
    bare KeyError or IndexError."""

    def test_valid_base_report_loads(self):
        assert len(VerificationReport.from_json(_report_text()).checks) == 2

    @pytest.mark.parametrize("schema", [0, 3, "2", None])
    def test_unknown_schema(self, schema):
        with pytest.raises(ValueError, match="unknown report schema"):
            VerificationReport.from_json(_report_text(schema=schema))

    @pytest.mark.parametrize("row", [
        ["full-tpr", 0, 1e-15, 1e-8, True],
        ["full-tpr", 0, 1e-15, 1e-8, True, None, "extra"], []])
    def test_row_length_differs_from_columns(self, row):
        with pytest.raises(ValueError, match="does not fit columns"):
            VerificationReport.from_json(_report_text(checks=[row]))

    @pytest.mark.parametrize("index", [2, 99, -1, 1.0, True, None])
    def test_params_index_out_of_range(self, index):
        row = ["full-tpr", index, 1e-15, 1e-8, True, None]
        with pytest.raises(ValueError, match="params index"):
            VerificationReport.from_json(_report_text(checks=[row]))

    def test_unknown_columns(self):
        columns = [*REPORT_COLUMNS[:-1], "verdict"]
        with pytest.raises(ValueError, match="unknown report columns"):
            VerificationReport.from_json(_report_text(columns=columns))

    @pytest.mark.parametrize("text", [
        '{"schema": 2}', '{"checks": [{"name": "full-tpr"}]}', "[]",
        '{"schema": 2, "columns": ["name", "params", "residual", '
        '"tolerance", "pass", "error"], "params": [], "checks": 5}'])
    def test_missing_or_mistyped_keys(self, text):
        with pytest.raises(ValueError, match="malformed report"):
            VerificationReport.from_json(text)

    @pytest.mark.parametrize("row", [
        ["full-tpr", 0, math.nan, 1e-8, False, None],
        ["full-tpr", 0, 1e-15, 1e-8, 1, None],
        ["full-tpr", 0, True, 1e-8, False, None],
        ["full-tpr", 0, None, 1e-8, False, 5]],
        ids=["nan-residual", "int-pass", "bool-residual", "int-error"])
    def test_row_breaking_a_check_invariant(self, row):
        # each row breaks an invariant every check keeps: a bool pass flag,
        # an error text or None, and without an error a finite residual
        with pytest.raises(ValueError, match="is not a"):
            VerificationReport.from_json(_report_text(checks=[row]))

    @pytest.mark.parametrize("tolerance", ["x", None, True, -1, 0, math.nan],
                             ids=["str", "null", "bool", "negative", "zero",
                                  "nan-token"])
    @pytest.mark.parametrize("residual, error", [(0.5, None), (None, "boom")],
                             ids=["computed", "errored"])
    def test_row_with_a_bad_tolerance(self, tolerance, residual, error):
        # a tolerance is a finite positive real, errored row or not; NaN
        # reaches from_json as the bare NaN token json.dumps writes for it
        row = ["full-tpr", 0, residual, tolerance, False, error]
        text = _report_text(checks=[row])
        assert ("NaN" in text) == (tolerance is math.nan)
        with pytest.raises(ValueError, match="tolerance .* is not a finite"):
            VerificationReport.from_json(text)

    @pytest.mark.parametrize("changes, message", [
        ({"params": [5, {"alpha": -0.0}]}, "params 5 is not a dict"),
        ({"seed": "abc"}, "seed 'abc' is not of type int"),
        ({"seed": True}, "seed True is not of type int"),
        ({"tool_version": 7}, "tool_version 7 is not of type str")],
        ids=["int-params", "str-seed", "bool-seed", "int-tool-version"])
    def test_mistyped_field(self, changes, message):
        with pytest.raises(ValueError, match=message):
            VerificationReport.from_json(_report_text(**changes))

    @pytest.mark.parametrize("summary", [
        {"pass": 7, "fail": 3, "errored": 0},
        {"pass": 1, "fail": 1, "errored": 0}, None],
        ids=["inflated", "error-as-fail", "null"])
    def test_summary_that_disagrees_with_the_rows(self, summary):
        # the rows hold one pass and one errored check
        with pytest.raises(ValueError, match="summary .* disagrees"):
            VerificationReport.from_json(_report_text(summary=summary))

    def test_missing_summary(self):
        d = json.loads(_report_text())
        del d["summary"]
        with pytest.raises(ValueError, match="malformed report"):
            VerificationReport.from_json(json.dumps(d))

    def test_params_entry_that_no_row_indexes(self):
        table = [{"alpha": 0.3}, {"alpha": -0.0}, {"alpha": 5.0}]
        with pytest.raises(ValueError, match="params has an entry"):
            VerificationReport.from_json(_report_text(params=table))


_KEYS = st.sampled_from(["alpha", "tau_re", "n_max", "a", "x"])
_FINITE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1, 1.0, 0, True, None]), st.integers())
_ANY_VALUES = st.one_of(_FINITE_VALUES, st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf]))


@st.composite
def _reports(draw, values):
    """Reports over registered names whose checks share params dicts by
    identity, with an equal copy of the first dict as a separate object."""
    pool = draw(st.lists(st.dictionaries(_KEYS, values, max_size=4),
                         min_size=1, max_size=4))
    pool.append(dict(pool[0]))
    checks = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(sorted(CHECK_REGISTRY)))
        params = pool[draw(st.integers(0, len(pool) - 1))]
        tolerance = draw(st.sampled_from([1e-8, 1e-12, 0.5]))
        if draw(st.booleans()):
            residual = draw(st.floats(0.0, 1.0))
            checks.append(CheckResult(name, params, residual, tolerance,
                                      residual <= tolerance))
        else:
            checks.append(CheckResult(name, params, None, tolerance, False,
                                      draw(st.text(max_size=5))))
    return VerificationReport(draw(st.text(max_size=5)),
                              draw(st.integers()), checks)


def _leaves(report):
    # by key: sort_keys reorders each dict on the way out
    return [(k, c.params[k]) for c in report.checks for k in sorted(c.params)]


class TestReportCodecProperties:
    @settings(max_examples=150)
    @given(_reports(_FINITE_VALUES))
    def test_finite_params_round_trip(self, report):
        text = report.to_json()
        back = VerificationReport.from_json(text)
        assert back.to_json() == text
        assert back == report
        # == counts -0.0 == 0.0 and 1 == 1.0 == True; the parse must not
        for (key, now), (_, then) in zip(_leaves(back), _leaves(report)):
            assert type(now) is type(then), key
            if isinstance(then, float):
                assert math.copysign(1.0, now) == math.copysign(1.0, then)

    @settings(max_examples=100)
    @given(_reports(_ANY_VALUES))
    def test_non_finite_params_re_encode_byte_for_byte(self, report):
        # nan and inf are kept out of the equality above only because
        # nan != nan after a parse; they must still re-encode exactly
        text = report.to_json()
        assert VerificationReport.from_json(text).to_json() == text


def _ten_test_sample(rng: np.random.Generator) -> HgParams:
    """The sampler's earlier rule, the reference: p and -p, then both under
    every shift, ten admissibility tests of which two repeat (row 3's
    shift is zero)."""
    while True:
        alpha, beta, gamma = rng.uniform(-2.0, 2.0, size=3)
        p = HgParams(float(alpha), float(beta), float(gamma))
        variants = [p, p.negated()]
        variants += [p.shifted(*s) for s in SHIFT_RULES.values()]
        variants += [p.negated().shifted(*s) for s in SHIFT_RULES.values()]
        if all(matrices.admissible(v, verify.SAMPLER_MARGIN)[0]
               for v in variants):
            return p


class _CountingRng:
    """A generator that notes, at each draw, how many admissibility tests
    the sampler had made before it."""

    def __init__(self, seed, tests):
        self._rng, self._tests, self.marks = (
            np.random.default_rng(seed), tests, [])

    def uniform(self, *args, **kwargs):
        self.marks.append(len(self._tests))
        return self._rng.uniform(*args, **kwargs)


class TestSampleAdmissible:
    def test_eight_tests_of_the_sets_the_rows_evaluate(self, monkeypatch):
        tested = []
        monkeypatch.setattr(verify, "admissible", lambda p, guard: (
            tested.append((p, guard)) or (True, [])))
        p = sample_admissible(np.random.default_rng(0))
        expect = [(v.shifted(*s), verify.SAMPLER_MARGIN)
                  for v in (p, p.negated()) for s in SHIFT_RULES.values()]
        assert tested == expect
        assert len(set(tested)) == 8

    def test_at_most_eight_tests_per_candidate(self, monkeypatch):
        tested, rejected = [], []
        admissible = matrices.admissible
        monkeypatch.setattr(verify, "admissible", lambda p, guard: (
            tested.append(p) or admissible(p, guard)))
        for seed in range(200):
            tested.clear()
            rng = _CountingRng(seed, tested)
            sample_admissible(rng)
            counts = np.diff([*rng.marks, len(tested)])
            assert counts[-1] == 8
            rejected.extend(counts[:-1])
        # a rejected candidate stops at its first failed test
        assert rejected and max(rejected) <= 8

    def test_same_draws_as_the_ten_test_rule(self):
        for seed in range(2000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sample_admissible(rng) == _ten_test_sample(ref)
            # and both leave the stream at the same place
            assert rng.random() == ref.random()


class TestSweep:
    def test_deterministic(self):
        r1 = run_sweep(seed=42, count=3)
        r2 = run_sweep(seed=42, count=3)
        assert [c.residual for c in r1.checks] == [c.residual for c in r2.checks]
        assert [c.name for c in r1.checks] == [c.name for c in r2.checks]

    def test_all_pass_at_default_tolerances(self):
        report = run_sweep(seed=42, count=4)
        assert report.summary["fail"] == 0
        assert report.summary["errored"] == 0

    def test_one_tau_point_per_sweep_tau(self, monkeypatch):
        built = []
        original = TauPoint.__post_init__

        def counting(point):
            built.append(point.tau)
            original(point)

        monkeypatch.setattr(TauPoint, "__post_init__", counting)
        report = run_sweep(seed=5, count=10)
        # 8 checks per draw, and the 15-check suite once per sweep tau
        assert len(report.checks) == 10 * 8 + 4 * 15
        assert len(built) <= len(SWEEP_TAUS)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_sweep(seed=1, count=0)

    @pytest.mark.parametrize("count", [2.5, 1.0, True, False, "2", None])
    def test_count_that_is_not_an_integer(self, count):
        # True == 1, but a bool is no count
        with pytest.raises(ValueError, match="count must be an integer"):
            run_sweep(seed=1, count=count)

    def test_numpy_integer_count(self):
        assert (run_sweep(seed=1, count=np.int64(2)).to_json()
                == run_sweep(seed=1, count=2).to_json())

    def test_numpy_integer_seed(self):
        # the report stores an int, which its JSON can write
        assert (run_sweep(seed=np.int64(3), count=1).to_json()
                == run_sweep(seed=3, count=1).to_json())

    @pytest.mark.parametrize("seed", [True, 1.5])
    def test_seed_that_is_not_an_integer(self, seed):
        # a bool seed would write a report that from_json refuses
        with pytest.raises(ValueError, match="seed must be an integer"):
            run_sweep(seed=seed, count=1)

    def test_summary_matches_tallies(self):
        report = run_sweep(seed=7, count=2)
        s = report.summary
        assert s["pass"] + s["fail"] + s["errored"] == len(report.checks)

    def test_sampler_margin(self):
        rng = np.random.default_rng(3)
        from twistedperiods.matrices import admissible
        from twistedperiods.periods import SHIFT_RULES
        # frozen draw: the sampler's predicate and random stream are stable
        assert sample_admissible(np.random.default_rng(0)) == HgParams(
            0.5478467492858172, -0.9208531449445188, -1.8361059042552212)
        for _ in range(20):
            p = sample_admissible(rng)
            assert admissible(p)[0]
            for shift in SHIFT_RULES.values():
                assert admissible(p.shifted(*shift))[0]
                assert admissible(p.negated().shifted(*shift))[0]

    def test_json_round_trip_byte_identical(self):
        report = run_sweep(seed=42, count=2)
        text = report.to_json()
        assert VerificationReport.from_json(text).to_json() == text

    def test_indented_and_compact_reports_load_equal(self):
        # reports are one line; indented ones written before still load
        report = run_sweep(seed=42, count=2)
        compact = report.to_json()
        indented = json.dumps(json.loads(compact), sort_keys=True, indent=2)
        assert "\n" not in compact and "\n" in indented
        assert (VerificationReport.from_json(indented)
                == VerificationReport.from_json(compact) == report)

    def test_json_schema(self):
        report = run_sweep(seed=42, count=1)
        d = json.loads(report.to_json())
        assert set(d) == {"schema", "tool_version", "seed", "params",
                          "columns", "checks", "summary"}
        assert d["schema"] == 2
        assert d["columns"] == ["name", "params", "residual", "tolerance",
                                "pass", "error"]
        assert set(d["summary"]) == {"pass", "fail", "errored"}
        for row in d["checks"]:
            assert len(row) == len(d["columns"])
        # one params set per verify_* call of the draw, each written once
        assert len(d["params"]) == 5
        check = _json_checks(report.to_json())[0]
        assert {"alpha", "beta", "gamma", "tau_re", "tau_im"} <= set(
            check["params"])

    @pytest.mark.parametrize("seed, count", [
        *(pytest.param(seed, 8, id=str(seed)) for seed in range(10)),
        pytest.param(42, 100, id="42-100")])
    def test_equals_the_public_checks_in_order(self, seed, count):
        # one code path: the same names, params (signed zeros and int/float
        # included), verdicts, errors and residual bits as the public calls;
        # the sweep runs verify_tpr's checks as one batch of count draws,
        # and the suite, which reads tau alone, at each tau's first draw
        rng = np.random.default_rng(seed)
        taus = [TauPoint(t) for t in SWEEP_TAUS]
        checks = []
        for k in range(count):
            p = sample_admissible(rng)
            tau = taus[k % len(taus)]
            a, b, c = p.alpha - 0.5, p.beta + 0.5, p.gamma
            checks += [*verify_tpr(p, tau),
                       *verify_entry22(a, b, c, tau), verify_whipple(a, b, c)]
            if k < len(taus):
                checks += verify_series_identities(tau)
        assert (_report_json(run_sweep(seed, count).checks)
                == _report_json(checks))

    def test_one_homology_h_per_draw(self, monkeypatch):
        # full-tpr and orthogonality read the same H
        calls = Counter()
        original = verify.homology_H

        def counting(p):
            calls[p] += 1
            return original(p)

        monkeypatch.setattr(verify, "homology_H", counting)
        report = run_sweep(seed=3, count=3)
        assert report.summary["pass"] == len(report.checks)
        assert sorted(calls.values()) == [1, 1, 1]


class TestCli:
    def test_theta_command(self, capsys):
        assert main(["theta", "--u", "0.25", "--tau-im", "1"]) == 0
        out = capsys.readouterr().out
        assert "theta1" in out and "theta4" in out

    @pytest.mark.parametrize("u", ["1e10", "1e300"])
    def test_theta_command_at_large_integer_u(self, capsys, u):
        assert main(["theta", "--u", u, "--tau-im", "1"]) == 0
        out = capsys.readouterr().out
        assert "= +0.000000000000000e+00 +0.000000000000000e+00j" in out
        assert "theta3" in out and "+1.086434811213308e+00" in out

    def test_lambda_command(self, capsys):
        assert main(["lambda", "--tau-im", "1"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "e-01" in out

    def test_2f1_command(self, capsys):
        assert main(["2f1", "--alpha", "1", "--beta", "1", "--gamma", "2",
                     "--z", "0.5"]) == 0
        assert "1.386294361" in capsys.readouterr().out

    def test_2f1_command_cancelled_sum_exit_code(self, capsys):
        # 2F1(-100.3, -0.21; -0.77; 0.5) = 3.236 sums to noise in doubles
        assert main(["2f1", "--alpha", "-100.3", "--beta", "-0.21",
                     "--gamma", "-0.77", "--z", "0.5"]) == 2
        assert "error: 2F1 sum" in capsys.readouterr().err

    def test_tpr_full_cancelled_2f1_exit_code(self, capsys):
        # the periods sum a cancelled 2F1: an error, not a FAIL at 1e31
        assert main(["tpr", "full", "--alpha", "100.3", "--beta", "0.21",
                     "--gamma", "0.77"]) == 2
        assert "ERROR full-tpr: 2F1 sum" in capsys.readouterr().out

    def test_tpr_full_pass(self):
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tau-im", "1"]) == 0

    def test_tpr_full_fail_exit_code(self):
        # impossibly tight tolerance forces a failed check
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tau-im", "1",
                     "--tol", "1e-300"]) == 1

    def test_tpr_inadmissible_exit_code(self):
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "1.0", "--tau-im", "1"]) == 2

    def test_tpr_tau_inside_a_disc_exit_code(self, capsys):
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tau-re", "-0.4",
                     "--tau-im", "0.2"]) == 2
        assert "inside a disc" in capsys.readouterr().out

    def test_tpr_real_part_beyond_one_exit_code(self, capsys):
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tau-re", "1.3",
                     "--tau-im", "1.2"]) == 2
        assert "|Re tau| > 1" in capsys.readouterr().out

    def test_tpr_blocks(self):
        assert main(["tpr", "blocks", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tau-re", "0.3",
                     "--tau-im", "1.2"]) == 0

    @pytest.mark.parametrize("command,code", [("full", 2), ("blocks", 0)])
    def test_tpr_overflow_writes_nothing_to_stderr(self, capsys, command,
                                                   code):
        p = P_OVERFLOW
        assert main(["tpr", command, f"--alpha={p.alpha}",
                     f"--beta={p.beta}", f"--gamma={p.gamma}",
                     f"--tau-re={TAU_OVERFLOW.real}",
                     f"--tau-im={TAU_OVERFLOW.imag}"]) == code
        assert capsys.readouterr().err == ""

    def test_tpr_entry22_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["tpr", "entry22", "--a", "0.2", "--b", "0.3",
                     "--c", "0.6", "--tau-im", "1",
                     "--json", str(out_path), "--quiet"]) == 0
        d = json.loads(out_path.read_text())
        assert d["summary"]["fail"] == 0
        assert len(d["checks"]) == 3

    def test_identities(self):
        assert main(["identities", "--tau-re", "0.4", "--tau-im", "1.1",
                     "--quiet"]) == 0

    def test_sweep_json_stdout(self, capsys):
        assert main(["sweep", "--seed", "42", "--count", "1",
                     "--json", "stdout", "--quiet"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["seed"] == 42

    def test_json_to_an_unwritable_path_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "report.json"
        assert main(["identities", "--json", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.json" in err
        assert not path.exists()

    def test_2f1_non_finite_z_exit_code(self, capsys):
        assert main(["2f1", "--alpha", "0.3", "--beta", "0.2", "--gamma",
                     "0.7", "--z=nan"]) == 2
        assert "non-finite 2F1 argument z" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma"])
    def test_2f1_non_finite_parameter_exit_code(self, flag, capsys):
        args = {"--alpha": "0.3", "--beta": "0.2", "--gamma": "0.7"}
        args[flag] = "-inf"
        argv = ["2f1", "--z", "0.5"] + [f"{k}={v}" for k, v in args.items()]
        assert main(argv) == 2
        assert "non-finite 2F1 argument" in capsys.readouterr().err

    def test_bad_tolerance_exit_code(self, capsys):
        assert main(["sweep", "--seed", "1", "--count", "1",
                     "--tol", "nonsense"]) == 2

    def test_bad_tau_exit_code(self, capsys):
        assert main(["lambda", "--tau-im", "0.01"]) == 2

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_infinite_tolerance_exit_code(self, capsys, tol):
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert "finite and positive" in captured.err
        assert "pass" not in captured.out

    def test_lambda_at_a_huge_real_part(self, capsys):
        # 1e300 is a multiple of 8, a period of lambda, so lambda = lambda(i)
        assert main(["lambda", "--tau-re", "1e300"]) == 0
        out = capsys.readouterr().out
        re, im = (float(x.rstrip("j")) for x in out.split("=")[1].split())
        assert abs(re - 0.5) <= 1e-15 and im == 0.0

    def test_entry22_theta_passes_past_the_2f1_radius(self, capsys):
        assert main(["tpr", "entry22", "--a", "0.2", "--b", "0.3",
                     "--c", "0.6", "--tau-im", "0.3", "--json", "stdout",
                     "--quiet"]) == 2
        theta, f21, cross = _json_checks(capsys.readouterr().out)
        assert theta["pass"] and theta["error"] is None
        assert f21["error"] is not None and cross["error"] is not None

    def test_sweep_json_byte_identical_across_processes(self, tmp_path):
        src = Path(twistedperiods.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            subprocess.run([sys.executable, "-m", "twistedperiods", "sweep",
                            "--seed", "42", "--count", "3", "--json",
                            str(path), "--quiet"], env=env, check=True)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("command,flag", [
        ("tpr full", "--alpha"), ("tpr full", "--gamma"),
        ("tpr blocks", "--beta"), ("tpr entry22", "--a"),
        ("tpr entry22", "--c"), ("theta", "--tau-im"),
        ("lambda", "--tau-im"), ("identities", "--tau-im")])
    @pytest.mark.parametrize("value", [
        "0", "-0.5", "1e308", "-1e308", "inf", "nan", "1e-300", "1000"])
    def test_extreme_values_exit_with_a_code(self, command, flag, value,
                                             capsys):
        defaults = {"--alpha": "0.3", "--beta": "0.21", "--gamma": "0.77",
                    "--a": "0.2", "--b": "0.3", "--c": "0.6"}
        argv = command.split()
        if command.startswith("tpr"):
            names = (("--a", "--b", "--c") if command.endswith("entry22")
                     else ("--alpha", "--beta", "--gamma"))
            argv += [f"{name}={defaults[name]}" for name in names
                     if name != flag]
        # --flag=value, so that argparse reads -1e308 as a value
        argv.append(f"{flag}={value}")
        assert main(argv) in (0, 1, 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_residual_is_an_errored_check(self, monkeypatch,
                                                     capsys, value):
        monkeypatch.setattr(verify, "guarded_solve",
                            lambda a, b: np.full(b.shape, value))

        # the inf case meets inf * 0 in the residual's matmul, which warns
        # nothing; the report holds no NaN or Infinity token
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77", "--json", "stdout", "--quiet"]) == 2
        [check] = _json_checks(capsys.readouterr().out)
        assert check["residual"] is None and not check["pass"]
        assert check["error"].startswith("non-finite residual")

    @pytest.mark.parametrize("kind", verify.RECOVERABLE,
                             ids=lambda kind: kind.__name__)
    def test_each_typed_error_exits_2(self, monkeypatch, capsys, kind):
        def raising(*args):
            if kind is matrices.AdmissibilityError:
                raise kind(["injected"])
            raise kind("injected")

        monkeypatch.setattr(cli, "verify_tpr", raising)
        assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                     "--gamma", "0.77"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "injected" in err

    def test_tau_help_reads_the_admitted_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["lambda", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert (f"{series.IM_TAU_FLOOR:g} <= Im tau <= "
                f"{series.IM_TAU_CEILING:g}") in help_text

    def test_gamma_overflow_is_an_errored_check(self, capsys):
        assert main(["tpr", "full", "--alpha", "200.3", "--beta", "0.25",
                     "--gamma", "0.6", "--json", "stdout", "--quiet"]) == 2
        captured = capsys.readouterr()
        [check] = _json_checks(captured.out)
        assert check["name"] == "full-tpr"
        assert "overflows" in check["error"]
        assert "Traceback" not in captured.err
