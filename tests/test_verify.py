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

import twistedperiods
from twistedperiods import matrices, verify
from twistedperiods.cli import main
from twistedperiods.hypergeom import HypergeomError
from twistedperiods.matrices import HgParams
from twistedperiods.series import TauPoint
from twistedperiods.verify import (CHECK_REGISTRY, CheckResult, PROFILES,
                                   SWEEP_TAUS, Tolerances, VerificationReport,
                                   resolve_tolerances, run_sweep,
                                   sample_admissible, verify_entry22,
                                   verify_orthogonality,
                                   verify_series_identities, verify_tpr,
                                   verify_whipple)

P_REF = HgParams(0.30, 0.21, 0.77)
TAU_I = TauPoint(1j)


def _written_out_entry22_theta_form(a, b, c, tau):
    """The (2,2) entry's theta form with its four coefficients written out
    in (a, b, c): the reference for ``theta_bracket``."""
    tc = tau.constants
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
        for name, description in CHECK_REGISTRY.items():
            assert name and description


class TestTolerances:
    def test_profiles(self):
        assert resolve_tolerances("default") is PROFILES["default"]
        assert resolve_tolerances("loose").matrix == 1e-6

    def test_numeric_override(self):
        tols = resolve_tolerances("1e-6")
        assert tols.matrix == tols.series == tols.entry22 == 1e-6
        assert resolve_tolerances(1e-5).whipple == 1e-5

    def test_bad_profile(self):
        with pytest.raises(ValueError):
            resolve_tolerances("nonsense")
        with pytest.raises(ValueError):
            resolve_tolerances(-1.0)


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
        for r in verify_tpr(P_REF, TauPoint(-0.4 + 0.2j)):
            assert not r.passed and "inside a disc" in r.error

    def test_inadmissible_recorded_not_raised(self):
        result = verify_tpr(HgParams(0.30, 0.21, 1.0), TAU_I)[0]
        assert result.error is not None and not result.passed
        assert "c0 integral" in result.error

    def test_conditioning_recorded_per_check(self, monkeypatch):
        # the LU solve of H and the diagonal solves of H' share one limit
        monkeypatch.setattr(matrices, "COND_LIMIT", 1.0)
        for r in verify_tpr(P_REF, TAU_I):
            assert not r.passed and "condition estimate" in r.error
            assert "exceeds limit 1e+00" in r.error

    def test_one_build_per_draw(self, monkeypatch):
        # full and block relations share one C, one P+ and one P-
        calls = Counter()
        for name in ("cohomology_C", "period_matrix"):
            original = getattr(verify, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(verify, name, counting)
        report = run_sweep(seed=3, count=2)
        assert report.summary["pass"] == len(report.checks)
        assert calls == {"cohomology_C": 2, "period_matrix": 4}


class TestBlockTpr:
    def test_both_blocks_pass(self):
        minus, plus = verify_tpr(P_REF, TAU_I)[1:]
        assert minus.name == "block-tpr-minus" and minus.passed
        assert plus.name == "block-tpr-plus" and plus.passed

    def test_inadmissible_errors_both_blocks(self):
        results = verify_tpr(HgParams(0.30, 0.21, 1.0), TAU_I)[1:]
        assert [r.name for r in results] == ["block-tpr-minus",
                                             "block-tpr-plus"]
        for r in results:
            assert not r.passed and "c0 integral" in r.error

    @pytest.mark.parametrize("tau_val", [0.1 + 10j, 0.1 + 50j])
    def test_blocks_pass_where_full_tpr_stops(self, tau_val):
        # full-tpr fails most of these draws above Im tau = 3; the block
        # relations stay a certificate up to the Im ceiling
        rng = np.random.default_rng(0)
        tau = TauPoint(tau_val)
        for _ in range(40):
            minus, plus = verify_tpr(sample_admissible(rng), tau)[1:]
            assert minus.passed and plus.passed

    @pytest.mark.parametrize("tau_val", [*SWEEP_TAUS, 0.1 + 10j])
    def test_simple_form_matches_the_lu_route(self, tau_val):
        # C(+-1) = P'+ . diag(1/d) . P'-^T against an LU solve with H'^T
        rng = np.random.default_rng(61)
        tau = TauPoint(tau_val)
        for _ in range(20):
            p = sample_admissible(rng)
            c = matrices.cohomology_C(p, tau.constants)
            blocks = (matrices.block_C(c),
                      verify.block_periods(verify.period_matrix("+", p, tau)),
                      verify.block_periods(verify.period_matrix("-", p, tau)),
                      matrices.block_H_prime(p))
            results = verify_tpr(p, tau)[1:]
            for sign, result in zip((-1, 1), results):
                c_b, pp_b, pm_b, h_b = (b.for_sign(sign) for b in blocks)
                lu = (np.linalg.norm(
                    c_b - pp_b @ matrices.guarded_solve(h_b.T, pm_b.T))
                    / np.linalg.norm(c_b))
                assert abs(result.residual - lu) <= 1e-13

    def test_orthogonality(self):
        result = verify_orthogonality(P_REF)
        assert result.passed and result.residual <= 1e-12


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
                HgParams(a + 0.5, b - 0.5, c), tau)
            assert abs(new - old) <= 1e-14 * max(1.0, abs(old))

    @pytest.mark.parametrize("tau_val", [0.1j, 0.3j, 0.25 + 0.15j, 0.5 + 0.3j])
    def test_theta_form_past_the_2f1_radius(self, tau_val):
        tau = TauPoint(tau_val)
        assert abs(tau.lam) > 0.95
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
            result = verify_whipple(a, b, c, n_max=12)
            assert result.passed

    def test_pole_recorded(self):
        result = verify_whipple(0.3, 0.2, 1.0, n_max=6)
        assert result.error is not None


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
        assert len(report.checks) == 10 * 23
        assert len(built) <= len(SWEEP_TAUS)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            run_sweep(seed=1, count=0)

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
        assert set(d) == {"tool_version", "seed", "checks", "summary"}
        assert set(d["summary"]) == {"pass", "fail", "errored"}
        for check in d["checks"]:
            assert set(check) == {"name", "params", "residual", "tolerance",
                                  "pass", "error"}
        check = d["checks"][0]
        assert {"alpha", "beta", "gamma", "tau_re", "tau_im"} <= set(
            check["params"])


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

    def test_entry22_theta_passes_past_the_2f1_radius(self, capsys):
        assert main(["tpr", "entry22", "--a", "0.2", "--b", "0.3",
                     "--c", "0.6", "--tau-im", "0.3", "--json", "stdout",
                     "--quiet"]) == 2
        theta, f21, cross = json.loads(capsys.readouterr().out)["checks"]
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

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        # the inf case meets inf * 0 in the residual's matmul
        with np.errstate(invalid="ignore"):
            assert main(["tpr", "full", "--alpha", "0.3", "--beta", "0.21",
                         "--gamma", "0.77", "--json", "stdout",
                         "--quiet"]) == 2
        [check] = json.loads(capsys.readouterr().out,
                             parse_constant=reject)["checks"]
        assert check["residual"] is None and not check["pass"]
        assert check["error"].startswith("non-finite residual")

    def test_gamma_overflow_is_an_errored_check(self, capsys):
        assert main(["tpr", "full", "--alpha", "200.3", "--beta", "0.25",
                     "--gamma", "0.6", "--json", "stdout", "--quiet"]) == 2
        captured = capsys.readouterr()
        d = json.loads(captured.out)
        [check] = d["checks"]
        assert check["name"] == "full-tpr"
        assert "overflows" in check["error"]
        assert "Traceback" not in captured.err
