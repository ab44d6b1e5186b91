"""``tools/compare_reports.py``: a row-by-row comparison of two reports."""

import json
import subprocess
import sys
from pathlib import Path

from twistedperiods.verify import CheckResult, VerificationReport, run_sweep

ROOT = Path(__file__).resolve().parents[1]


def _proc(*paths) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_reports.py"),
         *map(str, paths)], capture_output=True, text=True)


def _run(*paths) -> tuple[int, list[str]]:
    out = _proc(*paths)
    return out.returncode, out.stdout.splitlines()


def _moved(report: VerificationReport, index: int, **changes):
    """The report with row ``index`` rebuilt with ``changes``."""
    checks = list(report.checks)
    row = vars(checks[index]) | changes
    checks[index] = CheckResult(**row)
    return VerificationReport(report.tool_version, report.seed, checks)


def test_identical_reports_have_no_differing_row(tmp_path):
    text = "\n".join(run_sweep(s, 2).to_json() for s in (0, 1))
    (tmp_path / "a.json").write_text(text)
    code, lines = _run(tmp_path / "a.json", tmp_path / "a.json")
    assert code == 0 and lines[0].split() == [
        "check", "rows", "differ", "max", "|d", "residual|/tol"]
    assert {line.split()[0]: line.split()[1:] for line in lines[1:]}[
        "full-tpr"] == ["4", "0", "0.000e+00"]
    assert len(lines) == 1 + 23


def test_a_moved_residual_and_a_flipped_verdict(tmp_path):
    report = run_sweep(3, 1)
    full = report.checks[0]
    moved = _moved(report, 0, residual=full.residual + 0.25 * full.tolerance)
    flipped = _moved(moved, 8, residual=None, passed=False, error="boom")
    (tmp_path / "a.json").write_text(report.to_json())
    (tmp_path / "b.json").write_text(flipped.to_json())
    code, lines = _run(tmp_path / "a.json", tmp_path / "b.json")
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:24]}
    assert code == 1
    assert rows["full-tpr"] == ["1", "0", "2.500e-01"]
    assert rows["theta1-log-derivative"][:2] == ["1", "1"]
    assert len(lines) == 25
    assert lines[24].startswith("report 0 row 8: ('theta1-log-derivative'")
    assert lines[24].endswith(", False, 'boom')")


def test_a_loosened_tolerance_is_a_difference(tmp_path):
    # the verdict and residual stay, so only the tolerance can flag it
    report = run_sweep(3, 1)
    full = report.checks[0]
    loosened = _moved(report, 0, tolerance=10.0 * full.tolerance)
    (tmp_path / "a.json").write_text(report.to_json())
    (tmp_path / "b.json").write_text(loosened.to_json())
    code, lines = _run(tmp_path / "a.json", tmp_path / "b.json")
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:24]}
    assert code == 1
    assert rows["full-tpr"] == ["1", "1", "0.000e+00"]
    assert len(lines) == 25
    assert lines[24].startswith("report 0 row 0: ('full-tpr'")
    assert f", {full.tolerance!r}, True, None) against " in lines[24]
    assert lines[24].endswith(f", {10.0 * full.tolerance!r}, True, None)")


def test_reports_of_different_lengths(tmp_path):
    (tmp_path / "a.json").write_text(run_sweep(0, 1).to_json())
    (tmp_path / "b.json").write_text(run_sweep(0, 2).to_json())
    code, lines = _run(tmp_path / "a.json", tmp_path / "b.json")
    assert code == 1 and lines[-1] == "report 0: 23 rows against 46"


def test_a_truncated_report_is_an_error_not_a_difference(tmp_path):
    text = run_sweep(0, 1).to_json()
    (tmp_path / "a.json").write_text(text)
    (tmp_path / "b.json").write_text(text + "\n" + text[:len(text) // 2])
    out = _proc(tmp_path / "a.json", tmp_path / "b.json")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(f"error: {tmp_path / 'b.json'} line 2: ")
    assert "Traceback" not in out.stderr


def test_a_params_index_past_the_table_is_an_error(tmp_path):
    report = json.loads(run_sweep(0, 1).to_json())
    report["checks"][0][1] = len(report["params"])
    (tmp_path / "a.json").write_text(json.dumps(report))
    (tmp_path / "b.json").write_text(run_sweep(0, 1).to_json())
    out = _proc(tmp_path / "a.json", tmp_path / "b.json")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith(f"error: {tmp_path / 'a.json'} line 1: "
                                 "params index")
    assert "Traceback" not in out.stderr


def test_a_missing_or_undecodable_file_is_an_error(tmp_path):
    (tmp_path / "a.json").write_text(run_sweep(0, 1).to_json())
    (tmp_path / "b.json").write_bytes(b"\xff\xfe")
    for path in (tmp_path / "missing.json", tmp_path / "b.json"):
        out = _proc(tmp_path / "a.json", path)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in out.stderr
