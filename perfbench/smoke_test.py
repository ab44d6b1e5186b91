"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench)

Runs every workload of BENCHMARK.json for a fraction of a second with and
without tracing, and checks that the output parses, has exactly the agreed
keys, and names every declared metric with its declared unit.  Also checks
that the verdict counts of a seed do not depend on the run's length, and
that the benchmark refuses to run, without printing a result, where the
library source is missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              seconds: str = "0.2"):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", seconds, "--trace", str(trace),
                             "--min-units", "3"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_output(stdout: str, declared: list, trace: int) -> None:
    lines = stdout.strip().splitlines()
    record = json.loads(lines[-2])
    assert record["environment"]["trace"] == trace
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "mpmath",
                "blas_threads", "seed", "units"):
        assert key in record["environment"], key
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_every_metric_is_reported():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            check_output(proc.stdout, declared, trace)


def test_counts_do_not_depend_on_run_length():
    counts = []
    for seconds in ("0.2", "0.6"):
        proc = run_bench("tau_scan", 0, seconds=seconds)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.strip().splitlines()[-2])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert record["environment"]["units"]["window"] == 3
        counts.append((result["attempted"], result["failed"],
                       record["failures"]))
    assert counts[0] == counts[1]


def test_refuses_without_library_source():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=Path(tmp))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    test_every_metric_is_reported()
    test_counts_do_not_depend_on_run_length()
    test_refuses_without_library_source()
    print("smoke test passed")
    sys.exit(0)
