"""Alternating parent/change pairs of the benchmark, written to one file.

Usage::

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        --pairs N --seconds S --out BENCH_<pr>.json [--first-seed K]

Each DIR is a checkout of this repository (a ``git clone`` records its
commit).  Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0``, unchanged, once in each checkout, one after the other: the
parent first in even pairs and the change first in odd ones, so neither
side always runs on the warmer machine.  ``--workload`` may be repeated;
the pairs of each workload run in turn.

The output holds, for each workload, every pair's end-to-end metrics and
their summary (``summarize``): each metric's medians, the parent's
quartiles and IQR, in how many pairs the change is better, the metric's
bound and whether the parent's IQR alone exceeds it (``unresolved``); and
the machine, Python, and both checkouts' commits.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# the fields of a run's environment record that describe the machine
MACHINE = ("nproc", "affinity", "cpu_model", "python", "numpy", "scipy",
           "mpmath")


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end`` (BENCHMARK.json's entries, each with
    its "name", "better": "lower" or "higher", and relative "bound"): the
    parent's and the change's medians over ``pairs`` (each {"parent":
    metrics, "change": metrics}, metrics name -> value), the change's
    relative move of the median, the parent's quartiles and IQR (inclusive
    method), ``wins``, the pairs in which the change is strictly better,
    the bound, and ``unresolved``: whether the parent's IQR exceeds the
    bound's share of its median, so noise alone can cross the bound.  A
    metric that a side of some pair lacks is left out."""
    out = {}
    for metric in end_to_end:
        name, direction = metric["name"], metric["better"]
        if not all(name in pair[side] for pair in pairs
                   for side in ("parent", "change")):
            continue
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sign = -1.0 if direction == "lower" else 1.0
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else parent * 3)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "better": direction,
            "parent_median": p_med,
            "change_median": c_med,
            "change_rel": (c_med - p_med) / p_med if p_med else None,
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_iqr": q3 - q1,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "bound": metric["bound"],
            "unresolved": q3 - q1 > metric["bound"] * abs(p_med),
        }
    return out


def _metrics(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The end-to-end metrics (name -> value) of one benchmark run, and
    the machine it reports."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    record, last = map(json.loads, run.stdout.splitlines()[-2:])
    if not last["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} not correct")
    return ({name: m["value"] for name, m in last["metrics"].items()},
            {key: record["environment"][key] for key in MACHINE})


def _commit(checkout: Path) -> str | None:
    run = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True)
    return run.stdout.strip() or None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    result = {
        "platform": platform.platform(),
        "python": sys.version,
        "commits": {side: _commit(path) for side, path in sides.items()},
        "command": ["perfbench/run.py", "--seconds", args.seconds,
                    "--trace", 0],
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                            "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], result["machine"] = _metrics(
                    sides[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(json.dumps({"workload": workload, **pair}), flush=True)
        result["workloads"][workload] = {
            "pairs": pairs, "summary": summarize(pairs, spec["end_to_end"])}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
