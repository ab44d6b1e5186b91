"""Benchmark of the twistedperiods library.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One process and one caller drive a closed loop of units for ``--seconds``
seconds (and at least ``--min-units`` units).  Times are normalized by an
interleaved reference kernel (reference.py).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The second-to-last line of standard output is a JSON record of the run
(environment, sample counts, failures by type); the last line is
``{"correct", "attempted", "failed", "metrics"}``.  perfbench/README.md lists
the metrics and why each workload exists.
"""

import os

# One BLAS thread, fixed before anything can import numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 9
TRACE_SETUP_PROBES = 3
# units of each half of a traced run: enough for a p50, 10 beyond p90
TRACE_MIN_UNITS = 100
# scalar reference kernel timings taken before and after each probe
SETUP_REF_SAMPLES = 10
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, failed probe)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "tau_scan", "quadrature"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-units", type=int, default=None,
                        help="units every timed loop runs at least, and "
                             "whose verdicts are counted (default: the "
                             "workload's window_units; smaller for smoke "
                             "tests)")
    # internal: fresh-interpreter children of a run
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--count-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0 or (args.min_units is not None
                             and args.min_units < 1):
        parser.error("--seconds and --min-units must be positive")
    return args


def import_library():
    """Import twistedperiods from this checkout's src/, nowhere else."""
    if not (SRC / "twistedperiods" / "__init__.py").is_file():
        raise BenchError(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import twistedperiods
    # the CLI's import is nearly all of its cold start
    import twistedperiods.cli  # noqa: F401
    origin = Path(twistedperiods.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"twistedperiods imported from {origin}, not {SRC}")


def setup_probe(args) -> int:
    """Child: import the library, build the workload, report ready."""
    start = time.perf_counter()
    import_library()
    imported = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"import_ms": (imported - start) * 1e3}), flush=True)
    return 0


def run_setup_probes(args, count: int, importtime: bool) -> list:
    """Time fresh interpreters from spawn to ready; never before this point
    has this process imported numpy."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    probes = []
    for _ in range(count):
        refs = [reference.time_kernel(reference.scalar_kernel)
                for _ in range(SETUP_REF_SAMPLES)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError("setup probe failed: " + err.strip()[-2000:])
        refs += [reference.time_kernel(reference.scalar_kernel)
                 for _ in range(SETUP_REF_SAMPLES)]
        probe = json.loads(line)
        probe["wall_s"] = ready - start
        scale = reference.factor(refs, reference.SCALAR_REF_MS)
        probe["setup_s"] = probe["wall_s"] * scale
        probe["import_ms"] *= scale
        if importtime:
            probe["scipy_import_ms"] = scale * _importtime_ms(err,
                                                              "scipy.linalg")
        probes.append(probe)
    return probes


def _importtime_ms(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``-X importtime`` output
    (0 when the library no longer imports it)."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    return 0.0


def environment(args, units: dict) -> dict:
    import mpmath  # version only; imported after peak memory is read
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
    }


class Loop:
    """A closed loop: one caller, the next unit starts when the last ends.

    The reference kernel runs between units at least every PERIOD_S; unit
    times and the loop's time are reported normalized by it (reference.py).
    """

    def __init__(self, workload, tracer=None, keep_units=0):
        self.workload = workload
        self.tracer = tracer
        # records past this many keep only what fail counting needs
        self.keep_units = keep_units
        self.durations: list = []  # wall seconds per unit
        self.iterations: list = []  # wall seconds per unit with its glue
        self.starts: list = []
        self.refs: list = []
        self.records: list = []

    def run_unit(self, stream: int, index: int):
        from workloads import UnitRecord

        wl = self.workload
        inputs = wl.inputs(stream, index)
        if self.tracer is not None:
            # spans recorded outside a unit (input draws) keep unit -1
            self.tracer.unit = index
        start = time.perf_counter()
        try:
            out = wl.run(inputs)
        except Exception as exc:  # counted as the whole unit lost
            out = exc
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.unit = -1
        if isinstance(out, Exception):
            rec = UnitRecord(lost=[(type(out).__name__, wl.checks_per_unit)])
        else:
            rec = wl.record(out)
        return elapsed, rec

    def run(self, stream: int, first: int, seconds: float, min_units: int):
        start = time.perf_counter()
        next_ref = start
        index = first
        while True:
            began = time.perf_counter()
            elapsed, rec = self.run_unit(stream, index)
            if len(self.records) >= self.keep_units:
                rec.compact()
            self.records.append(rec)
            self.durations.append(elapsed)
            ended = time.perf_counter()
            self.starts.append(began - start)
            self.iterations.append(ended - began)
            index += 1
            if ended >= next_ref:
                self.refs.append((ended - start, reference.time_kernel()))
                next_ref = time.perf_counter() + reference.PERIOD_S
            if (len(self.durations) >= min_units
                    and time.perf_counter() - start >= seconds):
                break
        factors = reference.local_factors(self.starts, self.refs)
        self.normalized_ms = [d * f * 1e3
                              for d, f in zip(self.durations, factors)]
        self.normalized_s = sum(i * f for i, f in zip(self.iterations,
                                                      factors))
        return index

    def warm_up(self):
        from workloads import WARMUP
        for index in range(self.workload.warmup_units):
            self.run_unit(WARMUP, index)
            reference.time_kernel()


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def counted_prefix(workload, tracer):
    """Warm up, then trace the first ``count_units`` timed units; the same
    sequence in a fresh interpreter must give the same counts."""
    import tracer as tracing
    from workloads import TIMED

    loop = Loop(workload)
    loop.warm_up()
    missing = tracer.install()
    try:
        loop.tracer = tracer
        for index in range(workload.count_units):
            loop.run_unit(TIMED, index)
    finally:
        tracer.uninstall()
    return tracing.layer_counts(tracer.spans), missing


def count_probe(args) -> int:
    """Child: repeat the traced count prefix and print its counts."""
    import_library()
    import tracer as tracing
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    counts, _ = counted_prefix(wl, tracing.Tracer())
    print(json.dumps(counts), flush=True)
    return 0


def run_count_probe(args) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--count-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("count probe failed: " + proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple:
    probes = run_setup_probes(args, SETUP_PROBES, importtime=False)
    import_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    min_units = args.min_units or wl.window_units
    loop = Loop(wl, keep_units=min_units)
    loop.warm_up()
    loop.run(workloads.TIMED, 0, args.seconds, min_units)
    # peak memory before the oracle imports mpmath
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    score = workloads.score(loop.records, min_units)
    ms = loop.normalized_ms
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "passed_per_s": (score.passed_all / loop.normalized_s, "checks/s"),
        "unit_ms_p50": (statistics.median(ms), "ms"),
        "unit_ms_p90": (p90(ms), "ms"),
        "pass_share": (score.passed / score.attempted, "ratio"),
        "residual_margin": (score.margin, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall_ms = [d * 1e3 for d in loop.durations]
    details = {
        "setup_probes_s": [p["setup_s"] for p in probes],
        "wall": {
            "setup_s": statistics.median(p["wall_s"] for p in probes),
            "passed_per_s": score.passed_all / sum(loop.iterations),
            "unit_ms_p50": statistics.median(wall_ms),
            "unit_ms_p90": p90(wall_ms),
            "reference_kernels": len(loop.refs),
        },
    }
    return metrics, score, details, {"timed": len(ms),
                                     "warmup": wl.warmup_units,
                                     "window": min_units}


def traced(args) -> tuple:
    probes = run_setup_probes(args, TRACE_SETUP_PROBES, importtime=True)
    import_library()
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    min_units = args.min_units or TRACE_MIN_UNITS
    prefix_tracer = tracing.Tracer()
    counts, missing = counted_prefix(wl, prefix_tracer)
    repeat = run_count_probe(args)
    counts_repeat = counts == repeat

    # untraced then traced halves of the run, on consecutive fresh units
    half = args.seconds / 2.0
    plain = Loop(wl, keep_units=min_units)
    next_index = plain.run(workloads.TIMED, wl.count_units, half, min_units)
    timed_tracer = tracing.Tracer()
    loop = Loop(wl, timed_tracer)
    timed_tracer.install()
    try:
        loop.run(workloads.TIMED, next_index, half, min_units)
    finally:
        timed_tracer.uninstall()
    score = workloads.score(plain.records + loop.records, min_units)

    n_traced = len(loop.durations)
    # layer times on the same contention-normalized scale as the units
    scale = sum(loop.normalized_ms) / (sum(loop.durations) * 1e3)
    per_layer = tracing.layer_metrics(counts, timed_tracer.spans,
                                      wl.count_units, n_traced, scale)
    plain_p50 = statistics.median(plain.normalized_ms)
    traced_p50 = statistics.median(loop.normalized_ms)
    outside_ns = (sum(loop.durations) * 1e9
                  - tracing.top_level_ns(timed_tracer.spans))
    per_layer.update({
        "unit.outside_layers_ms": (outside_ns / 1e6 * scale / n_traced, "ms"),
        "trace.unit_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ms_p50": (traced_p50 - plain_p50, "ms"),
        "trace.overhead_share": ((traced_p50 - plain_p50) / plain_p50,
                                 "ratio"),
        "trace.spans_per_unit": (
            sum(s[4] >= 0 for s in timed_tracer.spans) / n_traced, "count"),
        "cli.import_ms": (statistics.median(p["import_ms"] for p in probes),
                          "ms"),
        "matrices.scipy_import_ms": (
            statistics.median(p["scipy_import_ms"] for p in probes), "ms"),
    })

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.csv"
    tracing.write_spans(spans_path, {"prefix": prefix_tracer.spans,
                                     "timed": timed_tracer.spans})
    details = {
        "counts_repeat": counts_repeat,
        "counts": counts,
        "missing_functions": missing,
        "untraced_unit_ms_p50": plain_p50,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    if not counts_repeat:
        details["counts_fresh_process"] = repeat
    units = {"count_prefix": wl.count_units, "untraced": len(plain.durations),
             "traced": n_traced, "warmup": wl.warmup_units,
             "window": min_units}
    return per_layer, score, details, units, counts_repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.count_probe:
            return count_probe(args)
        counts_repeat = True
        if args.trace:
            metrics, score, details, units, counts_repeat = traced(args)
        else:
            metrics, score, details, units = end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = score.attempted - score.passed
    correct = (score.wrong == 0 and score.roundtrip_failures == 0
               and counts_repeat and score.attempted > 0)
    record = {
        "environment": environment(args, units),
        "attempted": score.attempted,
        "passed": score.passed,
        "failed": failed,
        "fail_share": failed / score.attempted,
        "failures": dict(sorted(score.failures.items())),
        "all_units": {"attempted": score.attempted_all,
                      "passed": score.passed_all},
        "wrong_values": score.wrong,
        "roundtrip_failures": score.roundtrip_failures,
        "worst_kernel_error": score.worst_kernel_error,
        "worst_residual_ratio": score.worst_ratio,
        **details,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": score.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
