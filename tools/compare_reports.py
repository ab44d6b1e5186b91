"""Row-by-row comparison of two verification reports.

Usage: ``python tools/compare_reports.py A.json B.json``.  Each file holds
one report as ``run_sweep(...).to_json()`` writes it (schema 1 or 2), or
several, one per line; row i of report j of A is compared with row i of
report j of B.  For each check name it prints the number of rows, the
number whose name, params, tolerance, pass flag or error differ, and
the largest |residual A - residual B| / tolerance A over the rows where
both have a residual; then every differing row.  Exits 1 if a row
differs or the files hold different numbers of reports or rows, else 0.
A file that cannot be read, or a line that
``VerificationReport.from_json`` refuses, is reported on stderr as
``error: PATH: MESSAGE`` or ``error: PATH line N: MESSAGE``, with exit
code 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# the library of this checkout, as perfbench/run.py imports it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from twistedperiods.verify import VerificationReport  # noqa: E402


def file_rows(path: str) -> list[list[tuple]]:
    """(name, params, residual, tolerance, pass, error) of every check row
    of each report in ``path``, one report per line; a file that cannot be
    read as text, or a line that is not a valid report, raises ValueError
    naming ``path`` (and the line)."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    reports = []
    for n, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                checks = VerificationReport.from_json(line).checks
            except ValueError as exc:
                raise ValueError(f"{path} line {n}: {exc}") from None
            reports.append([(c.name, c.params, c.residual, c.tolerance,
                             c.passed, c.error) for c in checks])
    return reports


def _key(row: tuple) -> tuple:
    """What must match exactly: name, params (as text, so -0.0 is not
    0.0), tolerance, pass flag and error."""
    name, params, _, tolerance, passed, error = row
    return name, json.dumps(params, sort_keys=True), tolerance, passed, error


def compare(a: list[list[tuple]], b: list[list[tuple]]) -> tuple[list, list]:
    """(per-name summary rows, differing rows) of two files' reports."""
    stats: dict[str, list] = {}  # name -> [rows, differing, max ratio]
    differing = []
    for j, (rows_a, rows_b) in enumerate(zip(a, b)):
        if len(rows_a) != len(rows_b):
            differing.append(f"report {j}: {len(rows_a)} rows against "
                             f"{len(rows_b)}")
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            s = stats.setdefault(ra[0], [0, 0, 0.0])
            s[0] += 1
            if _key(ra) != _key(rb):
                s[1] += 1
                differing.append(f"report {j} row {i}: {_key(ra)} against "
                                 f"{_key(rb)}")
            elif ra[2] is not None and rb[2] is not None:
                s[2] = max(s[2], abs(ra[2] - rb[2]) / ra[3])
    if len(a) != len(b):
        differing.append(f"{len(a)} reports against {len(b)}")
    return [(name, *s) for name, s in stats.items()], differing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        reports = [file_rows(path) for path in argv]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary, differing = compare(*reports)
    width = max([len("check")] + [len(row[0]) for row in summary])
    print(f"{'check':<{width}}  {'rows':>6}  {'differ':>6}  "
          f"{'max |d residual|/tol':>20}")
    for name, rows, differ, ratio in summary:
        print(f"{name:<{width}}  {rows:>6}  {differ:>6}  {ratio:>20.3e}")
    for line in differing:
        print(line)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
