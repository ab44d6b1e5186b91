"""``tools/src_lines.py``: the line and code-line counts of ``src/``."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _rows(*args) -> dict[str, tuple[int, int]]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), *args],
        capture_output=True, text=True, check=True).stdout
    return {name: (int(lines), int(code)) for name, lines, code in
            (line.split() for line in out.splitlines()[1:])}


def test_line_totals_equal_the_files_line_counts():
    # a line is a newline character, as wc -l counts them
    src = ROOT / "src"
    files = {str(path.relative_to(src)): path.read_bytes().count(b"\n")
             for path in src.rglob("*.py")}
    rows = _rows()
    assert {name: lines for name, (lines, _) in rows.items()
            if name != "total"} == files
    assert rows["total"][0] == sum(files.values())


def test_code_lines_leave_out_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\n docstring."""\n\n# a comment\n'
        'def f():\n    """One line."""\n    s = """not a\n docstring"""\n'
        '    return s  # code\n')
    assert _rows(str(tmp_path)) == {"m.py": (9, 4), "total": (9, 4)}
