"""Apply each row of ``mutants.py`` to a copy of the checkout and run the
tests there.

Usage: ``python tests/run_mutants.py`` from anywhere.  Each row gets a fresh
copy of the whole checkout (tests read ``README.md`` and ``perfbench/``),
without ``.git`` and caches, with the row's old text replaced by its new
text.  The copy's tests then run with ``pytest -x`` and ``PYTHONPATH`` set to
the copy's ``src``, file by file in ``ORDER`` and then any file it does not
name, leaving out ``test_mutants.py``'s table test, which fails on every
mutated copy since a mutant removes its own old text.

One line per row: killed, survived or timed out, with the seconds taken
and the first failing test.  Exits 1 unless every ``MUTANTS`` row is killed
and every ``EQUIVALENT`` row survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_mutants.py::test_each_mutant_applies_exactly_once",
]
# Every test file runs on every row; only the order changes when a row is
# killed.  Chosen from each file's kill time on each row, every file run
# alone, and the files' measured times: test_cli.py (2 s) kills 26 of the
# 37 rows, test_tally.py (3 s) the share row and the row whose load keeps
# a slot past the last edge, test_search.py (10 s) the five search rows no
# CLI request reaches, test_embedding.py (6 s) the row whose routes never
# step across and the edge lookup row, and test_cut_reports.py (10 s) the
# row that rebuilds the cut family; the rest follow, fastest first, and
# test_hosts.py among them kills the row that drops the sibling type check.
ORDER = (
    "test_cli.py", "test_tally.py", "test_search.py", "test_embedding.py",
    "test_cut_reports.py", "test_cli_usage.py", "test_mutants.py",
    "test_public_surface.py", "test_records.py", "test_graphs.py",
    "test_isoperimetric.py", "test_formulas.py", "test_routing.py",
    "test_report_writer.py", "test_hosts.py", "test_argv.py", "test_acceptance.py",
)


def _test_files() -> list[str]:
    """Every test file: those ``ORDER`` names, in its order, then the rest by name."""
    rest = sorted(p.name for p in (ROOT / "tests").glob("test_*.py") if p.name not in ORDER)
    return [f"tests/{name}" for name in (*ORDER, *rest)]


def _mutated_copy(dest: Path, path: str, old: str, new: str) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
    ))
    target = dest / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"error: {path}: old text occurs {text.count(old)} times: {old!r}")
    target.write_text(text.replace(old, new))


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "-"


def run_row(path: str, old: str, new: str) -> tuple[str, float, str]:
    """(outcome, seconds, first failing test) for one row."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        _mutated_copy(copy, path, old, new)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        # An installed treebed (CI installs it editable) must not shadow the copy.
        where = subprocess.run(
            [sys.executable, "-c", "import treebed; print(treebed.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"error: the mutated copy imports treebed from {where}")
        start = time.perf_counter()
        try:
            done = subprocess.run(PYTEST + _test_files(), cwd=copy, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", time.perf_counter() - start, "-"
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return "survived", seconds, "-"
        if done.returncode in (1, 2):  # failed tests, or a module that would not import
            return "killed", seconds, _first_failure(done.stdout)
        raise SystemExit(f"error: pytest exited {done.returncode} on {path}: {old!r}\n"
                         + done.stdout + done.stderr)


def main() -> int:
    wrong = 0
    for table, want in ((MUTANTS, "killed"), (EQUIVALENT, "survived")):
        for path, old, new, reason in table:
            outcome, seconds, failure = run_row(path, old, new)
            wrong += outcome != want
            print(f"{outcome:<9} {seconds:6.1f}s  {failure}  [{path}: {reason}]", flush=True)
    print(f"{wrong} row(s) not as expected" if wrong else "every row as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
