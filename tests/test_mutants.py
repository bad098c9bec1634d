from pathlib import Path

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_applies_exactly_once():
    for path, old, new, reason in MUTANTS + EQUIVALENT:
        assert old != new and reason, (path, old)
        assert (ROOT / path).read_text().count(old) == 1, (path, old)
