"""The CLI's report writer against ``json.dumps(value, indent=2)``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed.cli import _json

SRC = Path(__file__).resolve().parent.parent / "src"

# Printable ASCII but for the two characters JSON escapes there.
SAFE_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                           blacklist_characters='"\\'),
    max_size=8,
)
SCALARS = st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200) | SAFE_TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(SAFE_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


def test_writer_edge_values():
    for value in ([], {}, [[]], {"a": {}}, [{}, [], None], -(2**70), "", {"": ""}):
        assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1: 2}, {None: 1}, {True: 1}, '"', "\\", "a\nb", "\x7f", "é",
     {"k": [0.0]}, [{"bad\n": 1}], {"x": 'say "hi"'}, b"bytes", {"s": {1, 2}}],
)
def test_writer_refuses_what_json_would_write_otherwise(value):
    with pytest.raises(TypeError):
        _json(value)


def test_cli_import_skips_json():
    # Diff sys.modules around the import, so what site loads does not count.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import treebed.cli\n"
        "print('json' in before, 'json' in set(sys.modules) - before)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    preloaded, added = out.split()
    assert preloaded == "True" or added == "False", out
