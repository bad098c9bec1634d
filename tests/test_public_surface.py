"""The package's public names, and the README example that uses them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import treebed

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in treebed.__all__ if not hasattr(treebed, name)]
    assert not missing


def test_search_names_load_on_first_use():
    # importing the package neither loads treebed.search nor changes the
    # collector's state; dir() lists the search names all the same
    probe = (
        "import gc, sys, treebed\n"
        "assert 'treebed.search' not in sys.modules\n"
        "assert gc.get_freeze_count() == 0\n"
        "names = {'SearchResult', 'exhaustive_min_wirelength', 'local_search_min'}\n"
        "assert names <= set(dir(treebed)) and names <= set(treebed.__all__)\n"
        "from treebed import local_search_min\n"
        "assert 'treebed.search' in sys.modules\n"
        "assert local_search_min is sys.modules['treebed.search'].local_search_min\n"
        "assert not hasattr(treebed, 'no_such_name')\n"
    )
    src = str(README.parent / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "the Library section has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
