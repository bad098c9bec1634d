"""The package's public names, and the README example that uses them."""

import re
from pathlib import Path

import treebed

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in treebed.__all__ if not hasattr(treebed, name)]
    assert not missing


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block, "the Library section has no python block"
    exec(compile(block.group(1), str(README), "exec"), {})
