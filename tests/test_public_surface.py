"""The package's public names, and the README examples that use them."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import treebed
from treebed.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in treebed.__all__ if not hasattr(treebed, name)]
    assert not missing


def test_guests_and_hosts_have_one_constructor_each():
    # ``Guest`` and ``HostTree`` build every guest and host; the old second
    # constructors are not part of the package surface
    shims = {"build_guest", "build_host", "inorder_labeling", "sibling_layout_labeling"}
    assert {"Guest", "HostTree"} <= set(treebed.__all__)
    assert shims.isdisjoint(treebed.__all__)
    assert shims.isdisjoint(dir(treebed))
    assert len(treebed.__all__) == 28


def test_search_names_load_on_first_use():
    # importing the package neither loads treebed.search nor changes the
    # collector's state; dir() lists the search names all the same
    probe = (
        "import gc, sys\n"
        "before = gc.get_freeze_count()\n"
        "import treebed\n"
        "assert 'treebed.search' not in sys.modules\n"
        "assert gc.get_freeze_count() == before\n"
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


def test_readme_common_runs(capsys):
    # every line of the block runs as written, less its shell redirection;
    # the line marked "exit 1" fails verification, and a comment ending in
    # ": <int>" names the wirelength the line prints
    section = README.read_text().split("\nCommon runs:\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL)
    assert block, "the Common runs section has no code block"
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("treebed ") for line in lines)
    for line in lines:
        command, _, comment = line.partition("#")
        command = re.sub(r"\s\d*>.*$", "", command)
        argv = shlex.split(command)[1:]
        want = 1 if "exit 1" in comment else 0
        assert main(argv) == want, line
        out = capsys.readouterr().out
        value = re.search(r":\s*(\d+)\s*$", comment)
        if value:
            report = json.loads(out)
            expected = int(value.group(1))
            assert (report["direct"], report["closed_form"]) == (expected, expected), line
