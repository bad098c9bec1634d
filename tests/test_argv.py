"""The CLI's direct argv reader against the argparse parser built from the
same option table."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebed.cli import SUBCOMMANDS, _read_argv, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
PARSER = build_parser()

# Values argparse and the reader must agree on, or that the reader leaves to
# argparse: "-1_0", "-1.5" and "-²" look like options to argparse or fail
# int(), "+2", " 3", "٣" and "-٣" are ints to int(), and "-x y" is a
# value to argparse (it has a space).
ODD_VALUES = ["-1_0", "-1.5", "-²", "1_0", "+2", " 3", "3 ", "٣", "-٣",
              "", "-", "--", "-x y", "three", "--n", "-h"]


def _valid_value(spec):
    if "choices" in spec:
        return st.sampled_from(spec["choices"]).map(str)
    if spec.get("type") is int:
        return st.integers(-40, 40).map(str)
    return st.sampled_from(["out.dot", "-7", "a b"])


@st.composite
def argvs(draw, canonical):
    """An argv for one subcommand of the table.  Canonical ones give every
    required option once or twice, and optional ones up to twice, with valid
    values spelled ``--name value``, in any order.  The others then take up
    to three changes: a ``--name=value`` form, an abbreviation, an odd
    value, a dropped option, or a stray token (help, ``--``, another
    subcommand's option)."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options = SUBCOMMANDS[command][2]
    groups = []
    for name, spec in options.items():
        required = spec.get("required") or not name.startswith("--")
        repeats = st.integers(1 if required else 0, 2 if name.startswith("--") else 1)
        for _ in range(draw(repeats)):
            count = 0 if spec.get("action") == "store_true" else spec.get("nargs", 1)
            values = [draw(_valid_value(spec)) for _ in range(count)]
            groups.append([name, *values] if name.startswith("--") else values)
    stray = sorted({n for _, _, opts in SUBCOMMANDS.values() for n in opts})
    stray += ["-h", "--help", "--", "host", "7"]
    for _ in range(0 if canonical else draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["equals", "abbreviate", "odd", "drop", "stray"]))
        if change == "stray" or not groups:
            groups.append([draw(st.sampled_from(stray))])
            continue
        at = draw(st.integers(0, len(groups) - 1))
        group = list(groups[at])
        if change == "drop":
            del groups[at]
            continue
        if change == "odd":
            group[draw(st.integers(0, len(group) - 1))] = draw(st.sampled_from(ODD_VALUES))
        elif group[0].startswith("--") and change == "equals" and len(group) > 1:
            group[:2] = [f"{group[0]}={group[1]}"]
        elif group[0].startswith("--") and change == "abbreviate":
            group[0] = group[0][:draw(st.integers(3, max(3, len(group[0]) - 1)))]
        groups[at] = group
    groups = draw(st.permutations(groups))
    return [command, *(token for group in groups for token in group)]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argvs(canonical=False))
@example(["export-dot", "host", "--out", "-²"])
@example(["export-dot", "--out", "-x y", "host"])
@example(["wirelength", "--n", "-٣", "--p", "2", "--swap", "1_0", "-1"])
def test_whatever_the_reader_accepts_argparse_reads_alike(argv):
    ours = _read_argv(argv)
    if ours is not None:
        assert vars(ours) == vars(PARSER.parse_args(argv))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs(canonical=True))
def test_the_reader_accepts_canonical_argv(argv):
    ours = _read_argv(argv)
    assert ours is not None
    assert vars(ours) == vars(PARSER.parse_args(argv))


def test_reader_refusals():
    for argv in (
        [], ["--help"], ["wirelength", "--help"], ["wirelength", "--n=3", "--p", "2"],
        ["sweep", "--n-mi", "2", "--n-max", "3"], ["wirelength", "--n", "3"],
        ["wirelength", "--n", "-1_0", "--p", "2"], ["wirelength", "--n", "3", "--p"],
        ["guest", "--n", "3", "--p", "2", "--output", "yaml"],
        ["export-dot", "--n1", "3"], ["export-dot", "host", "guest"],
        ["verify", "--n", "3", "--p", "2", "--exhaustive"], ["no-such-command"],
    ):
        assert _read_argv(argv) is None, argv


def _commands(lines):
    """The argv of every ``treebed`` command in ``lines``, up to a pipe,
    redirection or comment."""
    found = []
    for line in lines:
        tokens = shlex.split(line, comments=True)
        if "treebed" not in tokens:
            continue
        argv = []
        for token in tokens[tokens.index("treebed") + 1:]:
            if token in ("|", "||", "&&", ";") or token.startswith(("<", ">", "2>")):
                break
            argv.append(token)
        found.append(argv)
    return found


def _readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    # Shell blocks carry no language tag; the python ones import treebed.
    blocks = [block for block in text.split("```")[1::2] if block.startswith("\n")]
    return _commands(line for block in blocks for line in block.splitlines())


def _ci_commands():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    step = text.split("- name: Installed console script", 1)[1].split("- name:", 1)[0]
    return _commands(step.splitlines())


# The CI commands that check the argparse path through the entry point.
CI_FALLBACK = [
    ["--help"],
    ["wirelength", "--help"],
    ["wirelength", "--n=3", "--p=2"],
    ["sweep", "--n-mi", "2", "--n-ma", "3"],
    ["wirelength", "--n", "3"],
]


def test_readme_commands_are_read_directly():
    commands = _readme_commands()
    assert len(commands) >= 10
    refused = [argv for argv in commands if _read_argv(argv) is None]
    assert not refused


def test_ci_commands_are_read_directly_but_for_the_fallback_checks():
    commands = _ci_commands()
    assert len(commands) >= 15
    refused = [argv for argv in commands if _read_argv(argv) is None]
    assert refused == CI_FALLBACK


def test_fallback_forms_print_what_canonical_ones_do(capsys):
    outputs = []
    for argv in (["wirelength", "--n", "3", "--p", "2", "--host", "sibling"],
                 ["wirelength", "--n=3", "--p=2", "--ho", "sibling"]):
        code = main(argv)
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_canonical_request_never_imports_argparse():
    probe = (
        "import sys, treebed.cli\n"
        "code = treebed.cli.main(['verify', '--n', '3', '--p', '2', '--n1', '2',"
        " '--host', 'sibling', '--variant', '1', '--swap', '1', '5'])\n"
        "assert code == 0, code\n"
        "assert 'argparse' not in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_requests_without_search_never_import_it():
    # wirelength and verify import treebed.search only for --exhaustive or
    # --local-search; importing the CLI freezes what is alive by then
    probe = (
        "import gc, sys\n"
        "before = gc.get_freeze_count()\n"
        "import treebed.cli\n"
        "assert gc.get_freeze_count() > before\n"
        "for argv in (['wirelength', '--n', '3', '--p', '2'],"
        " ['verify', '--n', '4', '--p', '2', '--n1', '2', '--host', 'sibling']):\n"
        "    assert treebed.cli.main(argv) == 0, argv\n"
        "assert 'treebed.search' not in sys.modules\n"
        "assert treebed.cli.main(['wirelength', '--n', '3', '--p', '2', '--exhaustive']) == 0\n"
        "assert 'treebed.search' in sys.modules\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
