"""The CLI's help texts and usage errors, byte for byte.

argparse writes all of these.  The bytes are argparse's on Python 3.10 and
3.11 at 80 columns; later versions word some messages differently (the list
of valid choices, for one), so the pins run on those two only.
"""

import sys

import pytest

from treebed.cli import main

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="bytes pinned on Python 3.10 and 3.11"
)


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


WIRELENGTH_USAGE = """\
usage: treebed wirelength [-h] --n N --p P [--n1 N1] [--host {binary,sibling}]
                          [--variant {0,1,2,3}] [--swap A B] [--exhaustive]
                          [--budget BUDGET] [--local-search ITERS]
                          [--seed SEED] [--output {json,text}]
"""

INSTANCE_HELP = """\
  --n N                 guest has 2**n vertices
  --p P                 2**p partite sets
  --n1 N1               host block height (default: n, a single tree)
  --host {binary,sibling}
                        host kind (default: binary)
  --variant {0,1,2,3}   sibling layout variant (default: 0)
  --swap A B            swap labels A and B in the embedding; repeatable
"""

HELP = {
    (): """\
usage: treebed [-h] {guest,host,wirelength,verify,sweep,export-dot} ...

Wirelength laboratory: complete multipartite guests into chained binary and
sibling trees.

positional arguments:
  {guest,host,wirelength,verify,sweep,export-dot}
    guest               describe a guest graph
    host                describe a labeled host tree
    wirelength          compute and cross-check wirelengths
    verify              check cut conditions cut by cut
    sweep               tabulate instances as CSV or JSON
    export-dot          emit a Graphviz drawing

options:
  -h, --help            show this help message and exit
""",
    ("guest",): """\
usage: treebed guest [-h] --n N --p P [--output {json,text}]

options:
  -h, --help            show this help message and exit
  --n N
  --p P
  --output {json,text}
""",
    ("host",): """\
usage: treebed host [-h] --n1 N1 [--k K] [--host {binary,sibling}]
                    [--variant {0,1,2,3}] [--output {json,text}]

options:
  -h, --help            show this help message and exit
  --n1 N1               block height
  --k K                 number of blocks (default: 1)
  --host {binary,sibling}
  --variant {0,1,2,3}
  --output {json,text}
""",
    ("wirelength",): WIRELENGTH_USAGE + """
options:
  -h, --help            show this help message and exit
""" + INSTANCE_HELP + """\
  --exhaustive          also take the exact minimum over all embeddings (needs
                        2**n <= 8)
  --budget BUDGET       bound on label partitions the exhaustive run may
                        evaluate
  --local-search ITERS  also run 2-swap local search for ITERS restarts;
                        reported as an upper bound and requires --seed
  --seed SEED           explicit seed for --local-search (no wall-clock
                        seeding)
  --output {json,text}
""",
    ("verify",): """\
usage: treebed verify [-h] --n N --p P [--n1 N1] [--host {binary,sibling}]
                      [--variant {0,1,2,3}] [--swap A B]
                      [--output {json,text}]

options:
  -h, --help            show this help message and exit
""" + INSTANCE_HELP + """\
  --output {json,text}
""",
    ("sweep",): """\
usage: treebed sweep [-h] --n-min N_MIN --n-max N_MAX [--p P] [--n1 N1]
                     [--host {binary,sibling,both}] [--engine {auto,off}]
                     [--exhaustive] [--budget BUDGET] [--output {csv,json}]

options:
  -h, --help            show this help message and exit
  --n-min N_MIN
  --n-max N_MAX
  --p P                 fix p (default: all 2..n per row)
  --n1 N1               fix n1 (default: all 1..n per row)
  --host {binary,sibling,both}
  --engine {auto,off}   auto runs the engine when n <= 8 (default)
  --exhaustive          add exhaustive minima (needs n-max <= 3 and the
                        engine)
  --budget BUDGET       bound on label partitions each exhaustive run may
                        evaluate
  --output {csv,json}
""",
    ("export-dot",): """\
usage: treebed export-dot [-h] [--n N] [--p P] [--n1 N1] [--k K]
                          [--host {binary,sibling}] [--variant {0,1,2,3}]
                          [--out OUT]
                          {host,guest}

positional arguments:
  {host,guest}

options:
  -h, --help            show this help message and exit
  --n N
  --p P
  --n1 N1
  --k K
  --host {binary,sibling}
  --variant {0,1,2,3}
  --out OUT             write to a file instead of stdout
""",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "top")
def test_help_bytes(capsys, command):
    assert run(capsys, *command, "--help") == (0, HELP[command], "")


GUEST_USAGE = "usage: treebed guest [-h] --n N --p P [--output {json,text}]\n"

USAGE_ERRORS = [
    (("wirelength", "--n", "3"),
     WIRELENGTH_USAGE
     + "treebed wirelength: error: the following arguments are required: --p\n"),
    (("guest", "--n", "3", "--p", "2", "--output", "yaml"),
     GUEST_USAGE + "treebed guest: error: argument --output: invalid choice: "
     "'yaml' (choose from 'json', 'text')\n"),
    (("guest", "--n", "three", "--p", "2"),
     GUEST_USAGE + "treebed guest: error: argument --n: invalid int value: 'three'\n"),
    (("no-such-command",),
     "usage: treebed [-h] {guest,host,wirelength,verify,sweep,export-dot} ...\n"
     "treebed: error: argument command: invalid choice: 'no-such-command' "
     "(choose from 'guest', 'host', 'wirelength', 'verify', 'sweep', "
     "'export-dot')\n"),
]


@pytest.mark.parametrize(
    "argv, stderr", USAGE_ERRORS,
    ids=["missing-required", "bad-choice", "bad-int", "unknown-command"],
)
def test_usage_error_bytes(capsys, argv, stderr):
    assert run(capsys, *argv) == (2, "", stderr)
