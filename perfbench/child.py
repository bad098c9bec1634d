"""One CLI request, as the installed ``treebed`` console script runs it.

Usage: python3 perfbench/child.py <treebed argv...>

Behaves like the ``treebed = "treebed.cli:main"`` entry point, and adds one
last stderr line ``@perfbench <ready> <done> <kernels>``: the
``time.monotonic()`` readings once ``treebed.cli`` is imported and once
``main`` has returned, and ``treebed.kernels.IMPLEMENTATION``.  The clock
is system-wide, so the parent can subtract its own spawn reading.
"""

import sys
import time

MARK = "@perfbench"


def kernel_implementation() -> str:
    try:
        from treebed.kernels import IMPLEMENTATION
    except ImportError:
        return "absent"
    return IMPLEMENTATION


def run() -> int:
    from treebed.cli import main

    ready = time.monotonic()
    code = main(sys.argv[1:])
    done = time.monotonic()
    sys.stdout.flush()
    sys.stderr.write(f"\n{MARK} {ready!r} {done!r} {kernel_implementation()}\n")
    return code


if __name__ == "__main__":
    sys.exit(run())
