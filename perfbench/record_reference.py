#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the closed-form wirelength of every
(n, p, n1, host) with n <= 16, and the row count and stdout SHA-256 of the
three fixed sweeps.  The committed file was recorded from the commit that
introduced the benchmark; re-record only when an output change is intended.
"""

import hashlib
import json
import sys

from run import SRC, child_env, spawn
from workloads import REFERENCE_PATH, SWEEPS, sweep_key

MAX_N = 16


def main() -> int:
    sys.path.insert(0, str(SRC))
    from treebed.formulas import closed_form_wirelength

    closed = {
        f"{n},{p},{n1},{host}": closed_form_wirelength(n, p, n1=n1, sibling=host == "sibling")
        for n in range(2, MAX_N + 1)
        for p in range(2, n + 1)
        for n1 in range(1, n + 1)
        for host in ("binary", "sibling")
    }
    sweeps = {}
    for argv in SWEEPS:
        outcome = spawn("child.py", argv, child_env())
        if outcome.code != 0:
            print(f"error: treebed {sweep_key(argv)} exited {outcome.code}", file=sys.stderr)
            return 1
        sweeps[sweep_key(argv)] = {
            "rows": outcome.stdout.count(b"\n") - 1,
            "sha256": hashlib.sha256(outcome.stdout).hexdigest(),
        }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"closed_form": closed, "sweeps": sweeps}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
