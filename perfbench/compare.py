#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits, metric by metric.

Usage: python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the saved stdout of ``run.py`` runs, one file per run;
files with the same name in both directories form a pair (for example
``engine_n8-7.txt`` from ``--workload engine_n8 --seed 7``).  For every
workload and metric this prints both medians and quartiles, the change of
the medians, how many pairs the after side won, and a verdict: ``gain``
when the after side wins at least nine tenths of the pairs and the medians
differ by more than the before side's quartile spread, ``regression`` when
the after median is worse by more than the metric's bound in
``BENCHMARK.json``, otherwise ``unchanged`` or ``unresolved`` (spread wider
than the bound).

Refuses, with exit code 2, to compare runs whose kernel implementation,
Python version or core count differ.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

PINNED = ("kernels", "python", "nproc")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    """{file name: (env, result)} for every run file in the directory."""
    runs = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        runs[path.name] = (env, json.loads(lines[-1]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load(Path(arg)) for arg in argv)
    pinned = {tuple(env[key] for key in PINNED) for env, _ in [*before.values(), *after.values()]}
    if len(pinned) > 1:
        print(f"error: runs differ in {', '.join(PINNED)}: {sorted(pinned)}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    pairs = defaultdict(list)            # (workload, metric) -> [(before, after)]
    for name in sorted(before.keys() & after.keys()):
        (env, old), (_, new) = before[name], after[name]
        for metric in spec.keys() & old["metrics"].keys() & new["metrics"].keys():
            pairs[env["workload"], metric].append(
                (old["metrics"][metric]["value"], new["metrics"][metric]["value"]))
    for (workload, metric), values in sorted(pairs.items()):
        old = [a for a, _ in values]
        new = [b for _, b in values]
        lower = spec[metric]["better"] == "lower"
        o1, om, o3 = quartiles(old)
        n1, nm, n3 = quartiles(new)
        wins = sum((b < a) if lower else (b > a) for a, b in values)
        worse = (nm - om) / om if lower else (om - nm) / om
        if wins >= 0.9 * len(values) and abs(nm - om) > o3 - o1:
            verdict = "gain"
        elif worse > spec[metric]["bound"]:
            verdict = "regression"
        elif (o3 - o1) / om > spec[metric]["bound"]:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print(f"{workload:14} {metric:16} before {om:.6g} [{o1:.6g}, {o3:.6g}]  "
              f"after {nm:.6g} [{n1:.6g}, {n3:.6g}]  change {(nm - om) / om:+.1%}  "
              f"wins {wins}/{len(values)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
