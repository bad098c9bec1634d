#!/usr/bin/env python3
"""treebed benchmark: the CLI end to end, and a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):
``engine_n8`` and ``search`` make up the benchmark.  ``engine_sweep`` (the
n = 2..6 sweep) and ``formula_sweep`` (the n = 2..16 formula-only sweep) run
the same way by hand; they are left out of ``BENCHMARK.json`` because, with
four workloads, runs had to be too short to stay steady on a shared 2-core
host whose speed drifts by up to 1.5x for minutes at a time.

One client sends requests in a closed loop: each request is a fresh
``python3 perfbench/child.py <argv>`` process that runs ``treebed.cli.main``
exactly as the console script does, with ``TREEBED_PURE_PYTHON=1`` and the
checkout's ``src`` on ``PYTHONPATH``.  The next request starts when the
previous one has exited and its output is checked; no request starts after
``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over the run's requests of spawn to ``treebed.cli``
  imported;
* ``request_p50_s``: median request time, spawn to exit (the sample count and
  the highest percentile with ten samples beyond it are printed too);
* ``instances_per_s``: instances produced and checked per second of run wall
  time, a sweep row counting as one instance;
* ``peak_rss_mb``: the highest ``ru_maxrss`` of any request process.

``--trace 1`` runs each request twice, untraced through the CLI and traced
through ``traced.py``, checks that both print the same bytes, and reports
per-layer metrics as means per traced request: the self time of each span
(``<module>.<layer>_s``), the work counts, and the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it name the environment, every
metric with its unit, the error rate and every failed check.  The exit code
is 0 when every output was correct, 1 when one was not, 2 on a usage error
or when the checkout holds no ``src/treebed``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from child import MARK
from workloads import WORKLOADS, check, load_reference, requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Runs are pinned to the pure-Python kernels; "absent" means the kernel
# dispatch module is gone, which leaves only pure Python.
PURE_KERNELS = ("python", "absent")
REQUEST_TIMEOUT_S = 60.0   # the slowest request takes ~5 s on a 2.1 GHz core

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SPAN_LAYERS = (
    "cli.command", "cli.emit", "graphs.build_guest", "hosts.build", "hosts.cut_family",
    "embedding.route", "embedding.congestion", "embedding.cut_conditions",
    "formulas.closed_form", "search.exhaustive", "search.local",
)
COUNTS = (
    "graphs.guest_edges", "hosts.cuts", "embedding.routed_edges", "embedding.route_steps",
    "embedding.cut_checks", "formulas.calls", "search.exhaustive_explored",
    "search.local_explored",
)


def child_env() -> dict:
    env = dict(os.environ)
    env["TREEBED_PURE_PYTHON"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: str
    start: float
    end: float
    maxrss_mb: float


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF; kill the process at the deadline."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            wait = None if deadline == math.inf else max(0.0, deadline - time.monotonic())
            events = sel.select(wait)
            if not events and time.monotonic() >= deadline:
                proc.kill()
                deadline = math.inf
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(script: str, argv, env: dict) -> Outcome:
    """Run ``perfbench/<script> argv`` to exit; resource usage from ``wait4``."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    out, err = _drain(proc, start + REQUEST_TIMEOUT_S)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out, err.decode(errors="replace"), start, end,
                   usage.ru_maxrss / 1024)


def parse_stamp(stderr: str):
    """``(ready, done, kernels)`` from child.py's last stderr line, or None."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK + " "):
            _, ready, done, kernels = line.split()
            return float(ready), float(done), kernels
    return None


def request_errors(request, outcome: Outcome, reference, kernels: set):
    """(errors, stamp) for one CLI request; adds its kernels to ``kernels``."""
    errors = check(request, outcome.code, outcome.stdout, reference)
    stamp = parse_stamp(outcome.stderr)
    if stamp is None:
        errors.append("no timing line on stderr: " + outcome.stderr.strip()[-200:])
    else:
        kernels.add(stamp[2])
        if stamp[2] not in PURE_KERNELS:
            errors.append(f"kernels {stamp[2]!r}, but runs are pinned to pure Python")
    return errors, stamp


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile above 50 with at least ten samples beyond it."""
    q = math.floor(100 * (1 - 10 / count)) if count > 10 else 0
    return q if q > 50 else None


def measure(workload, seed, seconds, reference, env, report, kernels):
    """Closed loop of untraced requests; returns (attempted, failed, metrics)."""
    stream = requests(workload, seed, reference)
    times, setups = [], []
    attempted = failed = instances = 0
    peak = 0.0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        request = next(stream)
        outcome = spawn("child.py", request.argv, env)
        attempted += 1
        errors, stamp = request_errors(request, outcome, reference, kernels)
        if errors:
            failed += 1
            report(f"FAIL request {attempted}: treebed {' '.join(request.argv)}: "
                   + "; ".join(errors))
        else:
            instances += request.instances
        times.append(outcome.end - outcome.start)
        if stamp is not None:
            setups.append(stamp[0] - outcome.start)
        peak = max(peak, outcome.maxrss_mb)
    wall = time.monotonic() - start
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "request_p50_s": statistics.median(times),
        "instances_per_s": instances / wall,
        "peak_rss_mb": peak,
    }
    report(f"requests = {attempted}, error_rate = {failed / attempted:.4f}, "
           f"wall = {wall:.3f} s")
    q = tail_percentile(len(times))
    if q is None:
        report(f"request tail: {len(times)} samples support no percentile above p50")
    else:
        report(f"request_p{q}_s = {percentile(times, q):.6f} s ({len(times)} samples)")
    return attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def self_times(spans) -> dict[str, float]:
    """Span duration minus the time its direct children cover, summed by name."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - child_time[index]
    return totals


def run_traced(argv, env):
    """Run traced.py; returns (parsed JSON or None, error text)."""
    outcome = spawn("traced.py", argv, env)
    if outcome.code != 0:
        return None, f"traced run exited {outcome.code}: {outcome.stderr.strip()[-300:]}"
    try:
        return json.loads(outcome.stdout), ""
    except ValueError:
        return None, "traced run printed no JSON"


def measure_traced(workload, seed, seconds, reference, env, report, kernels):
    """Closed loop of (untraced, traced) request pairs; per-layer metrics."""
    stream = requests(workload, seed, reference)
    spans = []                       # (request id, name, start, end, parent)
    layer_time, counts = Counter(), Counter()
    traced_total = untraced_total = 0.0
    rss_growth, first = [], None
    attempted = failed = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        request = next(stream)
        attempted += 1
        # Alternate which of the pair runs first, so that neither gains from
        # the other's warm caches in the overhead ratio.
        if attempted % 2:
            traced, error = run_traced(request.argv, env)
        outcome = spawn("child.py", request.argv, env)
        if not attempted % 2:
            traced, error = run_traced(request.argv, env)
        errors, stamp = request_errors(request, outcome, reference, kernels)
        if traced is None:
            errors.append(error)
        else:
            if traced["stdout"].encode() != outcome.stdout:
                errors.append("traced output differs from the CLI output")
            if traced["code"] != outcome.code:
                errors.append(f"traced exit {traced['code']} != CLI exit {outcome.code}")
            steps = traced["counts"].get("embedding.route_steps", 0)
            if not errors and steps != _reported_direct(request, outcome):
                errors.append("route steps differ from the direct wirelength printed")
            if first is None:
                first = (request, traced["counts"])
            spans.extend((attempted, *span) for span in traced["spans"])
            layer_time.update(self_times(traced["spans"]))
            counts.update(traced["counts"])
            if traced["rss_growth_mb"] is not None:
                rss_growth.append(traced["rss_growth_mb"])
            if stamp is not None:
                traced_total += traced["done"] - traced["ready"]
                untraced_total += stamp[1] - stamp[0]
        if errors:
            failed += 1
            report(f"FAIL traced request {attempted}: treebed {' '.join(request.argv)}: "
                   + "; ".join(errors))

    if first is not None:
        attempted += 1
        again, error = run_traced(first[0].argv, env)
        if again is None or again["counts"] != first[1]:
            failed += 1
            report(f"FAIL repeat of request 1: work counts differ ({error or again['counts']})")

    traced_requests = max(1, len({span[0] for span in spans}))
    request_time = sum(end - start for _, name, start, end, _ in spans if name == "cli.command")
    metrics = {f"{name}_s": (layer_time[name] / traced_requests, "s") for name in SPAN_LAYERS}
    metrics.update({name: (counts[name] / traced_requests, "count") for name in COUNTS})
    metrics["embedding.rss_growth_mb"] = (
        statistics.mean(rss_growth) if rss_growth else 0.0, "MB")
    metrics["trace.request_s"] = (request_time / traced_requests, "s")
    metrics["trace.requests"] = (traced_requests, "count")
    metrics["trace.overhead_frac"] = (
        traced_total / untraced_total - 1 if untraced_total else 0.0, "ratio")
    if request_time:
        share = (layer_time["embedding.route"] + layer_time["embedding.cut_conditions"])
        report(f"route + cut_conditions = {share / request_time:.3f} of "
               f"{request_time:.3f} s traced request time")
    report(f"spans = {len(spans)}, error_rate = {failed / attempted:.4f}")
    return attempted, failed, metrics


def _reported_direct(request, outcome) -> int | None:
    """The direct wirelength the CLI printed, summed over sweep rows."""
    text = outcome.stdout.decode()
    if request.command != "sweep":
        return json.loads(text).get("direct") if text.startswith("{") else None
    lines = text.splitlines()
    column = lines[0].split(",").index("direct")
    return sum(int(cells[column] or 0) for cells in (line.split(",") for line in lines[1:]))


def environment(workload, seed, seconds, trace, kernels) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "treebed").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "kernels": ",".join(sorted(kernels)), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def kernel_check_errors(env) -> list[str]:
    """Compiled-vs-pure kernel equality, when the extension is built."""
    if not any((SRC / "treebed").glob("_kernels*.so")):
        return []
    outcome = spawn("kernel_check.py", [], env)
    if outcome.code != 0:
        return [f"compiled kernels disagree with the pure ones: {outcome.stderr.strip()}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treebed benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treebed" / "cli.py").is_file():
        print(f"error: no treebed sources under {SRC}", file=sys.stderr)
        return 2

    compileall.compile_dir(str(SRC), quiet=1)
    env = child_env()
    reference = load_reference()

    def report(line):
        print(line, flush=True)

    errors = kernel_check_errors(env) if args.workload == "search" else []
    for error in errors:
        report("FAIL " + error)
    loop = measure_traced if args.trace else measure
    kernels = set()
    attempted, failed, metrics = loop(
        args.workload, args.seed, args.seconds, reference, env, report, kernels)
    failed += len(errors)
    attempted += len(errors)
    report("env " + json.dumps(
        environment(args.workload, args.seed, args.seconds, args.trace, kernels)))
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
