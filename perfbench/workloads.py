"""Seeded request streams for the four workloads, and the output checks.

A request is the argv a user would type after ``treebed``.  Each workload
yields an endless stream of them from one ``random.Random(seed)``; the same
seed always gives the same stream.  ``check`` compares a request's exit code
and stdout with the reference values in ``reference.json``, which were
recorded once from the program and do not depend on the run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ENGINE_N = 8            # the CLI's ENGINE_MAX_N: 256 vertices
LOCAL_SEARCH_N = 6
LOCAL_SEARCH_ITERS = 2  # about 1 s per request on one 2.1 GHz core

# The three fixed sweeps whose stdout bytes are pinned in reference.json.
SWEEP_ENGINE = ("sweep", "--n-min", "2", "--n-max", "6")
SWEEP_FORMULA = ("sweep", "--n-min", "2", "--n-max", "16", "--engine", "off")
SWEEP_EXHAUSTIVE = ("sweep", "--n-min", "3", "--n-max", "3", "--exhaustive")
SWEEPS = (SWEEP_ENGINE, SWEEP_FORMULA, SWEEP_EXHAUSTIVE)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    instances: int             # sweep rows, or 1 for a single instance
    swapped: bool = False      # carries a cross-partite --swap: must exit 1

    @property
    def command(self) -> str:
        return self.argv[0]


def sweep_key(argv) -> str:
    return " ".join(argv)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_request(argv, reference) -> Request:
    return Request(argv, reference["sweeps"][sweep_key(argv)]["rows"])


# One cycle of engine_n8 shapes, (n1, p) in request order: blocks of a
# chained host with a swap, the single tree, a chained host, the single tree.
# Half the requests use the single tree (n1 = 8) and one in four carries a
# swap; the cycle covers every n1 and every p.  n1 = 1 (about 4 s and 215 MB
# on a 2.1 GHz core, the heaviest shape) comes first, so every run includes
# the peak RSS shape.  Swapped requests keep p <= 7 (see _cross_partite_swap);
# at n1 = 1, p is 5 or 6, where the guest has within 3% of its most edges.
ENGINE_CYCLE = (
    (1, 6), (8, 2), (5, 8), (8, 5),
    (2, 3), (8, 7), (6, 4), (8, 3),
    (3, 7), (8, 8), (1, 5), (8, 6),
    (7, 2), (8, 4), (4, 6), (8, 8),
)


def _engine_n8(rng: random.Random, reference):
    """`wirelength` and `verify` requests at n = 8 over ``ENGINE_CYCLE``.

    The (command, host) pairs fill each block of four in a Latin square, so
    each pair meets each slot once per cycle.  The seed draws the sibling
    layout variants and the swapped labels.  Shapes and p do not depend on
    the seed: a run holds a few dozen requests at most, and with seeded
    shapes the medians of 25 s runs moved by 20-30% between seeds.
    """
    pairs = [(cmd, host) for cmd in ("wirelength", "verify")
             for host in ("binary", "sibling")]
    while True:
        for index, (n1, p) in enumerate(ENGINE_CYCLE):
            block, slot = divmod(index, 4)
            cmd, host = pairs[(slot + block) % 4]
            argv = [cmd, "--n", str(ENGINE_N), "--p", str(p), "--n1", str(n1), "--host", host]
            if host == "sibling":
                argv += ["--variant", str(rng.randrange(4))]
            swapped = slot == 0
            if swapped:
                argv += ["--swap", *map(str, _cross_partite_swap(rng, p))]
            yield Request(tuple(argv), 1, swapped=swapped)


def _cross_partite_swap(rng: random.Random, p: int) -> tuple[int, int]:
    """Labels A <= 128 < B from different partite sets.

    With n1 < 8 the host chains at least two blocks, and its chain cut after
    the first half isolates labels 1..128, a multiple of 2**p for p <= 7, so
    every partite set has exactly 128 / 2**p vertices inside.  Swapping A out
    for B unbalances that preimage, so `preimages_optimal` must fail.  (Guest
    vertex m lies in partite set (m - 1) mod 2**p.)
    """
    half = 1 << (ENGINE_N - 1)
    a = rng.randint(1, half)
    while True:
        b = rng.randint(half + 1, 2 * half)
        if (a - b) % (1 << p):
            return a, b


def _search(rng: random.Random, reference):
    """Alternate the exhaustive n = 3 sweep with a seeded local search.

    p stays in 2..5: at p = n = 6 the guest is complete, every embedding is
    optimal, and the descent ends at once.
    """
    exhaustive = _sweep_request(SWEEP_EXHAUSTIVE, reference)
    ps = _bag(rng, range(2, LOCAL_SEARCH_N))
    n1s = _bag(rng, range(1, LOCAL_SEARCH_N + 1))
    while True:
        yield exhaustive
        p, n1, seed = next(ps), next(n1s), rng.randrange(1 << 32)
        yield Request(
            ("wirelength", "--n", str(LOCAL_SEARCH_N), "--p", str(p), "--n1", str(n1),
             "--local-search", str(LOCAL_SEARCH_ITERS), "--seed", str(seed)),
            1,
        )


def _bag(rng: random.Random, values):
    """Draws that use up a seeded permutation of ``values`` before repeating,
    so that every run sees nearly the same mix."""
    values = list(values)
    while True:
        yield from rng.sample(values, len(values))


def _repeat(argv):
    def stream(rng, reference):
        request = _sweep_request(argv, reference)
        while True:
            yield request
    return stream


WORKLOADS = {
    "engine_n8": _engine_n8,
    "engine_sweep": _repeat(SWEEP_ENGINE),
    "formula_sweep": _repeat(SWEEP_FORMULA),
    "search": _search,
}


def requests(workload: str, seed: int, reference: dict):
    return WORKLOADS[workload](random.Random(seed), reference)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check(request: Request, code: int, stdout: bytes, reference: dict) -> list[str]:
    """Every way the output differs from the expected one; empty when correct."""
    argv = request.argv
    if request.command == "sweep":
        errors = [] if code == 0 else [f"exit {code}, expected 0"]
        want = reference["sweeps"][sweep_key(argv)]["sha256"]
        if hashlib.sha256(stdout).hexdigest() != want:
            errors.append("stdout differs from the recorded sweep output")
        return errors

    want_code = 1 if request.swapped else 0
    errors = [] if code == want_code else [f"exit {code}, expected {want_code}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"]
    n, p = int(_flag(argv, "--n")), int(_flag(argv, "--p"))
    n1 = int(_flag(argv, "--n1", n))
    host = _flag(argv, "--host", "binary")
    expected = reference["closed_form"][f"{n},{p},{n1},{host}"]
    shape = (out.get("n"), out.get("p"), out.get("n1"), out.get("host_kind"))
    if shape != (n, p, n1, host):
        errors.append(f"reported instance {shape}, expected {(n, p, n1, host)}")
    direct, partition = out.get("direct"), out.get("via_partition")
    if direct != partition:
        errors.append(f"direct {direct} != via_partition {partition}")
    if request.command == "wirelength" and out.get("closed_form") != expected:
        errors.append(f"closed_form {out.get('closed_form')} != reference {expected}")
    if request.swapped:
        if out.get("cut_conditions_ok") is not False:
            errors.append("swapped embedding passed the cut conditions")
        if not isinstance(direct, int) or direct < expected:
            errors.append(f"swapped direct {direct} beats the minimum {expected}")
        return errors
    if direct != expected:
        errors.append(f"direct {direct} != reference {expected}")
    if out.get("cut_conditions_ok") is not True:
        errors.append("cut conditions failed on the canonical embedding")
    if "local_search_min" in out and not out["local_search_min"] >= expected:
        errors.append(f"local search {out['local_search_min']} beats the minimum {expected}")
    return errors
