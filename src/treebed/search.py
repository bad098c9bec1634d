"""Search over embeddings: exact minimum over label partitions, 2-swap local search.

Both searches use the guest's partite quotient.  Two vertices of one
partite set of ``K_{r,...,r}`` have the same neighbors, so the wirelength of
an embedding depends only on how it splits the host labels into ``2**p``
unordered blocks of ``r`` labels, one block per partite set:

    WL = sum of d over all label pairs - sum of d over pairs inside a block.

The exhaustive search enumerates those partitions instead of bijections,
and the local search prices a swap from per-block distance sums.  Both run
in pure Python on the host's label distance rows, which the host's links
count (``HostLinks.distances``) only when a search asks for them.  All
randomness comes from a self-contained SplitMix64 generator, so results
are reproducible across platforms and Python versions.
"""

from __future__ import annotations

from math import lgamma, log
from typing import Iterator, NamedTuple

from treebed.embedding import Embedding, _vertex_count
from treebed.errors import DEFAULT_PARTITION_BUDGET, BudgetExceededError
from treebed.graphs import Guest
from treebed.hosts import HostTree

__all__ = [
    "SearchResult",
    "exhaustive_min_wirelength",
    "local_search_min",
]

# Refusals up to this many labels (n <= 8) print the exact partition count.
# Beyond, the count can take seconds to build and have more digits than
# Python prints, so they print its order of magnitude.
_EXACT_LABELS = 256
_MASK64 = (1 << 64) - 1
# SplitMix64 reference constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class _SplitMix64:
    """Minimal deterministic 64-bit generator; enough for shuffles."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        # Rejection sampling keeps the draw unbiased.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def shuffle(self, seq: list[int]) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]


class SearchResult(NamedTuple):
    """Outcome of a search: value, witness embedding, work done."""

    best_value: int
    witness: Embedding
    explored: int
    exhaustive: bool


def _distance_rows(host: HostTree, count: int) -> Iterator[list[int]]:
    """The host's 0-based label distance rows, one at a time.

    Row ``a`` counts the edges on every label's route to label ``a + 1``.
    """
    return (host.links.distances(a)[1:] for a in range(1, count + 1))


def _check_budget(nv: int, parts: int, budget: int, prefix: str = "") -> None:
    """Raise ``BudgetExceededError``, its message after ``prefix``, when
    ``nv`` labels split into ``parts`` unordered equal blocks more than
    ``budget`` ways.

    The block of the smallest label left takes ``size - 1`` of the ``left``
    labels after it, ``C(left, size - 1)`` ways.  The count multiplies those
    in one factor ``(left - size + 1 + i) / i`` at a time, so each partial
    product is a whole number no smaller than the last.  Up to
    ``_EXACT_LABELS`` labels the message holds the exact count; beyond, the
    count stops as soon as it passes the budget, and the message holds its
    order of magnitude.
    """
    if not isinstance(budget, int):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    size = nv // parts
    steps = ((left - size + 1 + i, i) for left in range(nv - 1, 0, -size) for i in range(1, size))
    count = 1
    for num, den in steps:
        count = count * num // den
        if count > budget and nv > _EXACT_LABELS:
            break
    if count > budget:
        amount = count
        if nv > _EXACT_LABELS:  # log10(nv! / (size!**parts * parts!))
            digits = (lgamma(nv + 1) - parts * lgamma(size + 1) - lgamma(parts + 1)) / log(10)
            amount = f"about 10**{round(digits)}"
        raise BudgetExceededError(f"{prefix}{amount} label partitions exceed the budget of {budget}")


def _min_wirelength_partitions(nv, rows, parts):
    """Minimize the multipartite wirelength over all label partitions.

    The labels ``0..nv-1`` split into ``parts`` blocks (partite sets) of
    ``nv // parts``; ``rows[x][y]`` is the distance between labels ``x`` and
    ``y``.  Labels join blocks in increasing order: each either joins an
    open block that is not full or opens the next empty one, so every
    partition is met once, with its blocks ordered by their smallest label.
    The within-block distance sum grows as labels join, one stack frame per
    label.

    Returns ``(best_total, best_blocks, explored)``: the minimum
    wirelength, the blocks of the first partition that attains it (each in
    increasing label order), and the number of partitions evaluated.
    """
    size = nv // parts
    total = sum(map(sum, rows)) // 2
    blocks: list[list[int]] = [[] for _ in range(parts)]
    best_within = -1
    best_blocks: tuple[tuple[int, ...], ...] = ()
    explored = 0

    def place(label: int, opened: int, within: int) -> None:
        nonlocal best_within, best_blocks, explored
        if label == nv:
            explored += 1
            if within > best_within:
                best_within = within
                best_blocks = tuple(map(tuple, blocks))
            return
        row = rows[label]
        for block in blocks[:opened]:
            if len(block) < size:
                gain = sum(row[x] for x in block)
                block.append(label)
                place(label + 1, opened, within + gain)
                block.pop()
        if opened < parts:
            blocks[opened].append(label)
            place(label + 1, opened + 1, within)
            blocks[opened].pop()

    place(0, 0, 0)
    del place  # the closure holds itself, a cycle that would keep rows alive
    return total - best_within, best_blocks, explored


def exhaustive_min_wirelength(
    guest: Guest,
    host: HostTree,
    budget: int = DEFAULT_PARTITION_BUDGET,
) -> SearchResult:
    """True minimum wirelength by enumerating label partitions.

    Every embedding with the same split of labels over the partite sets has
    the same wirelength, so the search visits each split once
    (``explored`` counts them).  The witness comes from the first optimal
    split: its ``j``-th block (blocks ordered by smallest label) goes to
    partite set ``j + 1``, in increasing label order.  Refuses to start,
    before it builds the distance rows, if the number of partitions exceeds
    ``budget`` (``_check_budget``).  At ``p = n``, one label per block, it
    sums the distance rows as they stream and stores none.
    """
    count = _vertex_count(guest, host)
    parts = guest.part_count
    _check_budget(count, parts, budget)
    rows = _distance_rows(host, count)
    if parts == count:  # one label per block: one partition, no pair inside a block
        witness = Embedding(range(1, count + 1))
        return SearchResult(sum(map(sum, rows)) // 2, witness, 1, exhaustive=True)
    best, blocks, explored = _min_wirelength_partitions(count, list(rows), parts)
    # Partite set j + 1 holds the vertices j + 1, j + 1 + parts, ...
    assignment = [0] * count
    for j, block in enumerate(blocks):
        assignment[j::parts] = [lab + 1 for lab in block]
    return SearchResult(best, Embedding(assignment), explored, exhaustive=True)


def _check_local_args(seed: int, iterations: int) -> None:
    """Refuse, with ``ValueError``, a local search's seed or iterations."""
    if not (isinstance(seed, int) and isinstance(iterations, int)):
        raise ValueError(f"seed and iterations must be integers, got seed={seed!r}, "
                         f"iterations={iterations!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")


def local_search_min(
    guest: Guest, host: HostTree, seed: int, iterations: int
) -> SearchResult:
    """Best-improvement 2-swap descent with random restarts.

    Each iteration runs one descent to a local minimum: repeatedly evaluate
    every pairwise swap and apply the best strict improvement (first pair
    on ties).  Iteration 1 starts from a seeded random embedding; later
    iterations restart from fresh shuffles.  ``iterations=0`` just reports
    the seed embedding.  ``explored`` counts full evaluations plus swap
    deltas, i.e. candidate embeddings looked at.

    A table ``T[j][x]`` holds the distance from label ``x`` to the labels
    of partite set ``j``, so a swap's delta costs O(1) and applying it
    updates two rows.  Swaps inside one partite set change nothing; they
    are counted, and priced above zero so that none is chosen.
    """
    _check_local_args(seed, iterations)
    count = _vertex_count(guest, host)
    rows = list(_distance_rows(host, count))
    parts = guest.part_count
    total = sum(map(sum, rows)) // 2
    pairs_per_pass = count * (count - 1) // 2

    rng = _SplitMix64(seed)
    explored = 0

    def start(perm: list[int]) -> tuple[list[list[int]], int]:
        """Per-set distance table of ``perm`` and its wirelength."""
        table = [
            [sum(col) for col in zip(*(rows[lab] for lab in perm[j::parts]))]
            for j in range(parts)
        ]
        within = sum(table[v % parts][lab] for v, lab in enumerate(perm)) // 2
        return table, total - within

    def descend(perm: list[int], table: list[list[int]], value: int) -> int:
        nonlocal explored
        # Row of T for each vertex's own partite set; rows update in place.
        own = [table[v % parts] for v in range(count)]
        while True:
            best_delta = 0
            swap = None
            # Per vertex: its label, its own row's entry there, its own row.
            # Pairs in one partite set stay in the scan: they share a row,
            # so their delta is 2 * d(la, lb) > 0 and they are never chosen.
            cells = [(lab, row[lab], row) for lab, row in zip(perm, own)]
            for a in range(count - 1):
                la, keep, ta = cells[a]
                da = rows[la]
                # Each swap's delta, less ``keep``.
                deltas = [
                    ob - tb[la] + 2 * da[lb] - ta[lb] for lb, ob, tb in cells[a + 1:]
                ]
                low = min(deltas)
                if low + keep < best_delta:
                    best_delta = low + keep
                    swap = (a, a + 1 + deltas.index(low))
            explored += pairs_per_pass
            if swap is None:
                return value
            a, b = swap
            la, lb = perm[a], perm[b]
            ta, tb = own[a], own[b]
            for x, (dx_a, dx_b) in enumerate(zip(rows[la], rows[lb])):
                ta[x] += dx_b - dx_a
                tb[x] += dx_a - dx_b
            perm[a], perm[b] = lb, la
            value += best_delta

    best_value, best_perm = None, ()
    for _ in range(max(iterations, 1)):
        current = list(range(count))
        rng.shuffle(current)
        table, value = start(current)
        explored += 1
        if iterations:
            value = descend(current, table, value)
        if best_value is None or value < best_value:
            best_value, best_perm = value, tuple(current)

    witness = Embedding(lab + 1 for lab in best_perm)
    return SearchResult(best_value, witness, explored, exhaustive=False)
