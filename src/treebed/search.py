"""Search over embeddings: exact minimum over label partitions, 2-swap local search.

Both searches use the guest's partite quotient.  Two vertices of one
partite set of ``K_{r,...,r}`` have the same neighbors, so the wirelength of
an embedding depends only on how it splits the host labels into ``2**p``
unordered blocks of ``r`` labels, one block per partite set:

    WL = sum of d over all label pairs - sum of d over pairs inside a block.

The exhaustive search enumerates those partitions instead of bijections,
and the local search prices a swap from per-block distance sums.  Both run
in pure Python on the host's label distance rows, which are built from the
host's routing in-trees only when a search asks for them.  All randomness comes
from a self-contained SplitMix64 generator, so results are reproducible
across platforms and Python versions.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from treebed.embedding import Embedding, _vertex_count
from treebed.errors import DEFAULT_PARTITION_BUDGET, BudgetExceededError
from treebed.graphs import Guest
from treebed.hosts import HostTree

__all__ = [
    "SearchResult",
    "exhaustive_min_wirelength",
    "local_search_min",
]

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


def _instance_tables(guest: Guest, host: HostTree) -> tuple[int, list[list[int]]]:
    """Vertex count and the 0-based label distance rows of the host.

    Row ``a`` counts the edges on every label's route to label ``a + 1``.
    """
    count = _vertex_count(guest, host)
    links = host.links
    steps = [1] * links.spill + [0]
    return count, [links.route_sums(a, steps)[1:] for a in range(1, count + 1)]


def _partition_count(nv: int, parts: int) -> int:
    """Number of ways to split ``nv`` labels into ``parts`` unordered equal blocks."""
    size = nv // parts
    return factorial(nv) // (factorial(size) ** parts * factorial(parts))


def _min_wirelength_partitions(nv, rows, parts):
    """Minimize the multipartite wirelength over all label partitions.

    Parameters
    ----------
    nv:
        Number of labels, ``0..nv-1``; a multiple of ``parts``.
    rows:
        ``rows[x][y]`` is the distance between labels ``x`` and ``y``.
    parts:
        Number of partite sets; each block holds ``nv // parts`` labels.

    Labels join blocks in increasing order: each either joins an open block
    that is not full or opens the next empty one, so every partition is met
    once, with its blocks ordered by their smallest label.  The
    within-block distance sum grows as labels join.

    Returns ``(best_total, best_blocks, explored)``: the minimum
    wirelength, the blocks of the first partition that attains it (each in
    increasing label order), and the number of partitions evaluated.
    """
    size = nv // parts
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
    total = sum(map(sum, rows)) // 2
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
    ``budget``.
    """
    count = _vertex_count(guest, host)
    parts = guest.part_count
    planned = _partition_count(count, parts)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} label partitions exceed the budget of {budget}"
        )
    rows = _instance_tables(guest, host)[1]
    best, blocks, explored = _min_wirelength_partitions(count, rows, parts)
    # Partite set j + 1 holds the vertices j + 1, j + 1 + parts, ...
    assignment = [0] * count
    for j, block in enumerate(blocks):
        assignment[j::parts] = [lab + 1 for lab in block]
    return SearchResult(best, Embedding(assignment), explored, exhaustive=True)


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
    are counted but not priced.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    count, rows = _instance_tables(guest, host)
    parts = guest.part_count
    total = sum(map(sum, rows)) // 2
    pairs_per_pass = count * (count - 1) // 2
    # Later vertices in other partite sets, in scan order; never empty,
    # since vertex a + 1 lies in the next set.
    partners = [
        [b for b in range(a + 1, count) if (b - a) % parts] for a in range(count - 1)
    ]

    rng = _SplitMix64(seed)
    explored = 0

    def fresh() -> list[int]:
        perm = list(range(count))
        rng.shuffle(perm)
        return perm

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
            for a, others in enumerate(partners):
                la = perm[a]
                ta = own[a]
                da = rows[la]
                keep = ta[la]
                deltas = [
                    keep - ta[lb] + tb[lb] - tb[la] + 2 * da[lb]
                    for lb, tb in ((perm[b], own[b]) for b in others)
                ]
                low = min(deltas)
                if low < best_delta:
                    best_delta = low
                    swap = (a, others[deltas.index(low)])
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

    current = fresh()
    table, value = start(current)
    explored += 1
    best_value, best_perm = value, tuple(current)

    for it in range(iterations):
        if it > 0:
            current = fresh()
            table, value = start(current)
            explored += 1
            if value < best_value:
                best_value, best_perm = value, tuple(current)
        value = descend(current, table, value)
        if value < best_value:
            best_value, best_perm = value, tuple(current)

    witness = Embedding(lab + 1 for lab in best_perm)
    return SearchResult(best_value, witness, explored, exhaustive=False)
