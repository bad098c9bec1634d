"""Search over embeddings: exhaustive enumeration and 2-swap local search.

Both searches run in pure Python on flattened integer tables.  All
randomness comes from a self-contained SplitMix64 generator, so results
are reproducible across platforms and Python versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Iterable, Mapping, Sequence

from treebed.embedding import Embedding
from treebed.errors import BudgetExceededError
from treebed.graphs import Guest
from treebed.hosts import HostTree

__all__ = [
    "SearchResult",
    "exhaustive_min_wirelength",
    "local_search_min",
]

DEFAULT_BIJECTION_BUDGET = 100_000_000

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


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search: value, witness embedding, work done."""

    best_value: int
    witness: Embedding
    explored: int
    exhaustive: bool


def _instance_tables(guest: Guest, host: HostTree):
    """Flatten the instance: 0-based distance table and guest edge arrays."""
    count = guest.graph.vertex_count
    if count != host.graph.vertex_count:
        raise ValueError(
            f"guest has {count} vertices but host has {host.graph.vertex_count}"
        )
    table = host.routing.distance
    dist = [table[a][b] for a in range(1, count + 1) for b in range(1, count + 1)]
    edges = sorted(guest.graph.edges)
    edge_u = [u - 1 for u, _ in edges]
    edge_v = [v - 1 for _, v in edges]
    return count, dist, edge_u, edge_v


def _min_wirelength_bijections(nv, dist, edge_u, edge_v, first_choices=None):
    """Exhaustively minimize total edge length over all bijections.

    Parameters
    ----------
    nv:
        Number of vertices (and labels); both sides are ``0..nv-1`` here.
    dist:
        Flat row-major ``nv * nv`` distance table between labels.
    edge_u, edge_v:
        Parallel arrays of guest edge endpoints (0-based).
    first_choices:
        Optional sorted labels allowed as the image of vertex 0; ``None``
        means unrestricted.  Used for symmetry reduction by the caller.

    Returns ``(best_total, best_assignment, explored)`` where
    ``best_assignment`` is the lexicographically smallest optimal tuple
    (within the restriction) and ``explored`` counts complete bijections
    evaluated.
    """
    labels = range(nv)
    if first_choices is None:
        first_choices = labels
    pairs = list(zip(edge_u, edge_v))
    best = None
    best_perm = None
    explored = 0
    for first in first_choices:
        rest = [lab for lab in labels if lab != first]
        for tail in permutations(rest):
            perm = (first,) + tail
            total = 0
            for u, v in pairs:
                total += dist[perm[u] * nv + perm[v]]
            explored += 1
            if best is None or total < best:
                best = total
                best_perm = perm
    return best, best_perm, explored


def _label_orbit_reps(
    count: int,
    host: HostTree,
    automorphisms: Iterable[Mapping[int, int] | Sequence[int]],
) -> list[int]:
    """Smallest label of each orbit under the supplied host automorphisms.

    Fixing the image of guest vertex 1 to orbit representatives is sound
    because composing an embedding with a host automorphism preserves all
    distances, hence the wirelength.
    """
    maps = []
    for perm in automorphisms:
        if isinstance(perm, Mapping):
            mapping = {lab: perm[lab] for lab in range(1, count + 1)}
        else:
            if len(perm) != count:
                raise ValueError("automorphism sequence has the wrong length")
            mapping = {lab: perm[lab - 1] for lab in range(1, count + 1)}
        if sorted(mapping.values()) != list(range(1, count + 1)):
            raise ValueError("automorphism is not a permutation of the labels")
        for a, b in host.label_edges:
            ma, mb = mapping[a], mapping[b]
            if ((ma, mb) if ma < mb else (mb, ma)) not in host.label_edges:
                raise ValueError("supplied permutation is not a host automorphism")
        maps.append(mapping)

    parent = list(range(count + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mapping in maps:
        for a, b in mapping.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return sorted({find(lab) for lab in range(1, count + 1)})


def exhaustive_min_wirelength(
    guest: Guest,
    host: HostTree,
    budget: int = DEFAULT_BIJECTION_BUDGET,
    automorphisms: Iterable[Mapping[int, int] | Sequence[int]] | None = None,
) -> SearchResult:
    """True minimum wirelength by enumerating bijections.

    Enumeration is in lexicographic order of the assignment tuple, and the
    witness is the lexicographically smallest optimal embedding.  Passing
    host ``automorphisms`` restricts the image of vertex 1 to one label per
    orbit, shrinking the work by that factor; the witness is then smallest
    within the restricted enumeration.  Refuses to start if the number of
    embeddings to evaluate exceeds ``budget``.
    """
    count, dist, edge_u, edge_v = _instance_tables(guest, host)
    first_choices = None
    planned = factorial(count)
    if automorphisms is not None:
        reps = _label_orbit_reps(count, host, automorphisms)
        first_choices = [lab - 1 for lab in reps]
        planned = len(reps) * factorial(count - 1)
    if planned > budget:
        raise BudgetExceededError(
            f"{planned} embeddings exceed the budget of {budget}"
        )
    best, perm, explored = _min_wirelength_bijections(
        count, dist, edge_u, edge_v, first_choices
    )
    witness = Embedding(tuple(lab + 1 for lab in perm))
    return SearchResult(best, witness, explored, exhaustive=True)


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
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    count, dist, edge_u, edge_v = _instance_tables(guest, host)
    pairs = list(zip(edge_u, edge_v))
    neighbors: list[list[int]] = [[] for _ in range(count)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)

    def evaluate(perm: list[int]) -> int:
        return sum(dist[perm[u] * count + perm[v]] for u, v in pairs)

    rng = _SplitMix64(seed)
    explored = 0

    def fresh() -> list[int]:
        perm = list(range(count))
        rng.shuffle(perm)
        return perm

    current = fresh()
    value = evaluate(current)
    explored += 1
    best_value, best_perm = value, tuple(current)

    def descend(perm: list[int], value: int) -> int:
        nonlocal explored
        while True:
            best_delta = 0
            swap = None
            for a in range(count - 1):
                la = perm[a]
                for b in range(a + 1, count):
                    lb = perm[b]
                    delta = 0
                    for w in neighbors[a]:
                        if w != b:
                            pw = perm[w]
                            delta += dist[lb * count + pw] - dist[la * count + pw]
                    for w in neighbors[b]:
                        if w != a:
                            pw = perm[w]
                            delta += dist[la * count + pw] - dist[lb * count + pw]
                    explored += 1
                    if delta < best_delta:
                        best_delta = delta
                        swap = (a, b)
            if swap is None:
                return value
            a, b = swap
            perm[a], perm[b] = perm[b], perm[a]
            value += best_delta

    for it in range(iterations):
        if it > 0:
            current = fresh()
            value = evaluate(current)
            explored += 1
            if value < best_value:
                best_value, best_perm = value, tuple(current)
        value = descend(current, value)
        if value < best_value:
            best_value, best_perm = value, tuple(current)

    witness = Embedding(tuple(lab + 1 for lab in best_perm))
    return SearchResult(best_value, witness, explored, exhaustive=False)
