"""Maximum induced-edge counts for balanced complete multipartite graphs.

For ``K_{r,...,r}`` with ``p`` partite sets, the densest k-subset takes the
vertices as evenly as possible from as few partite sets as necessary; its
edge count has a closed form used all over the wirelength formulas.  The
brute-force counterpart exists to check that claim on small instances.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, NamedTuple

from treebed.errors import BudgetExceededError
from treebed.graphs import Graph, Guest

__all__ = [
    "MspResult",
    "max_subgraph_edges_closed_form",
    "max_subgraph_edges_bruteforce",
    "is_optimal_set",
]

DEFAULT_SUBSET_BUDGET = 10_000_000


class MspResult(NamedTuple):
    """Outcome of a maximum-subgraph search: size, value, and one witness."""

    k: int
    max_edges: int
    witness: frozenset[int]


def max_subgraph_edges_closed_form(p_parts: int, r: int, k: int) -> int:
    """Largest edge count induced by k vertices of ``K_{r,...,r}``.

    ``p_parts`` is the number of partite sets, each of size ``r``.  Writing
    ``k = q * p_parts + j`` with ``0 <= j < p_parts``, an optimal subset has
    ``j`` partite sets contributing ``q + 1`` vertices and the rest ``q``:

        q^2 * C(p_parts, 2) + j*q*(p_parts - 1) + C(j, 2)

    The expression collapses to ``C(k, 2)`` while ``k < p_parts`` (no pair
    shares a partite set yet) and to ``q^2 * C(p_parts, 2)`` at multiples.
    """
    if p_parts < 2:
        raise ValueError(f"need at least two partite sets, got {p_parts}")
    if r < 1:
        raise ValueError(f"partite set size must be positive, got {r}")
    if not 0 <= k <= p_parts * r:
        raise ValueError(f"k={k} out of range 0..{p_parts * r}")
    q, j = divmod(k, p_parts)
    return q * q * p_parts * (p_parts - 1) // 2 + j * q * (p_parts - 1) + j * (j - 1) // 2


def _max_induced_edges(nv, adj_masks, k):
    """Maximize induced edge count over all k-subsets of ``0..nv-1``.

    ``adj_masks[v]`` is the neighbor bitmask of vertex ``v``.  Returns
    ``(best_count, witness, explored)`` with the lexicographically first
    witness tuple and the number of subsets examined.
    """
    best = -1
    witness = None
    explored = 0
    for combo in combinations(range(nv), k):
        mask = 0
        count = 0
        for v in combo:
            count += (adj_masks[v] & mask).bit_count()
            mask |= 1 << v
        explored += 1
        if count > best:
            best = count
            witness = combo
    return best, witness, explored


def max_subgraph_edges_bruteforce(
    graph: Graph, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> MspResult:
    """Exhaustive maximum over all k-subsets of ``graph``.

    Enumerates subsets in lexicographic order, so the witness is the
    lexicographically first maximizer.  Refuses to start when
    ``C(vertex_count, k)`` exceeds ``budget``.
    """
    count = graph.vertex_count
    if not 0 <= k <= count:
        raise ValueError(f"k={k} out of range 0..{count}")
    subsets = comb(count, k)
    if subsets > budget:
        raise BudgetExceededError(
            f"{subsets} subsets of size {k} exceed the budget of {budget}"
        )
    best, combo, _explored = _max_induced_edges(count, graph.adjacency_masks, k)
    witness = frozenset(v + 1 for v in combo)
    return MspResult(k=k, max_edges=best, witness=witness)


def is_optimal_set(guest: Guest, subset: Iterable[int]) -> bool:
    """Whether ``subset`` induces the maximum edge count for its size."""
    chosen = set(subset)
    induced = guest.induced_edge_count(chosen)
    return induced == max_subgraph_edges_closed_form(
        guest.part_count, guest.part_size, len(chosen)
    )
