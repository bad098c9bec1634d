"""Undirected simple graphs and balanced complete multipartite guests.

Vertices are the integers ``1..vertex_count`` throughout.  Edges are stored
as ``(min, max)`` tuples so every edge has exactly one representation.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Collection, Iterable

from treebed.frozen import Frozen

__all__ = [
    "Graph",
    "Guest",
    "build_complete_multipartite",
    "build_guest",
    "check_guest_shape",
    "induced_by_partite_counts",
    "induced_edge_count",
]

MAX_N = 20  # largest n of a guest; the closed forms share the cap


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph(Frozen):
    """Immutable undirected simple graph.

    Parameters
    ----------
    vertex_count:
        Number of vertices; the vertex set is ``1..vertex_count``.
    edges:
        Normalized ``(min, max)`` pairs with distinct endpoints in range.
    """

    _fields = ("vertex_count", "edges")
    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertex_count: int, edges: frozenset[tuple[int, int]]) -> None:
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be positive, got {vertex_count}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= vertex_count):
                raise ValueError(f"edge ({u}, {v}) is out of range or not normalized")
        self._set(vertex_count=vertex_count, edges=edges)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph, normalizing edge orientation along the way."""
        return cls(vertex_count, frozenset(_normalize_edge(u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        """Neighbor sets keyed by vertex; includes isolated vertices."""
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.vertex_count + 1)}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks: ``adjacency_masks[v - 1]`` has bit ``w - 1`` set
        for every neighbor ``w`` of ``v``."""
        return tuple(
            sum(1 << (w - 1) for w in self.adjacency[v])
            for v in range(1, self.vertex_count + 1)
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    @property
    def edge_count(self) -> int:
        return len(self.edges)


class Guest(Frozen):
    """A balanced complete multipartite graph on ``2**n`` vertices.

    The graph is ``K_{r,...,r}`` with ``2**p`` partite sets of ``r = 2**(n-p)``
    vertices each.  Vertex ``m`` belongs to partite set ``((m - 1) % 2**p) + 1``,
    so the partite sets interleave: any window of consecutive vertices is
    spread as evenly as possible over the partite sets.  Two vertices are
    adjacent exactly when their partite sets differ, so ``(n, p)`` is the
    whole graph; ``graph`` builds the edge set only when asked.
    """

    _fields = ("n", "p")
    n: int
    p: int

    def __init__(self, n: int, p: int) -> None:
        check_guest_shape(n, p)
        self._set(n=n, p=p)

    @property
    def vertex_count(self) -> int:
        return 1 << self.n

    @property
    def edge_count(self) -> int:
        return self.vertex_count * self.degree // 2

    @property
    def part_count(self) -> int:
        return 1 << self.p

    @property
    def part_size(self) -> int:
        return 1 << (self.n - self.p)

    @property
    def degree(self) -> int:
        """Common degree: everything outside the vertex's own partite set."""
        return self.vertex_count - self.part_size

    def partite_of(self, m: int) -> int:
        if not 1 <= m <= self.vertex_count:
            raise ValueError(f"vertex {m} out of range 1..{self.vertex_count}")
        return ((m - 1) % self.part_count) + 1

    @cached_property
    def partites(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(range(first, self.vertex_count + 1, self.part_count))
            for first in range(1, self.part_count + 1)
        )

    def induced_edge_count(self, subset: Iterable[int]) -> int:
        """Edges with both ends in ``subset``."""
        return induced_by_partite_counts(
            Counter(map(self.partite_of, set(subset))).values()
        )

    @cached_property
    def graph(self) -> Graph:
        """The edge set, built on first use; only tests and ``perfbench`` read it."""
        parts = self.part_count
        pairs = combinations(range(1, self.vertex_count + 1), 2)
        # u and v share a partite set exactly when parts divides v - u.
        edges = frozenset((u, v) for u, v in pairs if (v - u) % parts)
        return Graph(self.vertex_count, edges)


def induced_by_partite_counts(counts: Collection[int]) -> int:
    """Edges of a balanced complete multipartite guest induced by a vertex
    set with ``counts[j]`` vertices in partite set ``j``: all its pairs but
    those inside one partite set."""
    return comb(sum(counts), 2) - sum(comb(c, 2) for c in counts)


def build_complete_multipartite(part_sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph with the given partite set sizes.

    Vertices are numbered block by block: the first partite set gets
    ``1..part_sizes[0]``, the second the next block, and so on.  Two
    vertices are adjacent exactly when they lie in different blocks.
    """
    sizes = list(part_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two partite sets")
    if any(s < 1 for s in sizes):
        raise ValueError("partite set sizes must be positive")
    block_of: list[int] = []
    for b, size in enumerate(sizes):
        block_of.extend([b] * size)
    count = len(block_of)
    edges = frozenset(
        (u, v)
        for u in range(1, count + 1)
        for v in range(u + 1, count + 1)
        if block_of[u - 1] != block_of[v - 1]
    )
    return Graph(count, edges)


def check_guest_shape(n: int, p: int) -> None:
    """Raise ``ValueError`` unless ``2 <= p <= n <= MAX_N``."""
    if not 2 <= p <= n:
        raise ValueError(f"need 2 <= p <= n, got n={n}, p={p}")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the supported maximum of {MAX_N}")


def build_guest(n: int, p: int) -> Guest:
    """Guest graph on ``2**n`` vertices with ``2**p`` interleaved partite sets.

    Requires ``2 <= p <= n <= MAX_N`` (see ``check_guest_shape``).
    """
    return Guest(n, p)


def induced_edge_count(graph: Graph, subset: Iterable[int]) -> int:
    """Number of edges with both endpoints in ``subset``."""
    chosen = set(subset)
    for v in chosen:
        if not 1 <= v <= graph.vertex_count:
            raise ValueError(f"vertex {v} out of range 1..{graph.vertex_count}")
    mask = sum(1 << (v - 1) for v in chosen)
    masks = graph.adjacency_masks
    # Each induced edge is seen from both endpoints.
    return sum((masks[v - 1] & mask).bit_count() for v in chosen) // 2
