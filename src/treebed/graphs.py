"""The balanced complete multipartite guest graph.

Vertices are the integers ``1..vertex_count`` throughout.  A guest is its
shape ``(n, p)``: two vertices are adjacent exactly when their partite sets
differ, so every count it answers comes from the partite map.  ``Graph``,
a vertex count and a set of ``(min, max)`` edge tuples, is only the value
of ``Guest.graph``, the edge set built on first use.
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
    "build_guest",
    "check_guest_shape",
    "induced_by_partite_counts",
]

MAX_N = 20  # largest n of a guest; the closed forms share the cap


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
