"""The balanced complete multipartite guest graph.

Vertices are the integers ``1..vertex_count`` throughout.  A guest is its
shape ``(n, p)``: two vertices are adjacent exactly when their partite sets
differ, so every count it answers comes from the partite map, and the
package keeps no edge set.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import comb
from typing import Iterable

from treebed.frozen import Frozen

__all__ = ["Guest", "check_guest_shape"]

MAX_N = 20  # largest n of a guest; the closed forms share the cap


class Guest(Frozen):
    """A balanced complete multipartite graph on ``2**n`` vertices.

    The graph is ``K_{r,...,r}`` with ``2**p`` partite sets of ``r = 2**(n-p)``
    vertices each.  Vertex ``m`` belongs to partite set ``((m - 1) % 2**p) + 1``,
    so the partite sets interleave: any window of consecutive vertices is
    spread as evenly as possible over the partite sets.  Two vertices are
    adjacent exactly when their partite sets differ, so ``(n, p)`` is the
    whole graph.
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
        if not (isinstance(m, int) and 1 <= m <= self.vertex_count):
            raise ValueError(f"vertex {m} out of range 1..{self.vertex_count}")
        return ((m - 1) % self.part_count) + 1

    @cached_property
    def partites(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(range(first, self.vertex_count + 1, self.part_count))
            for first in range(1, self.part_count + 1)
        )

    def induced_edge_count(self, subset: Iterable[int]) -> int:
        """Edges with both ends in ``subset``: all its pairs but those
        inside one partite set."""
        counts = Counter(map(self.partite_of, set(subset))).values()
        return comb(sum(counts), 2) - sum(comb(c, 2) for c in counts)

    @property
    def graph(self) -> Guest:
        """The guest itself, which answers ``vertex_count`` and
        ``edge_count``: the two fields ``perfbench/traced.py`` reads here.
        This alias goes once the benchmark reads the CLI's own statistics
        (ROADMAP item 5, step 2)."""
        return self


def check_guest_shape(n: int, p: int) -> None:
    """Raise ``ValueError`` unless ``n`` and ``p`` are integers with ``2 <= p <= n <= MAX_N``."""
    if not (isinstance(n, int) and isinstance(p, int)):
        raise ValueError(f"n and p must be integers, got n={n!r}, p={p!r}")
    if not 2 <= p <= n:
        raise ValueError(f"need 2 <= p <= n, got n={n}, p={p}")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the supported maximum of {MAX_N}")


def build_guest(n: int, p: int) -> Guest:
    """``Guest(n, p)``.

    It stays only because ``perfbench/traced.py`` imports it, and goes with
    the ``Guest.graph`` alias (ROADMAP item 5, step 2).
    """
    return Guest(n, p)
