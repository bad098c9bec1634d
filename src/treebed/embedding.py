"""Embedding a guest into a labeled host: routing, wirelength, cut checks.

An embedding maps guest vertices bijectively onto host position labels.
Every guest edge is routed along one shortest host path, chosen by a
deterministic rule, so congestion counts are reproducible run to run.
Wirelength comes out three ways that must agree: summing routed path
lengths, summing cut congestions weighted by coverage, and (elsewhere)
closed forms.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping

from treebed import formulas
from treebed.errors import CoverageError, ConsistencyError
from treebed.graphs import Guest, induced_edge_count
from treebed.hosts import EdgeCut, HostTree, cut_family
from treebed.isoperimetric import is_optimal_set

__all__ = [
    "Embedding",
    "CutConditionReport",
    "CutReport",
    "WirelengthReport",
    "identity_embedding",
    "route",
    "wirelength_direct",
    "wirelength_via_partition",
    "edge_congestion",
    "cut_congestion",
    "congestion_lemma_value",
    "verify_cut_conditions",
    "build_report",
]


@dataclass(frozen=True)
class Embedding:
    """A bijection from guest vertices onto host labels.

    ``assignment[m - 1]`` is the label of guest vertex ``m``.  Stored as a
    tuple so embeddings hash and compare by value.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        count = len(self.assignment)
        if sorted(self.assignment) != list(range(1, count + 1)):
            raise ValueError("assignment is not a bijection onto 1..vertex_count")

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> Embedding:
        return cls(tuple(mapping[m] for m in range(1, len(mapping) + 1)))

    def label_for(self, v: int) -> int:
        return self.assignment[v - 1]

    def as_mapping(self) -> dict[int, int]:
        return {m: lab for m, lab in enumerate(self.assignment, start=1)}

    def swapped(self, a: int, b: int) -> Embedding:
        """Copy with labels ``a`` and ``b`` exchanged between their vertices."""
        seq = list(self.assignment)
        ia, ib = seq.index(a), seq.index(b)
        seq[ia], seq[ib] = b, a
        return Embedding(tuple(seq))


@dataclass(frozen=True)
class CutConditionReport:
    """The three congestion-lemma conditions for one cut.

    ``inside_avoids_cut``: no routed path between same-side guest vertices
    touches the cut.  ``crossings_cross_once``: every routed path between
    opposite sides uses exactly one cut edge.  ``preimages_optimal``: both
    preimage vertex sets induce the maximum possible edge count.
    ``lemma_value`` is ``congestion_lemma_value`` of the inside preimage;
    the first two conditions together force the cut's congestion to equal
    it.
    """

    inside_avoids_cut: bool
    crossings_cross_once: bool
    preimages_optimal: bool
    lemma_value: int

    @property
    def ok(self) -> bool:
        return self.inside_avoids_cut and self.crossings_cross_once and self.preimages_optimal


@dataclass(frozen=True)
class CutReport:
    family: str
    j: int | None
    i: int
    ec: int


@dataclass(frozen=True)
class WirelengthReport:
    """All wirelength computations for one (guest, host, embedding) run.

    ``cut_conditions[i]`` is the condition report for the cut of
    ``per_cut[i]``.
    """

    n: int
    p: int
    n1: int
    k: int
    host_kind: str
    direct: int
    via_partition: int
    closed_form: int
    exhaustive_min: int | None
    cut_conditions_ok: bool
    per_cut: tuple[CutReport, ...]
    local_search_min: int | None = None
    cut_conditions: tuple[CutConditionReport, ...] = ()

    @property
    def consistent(self) -> bool:
        values = {self.direct, self.via_partition, self.closed_form}
        if self.exhaustive_min is not None:
            values.add(self.exhaustive_min)
        # A heuristic value is only an upper bound, but it must never beat
        # the claimed minimum.
        heuristic_ok = (
            self.local_search_min is None or self.local_search_min >= self.closed_form
        )
        return len(values) == 1 and self.cut_conditions_ok and heuristic_ok

    def to_dict(self) -> dict:
        out: dict = {
            "schema": 1,
            "n": self.n,
            "p": self.p,
            "n1": self.n1,
            "k": self.k,
            "host_kind": self.host_kind,
            "direct": self.direct,
            "via_partition": self.via_partition,
            "closed_form": self.closed_form,
        }
        if self.exhaustive_min is not None:
            out["exhaustive_min"] = self.exhaustive_min
        if self.local_search_min is not None:
            out["local_search_min"] = self.local_search_min
        out["cut_conditions_ok"] = self.cut_conditions_ok
        out["per_cut"] = [
            {"family": c.family, "j": c.j, "i": c.i, "ec": c.ec} for c in self.per_cut
        ]
        return out


def identity_embedding(guest: Guest, host: HostTree) -> Embedding:
    """Map guest vertex ``m`` to host label ``m``."""
    count = guest.graph.vertex_count
    if count != host.graph.vertex_count:
        raise ValueError(
            f"guest has {count} vertices but host has {host.graph.vertex_count}"
        )
    return Embedding(tuple(range(1, count + 1)))


@lru_cache(maxsize=32)
def _distance_table(host: HostTree) -> list[list[int]]:
    """All-pairs label distances, indexed ``[a - 1][b - 1]``."""
    adjacency = host.label_adjacency
    count = host.graph.vertex_count
    table = []
    for src in range(1, count + 1):
        dist = [-1] * (count + 1)
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        table.append(dist[1:])
    return table


def route(host: HostTree, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """The canonical shortest path between labels ``u`` and ``v``.

    Walks from the smaller label toward the larger, always stepping to the
    smallest-labeled neighbor that still shrinks the remaining distance.
    Returns the path's edges in walk order; ``route(u, v) == route(v, u)``.
    """
    count = host.graph.vertex_count
    for lab in (u, v):
        if not 1 <= lab <= count:
            raise ValueError(f"label {lab} out of range 1..{count}")
    if u == v:
        raise ValueError("route endpoints must differ")
    start, goal = (u, v) if u < v else (v, u)
    dist = _distance_table(host)
    adjacency = host.label_adjacency
    edges = []
    cur = start
    remaining = dist[start - 1][goal - 1]
    while cur != goal:
        nxt = next(
            w for w in adjacency[cur] if dist[w - 1][goal - 1] == remaining - 1
        )
        edges.append((cur, nxt) if cur < nxt else (nxt, cur))
        cur = nxt
        remaining -= 1
    return tuple(edges)


class _Analysis:
    """Routed paths and per-edge usage for one (guest, host, embedding)."""

    __slots__ = ("guest_edges", "path_sets", "usage", "labels")

    def __init__(self, guest: Guest, host: HostTree, embedding: Embedding) -> None:
        self.labels = embedding.assignment
        self.guest_edges = tuple(sorted(guest.graph.edges))
        self.path_sets: list[frozenset[tuple[int, int]]] = []
        usage: dict[tuple[int, int], list[int]] = {}
        for idx, (gu, gv) in enumerate(self.guest_edges):
            path = route(host, self.labels[gu - 1], self.labels[gv - 1])
            self.path_sets.append(frozenset(path))
            for edge in path:
                usage.setdefault(edge, []).append(idx)
        self.usage = usage


@lru_cache(maxsize=32)
def _analysis(guest: Guest, host: HostTree, embedding: Embedding) -> _Analysis:
    count = guest.graph.vertex_count
    if count != host.graph.vertex_count:
        raise ValueError(
            f"guest has {count} vertices but host has {host.graph.vertex_count}"
        )
    if len(embedding.assignment) != count:
        raise ValueError("embedding size does not match the instance")
    return _Analysis(guest, host, embedding)


def wirelength_direct(guest: Guest, host: HostTree, embedding: Embedding) -> int:
    """Sum of routed path lengths over all guest edges."""
    analysis = _analysis(guest, host, embedding)
    return sum(len(path) for path in analysis.path_sets)


def edge_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, host_edge: tuple[int, int]
) -> int:
    """Number of guest edges whose routed path uses ``host_edge``."""
    a, b = host_edge
    edge = (a, b) if a < b else (b, a)
    if edge not in host.label_edges:
        raise ValueError(f"{host_edge} is not a host edge (in label space)")
    analysis = _analysis(guest, host, embedding)
    return len(analysis.usage.get(edge, ()))


def cut_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> int:
    """Total congestion over a cut's edges."""
    return sum(edge_congestion(guest, host, embedding, e) for e in cut.cut_edges)


def congestion_lemma_value(guest: Guest, subset: Iterable[int]) -> int:
    """Guest edges leaving ``subset``: degree sum minus twice the induced count.

    When a cut's preimage is an optimal set this is the smallest congestion
    any embedding can put on that cut.
    """
    chosen = set(subset)
    degree_sum = sum(guest.graph.degree(v) for v in chosen)
    return degree_sum - 2 * induced_edge_count(guest.graph, chosen)


def verify_cut_conditions(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> CutConditionReport:
    """Check the three congestion-lemma conditions for one cut."""
    analysis = _analysis(guest, host, embedding)
    lo, hi = cut.component_lo, cut.component_hi
    labels = analysis.labels
    count = len(labels)
    inside = {m for m in range(1, count + 1) if lo <= labels[m - 1] <= hi}
    outside = set(range(1, count + 1)) - inside

    # Guest edge index -> how many cut edges its route uses.
    touched = Counter(
        chain.from_iterable(analysis.usage.get(edge, ()) for edge in cut.cut_edges)
    )
    expected = congestion_lemma_value(guest, inside)
    inside_ok = crossings_ok = True
    single = 0
    for idx, hits in touched.items():
        gu, gv = analysis.guest_edges[idx]
        if (gu in inside) == (gv in inside):
            inside_ok = False
        elif hits == 1:
            single += 1
        else:
            crossings_ok = False
    crossings_ok = crossings_ok and single == expected
    optimal = is_optimal_set(guest, inside) and is_optimal_set(guest, outside)
    return CutConditionReport(inside_ok, crossings_ok, optimal, expected)


def wirelength_via_partition(
    guest: Guest,
    host: HostTree,
    embedding: Embedding,
    cuts: tuple[EdgeCut, ...] | None = None,
) -> int:
    """Wirelength from cut congestions.

    The cut family must cover every host edge the same number of times;
    the congestion total, weighted by each cut's multiplicity share, then
    overcounts the wirelength by exactly that factor.
    """
    if cuts is None:
        cuts = cut_family(host)
    coverage: Counter[tuple[int, int]] = Counter()
    for cut in cuts:
        for edge in cut.cut_edges:
            if edge not in host.label_edges:
                raise ValueError(f"cut edge {edge} is not a host edge")
            coverage[edge] += cut.multiplicity_share
    counts = set(coverage.values())
    if len(counts) != 1 or coverage.keys() != host.label_edges:
        raise CoverageError("cut family does not cover every host edge uniformly")
    k_mult = counts.pop()
    total = sum(
        cut.multiplicity_share * cut_congestion(guest, host, embedding, cut)
        for cut in cuts
    )
    if total % k_mult:
        raise ConsistencyError(
            f"weighted congestion {total} is not divisible by coverage {k_mult}"
        )
    return total // k_mult


def build_report(
    guest: Guest,
    host: HostTree,
    embedding: Embedding,
    exhaustive_min: int | None = None,
    local_search_min: int | None = None,
) -> WirelengthReport:
    """Run every wirelength computation for one instance and bundle the results."""
    cuts = cut_family(host)
    per_cut = tuple(
        CutReport(c.family, c.j, c.i, cut_congestion(guest, host, embedding, c))
        for c in cuts
    )
    conditions = tuple(
        verify_cut_conditions(guest, host, embedding, c) for c in cuts
    )
    return WirelengthReport(
        n=guest.n,
        p=guest.p,
        n1=host.n1,
        k=host.k,
        host_kind=host.kind,
        direct=wirelength_direct(guest, host, embedding),
        via_partition=wirelength_via_partition(guest, host, embedding, cuts),
        closed_form=formulas.closed_form_wirelength(
            guest.n, guest.p, n1=host.n1, sibling=host.sibling
        ),
        exhaustive_min=exhaustive_min,
        cut_conditions_ok=all(c.ok for c in conditions),
        per_cut=per_cut,
        local_search_min=local_search_min,
        cut_conditions=conditions,
    )
