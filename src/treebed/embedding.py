"""Embedding a guest into a labeled host: routing, wirelength, cut checks.

An embedding maps guest vertices bijectively onto host position labels.
Every guest edge is routed along its shortest host path.  The hosts are
trees whose only other edges join two siblings, so that path is unique:
from a label off the goal's spine (the goal and its ancestors) it climbs,
or steps across to a spine sibling, and on the spine it descends to the
goal.  The routes toward one goal label form that label's in-tree
(``HostLinks.in_tree``), built from the host's parent, chain and sibling
links.  So a route leaves a label's subtree through that label, and the
load on every host edge is a count of guest edges between subtrees, which
one pass from the leaves up reads off each subtree's partite counts
(``_Tally``) without walking a route.  The congestion lemma's route
conditions on a cut come from the same pass run on the same-side guest
edges alone: a cut's congestion minus their load counts the cut edges on
the crossing routes, and that load itself counts the same-side routes'
cut edges.  The pass also records the guest edges leaving every subtree
and sibling union, each of which fills a label interval, so a standard
cut's leaving guest edges follow in O(1).  Its preimages are optimal
exactly when those are the fewest a set of its size can have
(``formulas.interval_boundary_congestion``, the same minimum the closed
forms sum).
Cut edges are handled as indices into the host's edge list.  A cut is its
component interval, so its edges are the interval's edge boundary: a
report takes its cuts as records straight from the host
(``hosts._standard_cuts``: an ``EdgeCut``'s fields, then the edge
indices) and compares each one's edge set with its interval's in one
sweep over the gaps between labels (``hosts._check_boundaries``), and the
calls that take a caller's ``EdgeCut`` find its edges by one scan of the
host's edges, then run the same code.
Wirelength comes out three ways that must agree: summing routed path
lengths, summing cut congestions weighted by coverage, and (elsewhere)
closed forms.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from treebed import formulas
from treebed.errors import CoverageError, ConsistencyError
from treebed.frozen import Frozen
from treebed.graphs import Guest
from treebed.hosts import (
    EdgeCut, HostLinks, HostTree, _boundary, _check_boundaries, _standard_cuts,
)

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


def _check_labels(count: int, *labels: int) -> None:
    for lab in labels:
        if not 1 <= lab <= count:
            raise ValueError(f"label {lab} out of range 1..{count}")


class Embedding(Frozen):
    """A bijection from guest vertices onto host labels.

    ``assignment[m - 1]`` is the label of guest vertex ``m``.  Any iterable
    is taken, and stored as a tuple, so embeddings hash and compare by
    value and cannot change after the bijection check.
    """

    _fields = ("assignment",)
    assignment: tuple[int, ...]

    def __init__(self, assignment: Iterable[int]) -> None:
        assignment = tuple(assignment)
        if sorted(assignment) != list(range(1, len(assignment) + 1)):
            raise ValueError("assignment is not a bijection onto 1..vertex_count")
        self._set(assignment=assignment)

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> Embedding:
        return cls(mapping[m] for m in range(1, len(mapping) + 1))

    def label_for(self, v: int) -> int:
        return self.assignment[v - 1]

    def as_mapping(self) -> dict[int, int]:
        return {m: lab for m, lab in enumerate(self.assignment, start=1)}

    def swapped(self, a: int, b: int) -> Embedding:
        """Copy with labels ``a`` and ``b`` exchanged between their vertices."""
        _check_labels(len(self.assignment), a, b)
        seq = list(self.assignment)
        ia, ib = seq.index(a), seq.index(b)
        seq[ia], seq[ib] = b, a
        return Embedding(seq)


class CutConditionReport(NamedTuple):
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


class CutReport(NamedTuple):
    family: str
    j: int | None
    i: int
    ec: int


class WirelengthReport(NamedTuple):
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
        out["per_cut"] = [c._asdict() for c in self.per_cut]
        return out


def _vertex_count(guest: Guest, host: HostTree) -> int:
    """The instance's vertex count, once guest and host agree on it."""
    count = guest.vertex_count
    if count != host.vertex_count:
        raise ValueError(
            f"guest has {count} vertices but host has {host.vertex_count}"
        )
    return count


def identity_embedding(guest: Guest, host: HostTree) -> Embedding:
    """Map guest vertex ``m`` to host label ``m``."""
    return Embedding(range(1, _vertex_count(guest, host) + 1))


def route(host: HostTree, u: int, v: int) -> tuple[tuple[int, int], ...]:
    """The shortest path between labels ``u`` and ``v``.

    Walks from the smaller label toward the larger along the larger
    label's in-tree (``HostLinks.in_tree``).  Shortest paths on these hosts
    are unique, so this is also the walk that always steps to the
    smallest-labeled neighbor still shrinking the remaining distance.
    Returns the path's edges in walk order; ``route(u, v) == route(v, u)``.
    """
    _check_labels(host.vertex_count, u, v)
    if u == v:
        raise ValueError("route endpoints must differ")
    start, goal = (u, v) if u < v else (v, u)
    hops = host.links.in_tree(goal)[0]
    edges = []
    cur = start
    while cur != goal:
        nxt = hops[cur]
        edges.append((cur, nxt) if cur < nxt else (nxt, cur))
        cur = nxt
    return tuple(edges)


class _Tally:
    """Routed load on every host edge for one (guest, host, embedding).

    ``load[i]`` counts the guest edges whose route uses host edge
    ``host.links.edges[i]``; ``partite_at[lab]`` is the partite set of the
    guest vertex placed on label ``lab``.

    With the default ``side=None`` one ``_add_subtree_loads`` pass over
    every label counts every guest edge.  A label interval ``lo..hi`` as
    ``side`` makes ``load`` count only the guest edges with both ends
    inside it or both outside, one pass for each of the two label sets.

    ``leaving`` maps label intervals ``(lo, hi)`` to the number of guest
    edges with one end placed in ``lo..hi`` and the other outside; the pass
    over every label records it for every subtree and sibling union (each
    fills an interval).  A sided tally keeps no records.
    """

    __slots__ = ("guest", "embedding", "partite_at", "load", "leaving")

    def __init__(
        self,
        guest: Guest,
        links: HostLinks,
        embedding: Embedding,
        side: tuple[int, int] | None = None,
    ) -> None:
        self.guest = guest
        self.embedding = embedding
        labels = embedding.assignment
        count = len(labels)
        partite_at = [0] * (count + 1)
        for m, lab in enumerate(labels, start=1):
            partite_at[lab] = guest.partite_of(m)
        self.partite_at = partite_at
        if side is None:
            groups = [list(range(1, count + 1))]
        else:
            lo, hi = side
            groups = [
                [s for s in range(1, count + 1) if (lo <= s <= hi) == inside]
                for inside in (True, False)
            ]
        load = [0] * (links.spill + 1)
        self.leaving: dict[tuple[int, int], int] = {}
        # A sided pass counts only the guest edges within its group.
        records = self.leaving if side is None else {}
        for members in groups:
            _add_subtree_loads(links, partite_at, members, load, records)
        load.pop()  # the ``spill`` slot, above the top of the host
        self.load = load


def _add_subtree_loads(
    links: HostLinks,
    partite_at: list[int],
    members: list[int],
    load: list[int],
    records: dict[tuple[int, int], int],
) -> None:
    """Add to ``load`` each host edge's share of the guest edges among the
    labels ``members``, and record in ``records``, by label interval, the
    guest edges leaving each subtree and sibling union for other members.

    Call ``S_t`` the labels in the subtree of ``t``: ``t`` and everything
    below it on the host's parent links.  A route with one end in ``S_t``
    leaves it through ``t``: across the sibling link when its other end lies
    in the sibling's subtree, else up the parent link.  So the sibling link
    carries the guest edges between ``S_t`` and ``S_sib``, and the parent
    link those leaving ``S_t`` minus those.  The guest joins every two
    vertices in different partite sets, so between disjoint label sets
    ``X`` and ``Y`` it has ``|X||Y| - sum_j c_j(X) c_j(Y)`` edges, with
    ``c_j`` the number of labels holding partite set ``j``.  One pass from
    the leaves up keeps each subtree's size, partite counts and number of
    guest edges leaving it, merging the smaller count dict into the larger;
    the first of two siblings waits for the second.  Each subtree's label
    range is ``links.lo`` to ``links.hi``.
    """
    totals = Counter(partite_at[s] for s in members)
    size = [0] * len(partite_at)
    leaving = [0] * len(partite_at)
    counts: list[dict[int, int]] = [{} for _ in partite_at]
    for s in members:
        size[s] = 1
        leaving[s] = len(members) - totals[partite_at[s]]
        counts[s] = {partite_at[s]: 1}

    def join(a: int, b: int) -> int:
        """Merge subtree record ``b`` into ``a``; return the guest edges
        between the two."""
        big, small = counts[a], counts[b]
        if len(big) < len(small):
            big, small = small, big
            counts[a] = big
        same = 0
        for j, c in small.items():
            had = big.get(j, 0)
            same += had * c
            big[j] = had + c
        between = size[a] * size[b] - same
        size[a] += size[b]
        leaving[a] += leaving[b] - 2 * between
        return between

    up, up_edge, sib, sib_edge = links.up, links.up_edge, links.sib, links.sib_edge
    lo, hi = links.lo, links.hi
    done = [False] * len(partite_at)
    for t in links.order:
        # Every label below t came earlier in the order, so t's record is
        # its whole subtree.
        done[t] = True
        records[lo[t], hi[t]] = leaving[t]
        load[up_edge[t]] += leaving[t]
        twin = sib[t]
        if not twin:
            join(up[t], t)
        elif done[twin]:
            across = join(t, twin)
            records[min(lo[t], lo[twin]), max(hi[t], hi[twin])] = leaving[t]
            load[sib_edge[t]] += across
            load[up_edge[t]] -= across
            load[up_edge[twin]] -= across
            join(up[t], t)


def _tally(guest: Guest, host: HostTree, embedding: Embedding) -> _Tally:
    """The instance's tallies, from the host's memo when it already has them."""
    if len(embedding.assignment) != _vertex_count(guest, host):
        raise ValueError("embedding size does not match the instance")
    links = host.links
    memo = links.memo
    if memo is None or memo.guest != guest or memo.embedding != embedding:
        memo = links.memo = _Tally(guest, links, embedding)
    return memo


def wirelength_direct(guest: Guest, host: HostTree, embedding: Embedding) -> int:
    """Sum of routed path lengths over all guest edges."""
    return sum(_tally(guest, host, embedding).load)


def edge_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, host_edge: tuple[int, int]
) -> int:
    """Number of guest edges whose routed path uses ``host_edge``."""
    a, b = host_edge
    links = host.links
    index = links.spill
    if 1 <= a <= host.vertex_count and 1 <= b <= host.vertex_count:
        # One end hangs from the other, or the two are siblings.
        if links.up[a] == b:
            index = links.up_edge[a]
        elif links.up[b] == a:
            index = links.up_edge[b]
        elif links.sib[a] == b:
            index = links.sib_edge[a]
    if index == links.spill:
        raise ValueError(f"{host_edge} is not a host edge (in label space)")
    return _tally(guest, host, embedding).load[index]


def cut_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> int:
    """Total congestion over a cut's edges."""
    indices = _boundary(host, cut.component_lo, cut.component_hi)
    return _cut_load(_tally(guest, host, embedding).load, indices)


def _cut_load(load: list[int], indices: Sequence[int]) -> int:
    """Total of ``load`` over the edges with these indices."""
    return sum([load[x] for x in indices])


def _records(host: HostTree, cuts: Iterable[EdgeCut]) -> list[tuple]:
    """A caller's cuts as the records ``hosts._standard_cuts`` makes: each
    ``EdgeCut``'s fields, then its edges found by ``hosts._boundary``."""
    return [(*c, _boundary(host, c.component_lo, c.component_hi)) for c in cuts]


def congestion_lemma_value(guest: Guest, subset: Iterable[int]) -> int:
    """Guest edges leaving ``subset``: degree sum minus twice the induced count.

    When a cut's preimage is an optimal set this is the smallest congestion
    any embedding can put on that cut.
    """
    chosen = set(subset)
    return len(chosen) * guest.degree - 2 * guest.induced_edge_count(chosen)


def _side_leaving(tally: _Tally, count: int, guest: Guest, lo: int, hi: int) -> int:
    """Guest edges with one end placed in ``lo..hi`` and one outside.

    Read off the tally's interval records, for the interval or for the
    complement of a prefix or suffix, since both sides of a cut have the
    same leaving edges.  Any other interval counts the partite sets of its
    smaller side ``X``: ``|X| * degree - 2 * induced(X)``, with ``induced(X)
    = (|X|**2 - sum_j c_j**2) / 2`` and ``c_j`` its labels holding partite
    set ``j``.
    """
    records = tally.leaving
    rest = (hi + 1, count) if lo == 1 else (1, lo - 1) if hi == count else None
    for key in ((lo, hi), rest):
        if key in records:
            return records[key]
    partite_at = tally.partite_at
    if 2 * (hi - lo + 1) <= count:
        labels = partite_at[lo:hi + 1]
    else:
        labels = partite_at[1:lo] + partite_at[hi + 1:]
    side = len(labels)
    return side * (guest.degree - side) + sum(c * c for c in Counter(labels).values())


def _reports(
    guest: Guest,
    host: HostTree,
    tally: _Tally,
    cuts: Sequence[tuple],
    congestions: Sequence[int] | None = None,
) -> tuple[CutConditionReport, ...]:
    """The condition report of every cut record (see
    ``hosts._standard_cuts``), in order; see ``verify_cut_conditions``.
    ``congestions``, when given, holds each cut's congestion."""
    links, count = host.links, host.vertex_count
    if congestions is None:
        congestions = [_cut_load(tally.load, cut[6]) for cut in cuts]
    least: dict[int, int] = {}  # fewest guest edges leaving a set, by size
    reports = []
    for (_, _, _, lo, hi, _, indices), congestion in zip(cuts, congestions):
        side = hi - lo + 1
        leaving = _side_leaving(tally, count, guest, lo, hi)
        if side not in least:
            least[side] = formulas.interval_boundary_congestion(side, guest.n, guest.p)
        # The guest is regular, so a set of s labels leaves s * degree -
        # 2 * induced guest edges.  Both sides leave the same ones, so both
        # are densest for their sizes exactly when those are the fewest.
        optimal = leaving == least[side]
        # Each route crossing the cut uses an odd number of its edges and
        # each other route an even number, so the congestion is at least
        # the number of crossing guest edges, with equality exactly when
        # both conditions hold.  Otherwise the load of the same-side guest
        # edges on the cut tells them apart.
        same = 0
        if congestion != leaving:
            sided = _Tally(guest, links, tally.embedding, (lo, hi))
            same = _cut_load(sided.load, indices)
        inside_ok, crossings_ok = same == 0, congestion - same == leaving
        reports.append(CutConditionReport(inside_ok, crossings_ok, optimal, leaving))
    return tuple(reports)


def verify_cut_conditions(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> CutConditionReport:
    """Check the three congestion-lemma conditions for one cut.

    The cut's edges are the edge boundary of its component interval, found
    by one scan of the host's edges, so a route between the two sides uses
    an odd number of them and any other route an even number.  The
    preimage counts come from the subtree pass: when the component, or the
    complement of a prefix or suffix component, is a subtree or sibling
    union (every standard cut), the pass recorded the guest edges leaving
    it; any other interval counts its smaller side.  Both preimages are
    optimal exactly when those edges are as few as any set of the
    component's size can leave, ``formulas.interval_boundary_congestion``.
    With ``same`` the load the same-side routes put on the cut (``_Tally``
    with that interval as ``side``: the subtree pass over the labels inside
    it plus the one over those outside), no same-side route touches the cut
    exactly when ``same == 0``, and every crossing route uses one cut edge
    exactly when the congestion minus ``same`` equals the number of
    crossing guest edges.  When the congestion already equals that number,
    both hold and no further pass runs.

    Raises ``ValueError`` when the component interval is not inside the
    host's labels.
    """
    return _reports(guest, host, _tally(guest, host, embedding), _records(host, (cut,)))[0]


def wirelength_via_partition(
    guest: Guest,
    host: HostTree,
    embedding: Embedding,
    cuts: Iterable[EdgeCut] | None = None,
) -> int:
    """Wirelength from cut congestions.

    The cut family (default: the host's standard family) must cover every
    host edge the same number of times; the congestion total, weighted by
    each cut's multiplicity share, then overcounts the wirelength by
    exactly that factor.
    """
    records = _standard_cuts(host) if cuts is None else _records(host, cuts)
    load = _tally(guest, host, embedding).load
    return _partition_total(host.links, records, [_cut_load(load, r[6]) for r in records])


def _partition_total(
    links: HostLinks, cuts: Sequence[tuple], congestions: Sequence[int]
) -> int:
    """``wirelength_via_partition`` from cut records of host edges (see
    ``hosts._standard_cuts``) and each cut's congestion."""
    coverage = [0] * links.spill
    for _, _, _, _, _, share, indices in cuts:
        for x in indices:
            coverage[x] += share
    edges, k_mult = links.edges, coverage[0]
    if coverage.count(k_mult) != len(coverage):
        x = next(x for x, c in enumerate(coverage) if c != k_mult)
        raise CoverageError(
            "cut family does not cover every host edge uniformly: host edge"
            f" {edges[x]} has coverage {coverage[x]} but host edge {edges[0]} has {k_mult}"
        )
    if not k_mult:
        raise CoverageError("cut family covers no host edge")
    total = sum(cut[5] * c for cut, c in zip(cuts, congestions))
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
    cuts = _standard_cuts(host)
    _check_boundaries(host.links, host.vertex_count, cuts)
    tally = _tally(guest, host, embedding)
    load = tally.load
    congestions = [_cut_load(load, cut[6]) for cut in cuts]
    per_cut = tuple(CutReport(*cut[:3], ec) for cut, ec in zip(cuts, congestions))
    conditions = _reports(guest, host, tally, cuts, congestions)
    return WirelengthReport(
        n=guest.n,
        p=guest.p,
        n1=host.n1,
        k=host.k,
        host_kind=host.kind,
        direct=sum(load),
        via_partition=_partition_total(host.links, cuts, congestions),
        closed_form=formulas.closed_form_wirelength(
            guest.n, guest.p, n1=host.n1, sibling=host.sibling
        ),
        exhaustive_min=exhaustive_min,
        cut_conditions_ok=all(c.ok for c in conditions),
        per_cut=per_cut,
        local_search_min=local_search_min,
        cut_conditions=conditions,
    )
