"""Embedding a guest into a labeled host: routing, wirelength, cut checks.

An embedding maps guest vertices bijectively onto host position labels.
Every guest edge is routed along its shortest host path.  The hosts are
trees whose only other edges join two siblings, so that path is unique:
from a label off the goal's spine (the goal and its ancestors) it climbs,
or steps across to a spine sibling, and on the spine it descends to the
goal (``route``), each step read off the host's parent, chain and sibling
links (``HostLinks``).  So a route leaves a label's subtree through that
label, and the load on every host edge is a count of guest edges between
subtrees, which one pass from the leaves up reads off each subtree's
partite counts (``_tally``, kept in the host's memo) without walking a
route; one loop (``_reports``) reads each cut's congestion off it.  The
congestion lemma's route conditions on a cut come from the same pass run
on the same-side guest edges alone: a cut's congestion minus their load
counts the cut edges on the crossing routes, and that load itself counts
the same-side routes' cut edges.  Apart from that load, ``_leaving``
counts the guest edges leaving each cut's component from its labels'
partite sets.  The congestion lemma says the cut's congestion equals that
count, so the route conditions, and the partition total that sums the
counts, show a wrong load on the cut it touches.  A cut's preimages are
optimal exactly when its count is the fewest a set of its size can have
(``formulas.interval_boundary_congestion``, the same minimum the closed
forms sum).
Cut edges are handled as indices into the host's edge list.  A cut is its
component interval, so its edges are the interval's edge boundary
(``hosts._boundary``).  The host owns its standard family as records
(``HostTree.cuts``: an ``EdgeCut``'s fields, then the edge indices),
checked once, on first use, against those boundaries; ``build_report``,
``cut_family`` and ``wirelength_via_partition`` all read that family.  The
calls that take a caller's ``EdgeCut`` read its boundary, then run the same code.
Wirelength comes out three ways that must agree: summing routed path
lengths, summing the cuts' leaving guest edges weighted by coverage, and
(elsewhere) closed forms.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from treebed import formulas
from treebed.errors import CoverageError, ConsistencyError
from treebed.frozen import Frozen
from treebed.graphs import Guest
from treebed.hosts import EdgeCut, HostLinks, HostTree, _boundary

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
        if not (isinstance(lab, int) and 1 <= lab <= count):
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
        if not all(isinstance(lab, int) for lab in assignment):
            raise ValueError("assignment labels must be integers")
        if sorted(assignment) != list(range(1, len(assignment) + 1)):
            raise ValueError("assignment is not a bijection onto 1..vertex_count")
        self._set(assignment=assignment)

    def label_for(self, v: int) -> int:
        return self.assignment[v - 1]

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

    Walks from the smaller label toward the larger, the goal: up the host's
    links, or across to a sibling on the goal's spine (the goal and its
    ancestors), until it reaches the spine, then down the spine to the goal.
    Shortest paths on these hosts are unique, so this is also the walk that
    always steps to the smallest-labeled neighbor still shrinking the
    remaining distance.  Returns the path's edges in walk order;
    ``route(u, v) == route(v, u)``.
    """
    _check_labels(host.vertex_count, u, v)
    if u == v:
        raise ValueError("route endpoints must differ")
    start, goal = (u, v) if u < v else (v, u)
    up, sib = host.links.up, host.links.sib
    spine = [goal]  # from the goal upward
    while up[spine[-1]]:
        spine.append(up[spine[-1]])
    height = {t: h for h, t in enumerate(spine)}
    walk = [start]
    while walk[-1] not in height:
        t = walk[-1]
        walk.append(sib[t] if sib[t] in height else up[t])
    walk += reversed(spine[:height[walk[-1]]])
    return tuple((a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:]))


def _loads(
    links: HostLinks, partite_at: list[int], groups: Iterable[Sequence[int]]
) -> list[int]:
    """Each host edge's load from the guest edges with both ends in one
    label group of ``groups``: one pass from the leaves up per group.

    Call ``S_t`` the labels in the subtree of ``t``: ``t`` and everything
    below it on the host's parent links.  A route with one end in ``S_t``
    leaves it through ``t``: across the sibling link when its other end lies
    in the sibling's subtree, else up the parent link.  So the sibling link
    carries the guest edges between ``S_t`` and ``S_sib``, and the parent
    link those leaving ``S_t`` minus those.  The guest joins every two
    vertices in different partite sets, so between disjoint label sets
    ``X`` and ``Y`` it has ``|X||Y| - sum_j c_j(X) c_j(Y)`` edges, with
    ``c_j`` the number of labels holding partite set ``j``.  Each pass keeps
    each subtree's size, partite counts and number of guest edges leaving
    it, merging the smaller count dict into the larger; the first of two
    siblings waits for the second.
    """
    up, up_edge, sib, sib_edge = links.up, links.up_edge, links.sib, links.sib_edge
    load = [0] * len(links.edges)
    for members in groups:
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

        done = [False] * len(partite_at)
        for t in links.order:
            # Every label below t came earlier in the order, so t's record is
            # its whole subtree.
            done[t] = True
            load[up_edge[t]] += leaving[t]
            twin = sib[t]
            if not twin:
                join(up[t], t)
            elif done[twin]:
                across = join(t, twin)
                load[sib_edge[t]] += across
                load[up_edge[t]] -= across
                load[up_edge[twin]] -= across
                join(up[t], t)
    return load


def _tally(guest: Guest, host: HostTree, embedding: Embedding) -> tuple[list[int], list[int]]:
    """``(partite_at, load)`` for one instance, from the host's memo when it
    has them: ``partite_at[lab]`` is the partite set of the guest vertex on
    label ``lab``, and ``load[i]`` counts the guest edges whose route uses
    host edge ``host.links.edges[i]``."""
    links, labels = host.links, embedding.assignment
    count = _vertex_count(guest, host)
    if len(labels) != count:
        raise ValueError("embedding size does not match the instance")
    memo = links.memo
    if memo is None or memo[0] != guest or memo[1] != embedding:
        partite_at = [0] * (count + 1)
        for m, lab in enumerate(labels, start=1):
            partite_at[lab] = guest.partite_of(m)
        load = _loads(links, partite_at, [range(1, count + 1)])
        memo = links.memo = (guest, embedding, partite_at, load)
    return memo[2], memo[3]


def wirelength_direct(guest: Guest, host: HostTree, embedding: Embedding) -> int:
    """Sum of routed path lengths over all guest edges."""
    _, load = _tally(guest, host, embedding)
    return sum(load)


def edge_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, host_edge: tuple[int, int]
) -> int:
    """Number of guest edges whose routed path uses ``host_edge``, a pair
    of integer labels in either order."""
    a, b = host_edge
    edges = host.links.edges
    index = None
    if isinstance(a, int) and isinstance(b, int) and 1 <= min(a, b) <= host.vertex_count:
        lo, hi = sorted(host_edge)
        # The edges at label lo are the edge boundary of the interval lo..lo.
        index = next((x for x in _boundary(host, lo, lo) if edges[x] == (lo, hi)), None)
    if index is None:
        raise ValueError(f"{host_edge} is not a host edge (in label space)")
    _, load = _tally(guest, host, embedding)
    return load[index]


def cut_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> int:
    """Total congestion over a cut's edges."""
    _, load = _tally(guest, host, embedding)
    return _cut_load(load, _boundary(host, cut.component_lo, cut.component_hi))


def _cut_load(load: list[int], indices: Sequence[int]) -> int:
    """Total of ``load`` over the edges with these indices."""
    return sum([load[x] for x in indices])


def _records(host: HostTree, cuts: Iterable[EdgeCut]) -> list[tuple]:
    """A caller's cuts as the records ``HostTree.cuts`` holds: each
    ``EdgeCut``'s fields, then its edges found by ``hosts._boundary``."""
    return [(*c, _boundary(host, c.component_lo, c.component_hi)) for c in cuts]


def congestion_lemma_value(guest: Guest, subset: Iterable[int]) -> int:
    """Guest edges leaving ``subset``: degree sum minus twice the induced count.

    When a cut's preimage is an optimal set this is the smallest congestion
    any embedding can put on that cut.
    """
    chosen = set(subset)
    return len(chosen) * guest.degree - 2 * guest.induced_edge_count(chosen)


def _leaving(guest: Guest, partite_at: list[int], cuts: Sequence[tuple]) -> list[int]:
    """Each cut record's guest edges with one end placed in its interval
    ``lo..hi`` and one outside, counted from the labels' partite sets.

    The guest is regular, so ``s`` labels leave ``s * degree - 2 *
    induced`` guest edges, with ``induced = (s**2 - sum_j c_j**2) / 2`` and
    ``c_j`` the labels holding partite set ``j``: ``s * (degree - s) +
    sum_j c_j**2``.  The prefixes ``1..hi`` (every chain cut) take ``sum_j
    c_j**2`` from one sweep over the labels with running counts; any other
    interval counts its own labels.
    """
    top = max((hi for _, _, _, lo, hi, _, _ in cuts if lo == 1), default=0)
    squares, held = [0], [0] * (guest.part_count + 1)  # squares[hi]: prefix 1..hi
    for j in partite_at[1:top + 1]:
        squares.append(squares[-1] + 2 * held[j] + 1)  # (c + 1)**2 - c**2
        held[j] += 1
    degree, leaving = guest.degree, []
    for _, _, _, lo, hi, _, _ in cuts:
        side = hi - lo + 1
        if lo == 1:
            square = squares[hi]
        else:
            square = sum(c * c for c in Counter(partite_at[lo:hi + 1]).values())
        leaving.append(side * (degree - side) + square)
    return leaving


def _reports(
    guest: Guest, host: HostTree, partite_at: list[int], load: list[int], cuts: Sequence[tuple]
) -> tuple[tuple[CutReport, ...], tuple[CutConditionReport, ...]]:
    """Every cut record's ``CutReport`` and condition report (see
    ``HostTree.cuts`` and ``verify_cut_conditions``), in order.  A cut's
    ``ec`` is its routed congestion, from ``load``, and its
    ``lemma_value`` its count from ``_leaving``, apart from the routing."""
    links, count = host.links, host.vertex_count
    least: dict[int, int] = {}  # fewest guest edges leaving a set, by size
    per_cut, conditions = [], []
    counted = _leaving(guest, partite_at, cuts)
    for (family, j, i, lo, hi, _, indices), leaving in zip(cuts, counted):
        congestion = _cut_load(load, indices)
        side = hi - lo + 1
        if side not in least:
            least[side] = formulas.interval_boundary_congestion(side, guest.n, guest.p)
        # Both sides leave the same guest edges, and a set of s labels
        # leaves s * degree - 2 * induced of them, so both sides are densest
        # for their sizes exactly when those are the fewest.
        optimal = leaving == least[side]
        # Each route crossing the cut uses an odd number of its edges and
        # each other route an even number, so the congestion is at least
        # the number of crossing guest edges, with equality exactly when
        # both conditions hold.  Otherwise the load of the same-side guest
        # edges on the cut tells them apart.
        same = 0
        if congestion != leaving:
            groups = (range(lo, hi + 1), [*range(1, lo), *range(hi + 1, count + 1)])
            same = _cut_load(_loads(links, partite_at, groups), indices)
        inside_ok, crossings_ok = same == 0, congestion - same == leaving
        per_cut.append(CutReport(family, j, i, congestion))
        conditions.append(CutConditionReport(inside_ok, crossings_ok, optimal, leaving))
    return tuple(per_cut), tuple(conditions)


def verify_cut_conditions(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> CutConditionReport:
    """Check the three congestion-lemma conditions for one cut.

    The cut's edges are the edge boundary of its component interval, read
    off the host's gap spans, so a route between the two sides uses an odd
    number of them and any other route an even number.  This is
    ``build_report``'s per-cut loop (``_reports``) on one cut, over the load
    in the host's memo, so calls on one instance share one subtree pass.
    The crossing guest edges are counted from the partite sets of the
    component's labels (``_leaving``), apart from the routed load.  Both
    preimages are optimal exactly when those edges are as few as any set of
    the component's size can leave (``formulas.interval_boundary_congestion``).
    With ``same`` the load the same-side routes put on the cut (``_loads``
    over the labels inside it and over those outside), no same-side route
    touches the cut exactly when ``same == 0``, and every crossing route uses
    one cut edge exactly when the congestion minus ``same`` equals the number
    of crossing guest edges.  When the congestion already equals that
    number, both hold and no further pass runs.

    Raises ``ValueError`` when the component interval is not inside the
    host's labels.
    """
    partite_at, load = _tally(guest, host, embedding)
    return _reports(guest, host, partite_at, load, _records(host, (cut,)))[1][0]


def wirelength_via_partition(
    guest: Guest,
    host: HostTree,
    embedding: Embedding,
    cuts: Iterable[EdgeCut] | None = None,
) -> int:
    """Wirelength from routed cut congestions.

    The congestions are the routed loads on each cut's edges, not the
    leaving guest edges ``build_report`` sums: on a caller's family the
    congestion lemma need not hold.  A family (default: ``host.cuts``) that
    covers every host edge ``c`` times, counting shares, has a weighted
    congestion total of ``c`` times the total routed load, so the result
    equals ``wirelength_direct`` for any routing.  This checks the family's
    coverage (``CoverageError`` otherwise), not the routes.
    """
    records = host.cuts if cuts is None else _records(host, cuts)
    _, load = _tally(guest, host, embedding)
    return _partition_total(host.links, records, [_cut_load(load, r[6]) for r in records])


def _partition_total(
    links: HostLinks, cuts: Sequence[tuple], congestions: Sequence[int]
) -> int:
    """The wirelength from cut records (see ``HostTree.cuts``) and one
    value per cut, weighted by share, over the family's uniform coverage:
    each cut's leaving guest edges from ``build_report``, its routed
    congestion from ``wirelength_via_partition``."""
    coverage = [0] * len(links.edges)
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
            f"weighted leaving guest edges {total} are not divisible by coverage {k_mult}"
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
    cuts = host.cuts
    partite_at, load = _tally(guest, host, embedding)
    per_cut, conditions = _reports(guest, host, partite_at, load, cuts)
    # ``ec`` is the routed load and ``lemma_value`` the count apart from
    # it, so the partition total checks the routing cut by cut.
    leaving = [c.lemma_value for c in conditions]
    return WirelengthReport(
        n=guest.n,
        p=guest.p,
        n1=host.n1,
        k=host.k,
        host_kind=host.kind,
        direct=sum(load),
        via_partition=_partition_total(host.links, cuts, leaving),
        closed_form=formulas.closed_form_wirelength(
            guest.n, guest.p, n1=host.n1, sibling=host.sibling
        ),
        exhaustive_min=exhaustive_min,
        cut_conditions_ok=all(c.ok for c in conditions),
        per_cut=per_cut,
        local_search_min=local_search_min,
        cut_conditions=conditions,
    )
