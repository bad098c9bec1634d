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
cut edges.  The pass also records the sum of squared partite counts of
every subtree and sibling union that fills a label interval, from which a
standard cut's induced and leaving guest edges follow in O(1).  Every
cut's edges are checked against its interval's edge boundary, all cuts of
a report in one batch (``_check_boundaries``).
Cut edges are handled as indices into the host's edge list: a report takes
its cuts as index records straight from the host (``hosts._standard_cuts``),
and the calls that take a caller's ``EdgeCut`` translate its label pairs
once, then run the same code.
Wirelength comes out three ways that must agree: summing routed path
lengths, summing cut congestions weighted by coverage, and (elsewhere)
closed forms.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from treebed import formulas
from treebed.errors import CoverageError, ConsistencyError
from treebed.frozen import Frozen
from treebed.graphs import Guest
from treebed.hosts import EdgeCut, HostLinks, HostTree, _standard_cuts, cut_family

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
        out["per_cut"] = [
            {"family": c.family, "j": c.j, "i": c.i, "ec": c.ec} for c in self.per_cut
        ]
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

    ``squares`` maps label intervals ``(lo, hi)`` to ``sum_j c_j**2``, with
    ``c_j`` the number of labels in ``lo..hi`` holding partite set ``j``;
    the passes record it for every subtree and sibling union whose labels
    form an interval.
    """

    __slots__ = ("guest", "embedding", "partite_at", "load", "squares")

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
        self.squares: dict[tuple[int, int], int] = {}
        for members in groups:
            _add_subtree_loads(links, partite_at, members, load, self.squares)
        load.pop()  # the ``spill`` slot, above the top of the host
        self.load = load


def _add_subtree_loads(
    links: HostLinks,
    partite_at: list[int],
    members: list[int],
    load: list[int],
    squares: dict[tuple[int, int], int],
) -> None:
    """Add to ``load`` each host edge's share of the guest edges among the
    labels ``members``, and record in ``squares`` the interval records
    described in ``_Tally``.

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
    the first of two siblings waits for the second.  It also keeps each
    record's ``sum_j c_j**2``, which a merge raises by twice the
    same-partite pairs it counts anyway, and records that sum for each
    subtree and sibling union whose whole label range (``links.lo`` to
    ``links.hi``) is members.
    """
    totals = Counter(partite_at[s] for s in members)
    size = [0] * len(partite_at)
    leaving = [0] * len(partite_at)
    square = [0] * len(partite_at)
    counts: list[dict[int, int]] = [{} for _ in partite_at]
    for s in members:
        size[s] = square[s] = 1
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
        square[a] += square[b] + 2 * same
        return between

    def record(t: int, low: int, high: int) -> None:
        # ``size[t]`` counts members only, so the range must be all members.
        if high - low + 1 == size[t]:
            squares[low, high] = square[t]

    up, up_edge, sib, sib_edge = links.up, links.up_edge, links.sib, links.sib_edge
    lo, hi = links.lo, links.hi
    done = [False] * len(partite_at)
    for t in links.order:
        # Every label below t came earlier in the order, so t's record is
        # its whole subtree.
        done[t] = True
        record(t, lo[t], hi[t])
        load[up_edge[t]] += leaving[t]
        twin = sib[t]
        if not twin:
            join(up[t], t)
        elif done[twin]:
            across = join(t, twin)
            record(t, min(lo[t], lo[twin]), max(hi[t], hi[twin]))
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
    index = _edge_index(host.links, host_edge)
    if index == host.links.spill:
        raise ValueError(f"{host_edge} is not a host edge (in label space)")
    return _tally(guest, host, embedding).load[index]


def cut_congestion(
    guest: Guest, host: HostTree, embedding: Embedding, cut: EdgeCut
) -> int:
    """Total congestion over a cut's edges."""
    indices = _checked_cuts(host.links, (cut,))[0][3]
    return _cut_load(_tally(guest, host, embedding).load, indices)


def _edge_index(links: HostLinks, edge: tuple[int, int]) -> int:
    """The index in ``links.edges`` of the label pair ``edge``, in either
    order, or ``links.spill`` when it is no host edge."""
    a, b = edge
    return links.edge_index.get((a, b) if a < b else (b, a), links.spill)


def _cut_load(load: list[int], indices: Sequence[int]) -> int:
    """Total of ``load`` over the edges with these indices."""
    return sum([load[x] for x in indices])


def _index_cuts(links: HostLinks, cuts: Iterable[EdgeCut]) -> list[tuple]:
    """A caller's cuts as the records ``hosts._standard_cuts`` makes: each
    label pair translated once by ``_edge_index``, with ``links.spill`` for
    a pair that is no host edge or repeats an edge of its cut."""
    spill = links.spill
    records = []
    for c in cuts:
        indices: list[int] = []
        for e in c.cut_edges:
            x = _edge_index(links, e)
            indices.append(spill if x in indices else x)
        records.append((c.family, c.j, c.i, indices,
                        c.component_lo, c.component_hi, c.multiplicity_share))
    return records


def _checked_cuts(links: HostLinks, cuts: Iterable[EdgeCut]) -> list[tuple]:
    """``_index_cuts``, refusing with ``ValueError`` the first label pair
    that is no host edge or repeats an edge of its cut."""
    cuts = tuple(cuts)  # read twice, so an iterator must not run dry
    records = _index_cuts(links, cuts)
    spill = links.spill
    for cut, record in zip(cuts, records):
        for edge, x in zip(cut.cut_edges, record[3]):
            if x == spill:
                if _edge_index(links, edge) != spill:
                    raise ValueError(f"cut edge {edge} repeats an edge of its cut")
                raise ValueError(f"cut edge {edge} is not a host edge")
    return records


def congestion_lemma_value(guest: Guest, subset: Iterable[int]) -> int:
    """Guest edges leaving ``subset``: degree sum minus twice the induced count.

    When a cut's preimage is an optimal set this is the smallest congestion
    any embedding can put on that cut.
    """
    chosen = set(subset)
    return len(chosen) * guest.degree - 2 * guest.induced_edge_count(chosen)


_NOT_BOUNDARY = "cut edges are not the edge boundary of labels {}..{}"


def _check_boundaries(links: HostLinks, count: int, cuts: Sequence[tuple]) -> None:
    """Raise ``ValueError`` at the first of the cut records ``cuts`` (see
    ``hosts._standard_cuts``) whose edges are not exactly the host edges
    with one end in its interval ``lo..hi``; ``count`` is the host's vertex
    count, and an edge index of ``links.spill`` stands for no host edge.

    Host edges that each have one end in ``lo..hi`` are the interval's
    whole edge boundary exactly when there are ``deg(lo..hi) - 2 *
    inner(lo..hi)`` of them, with ``deg`` the labels' degree total and
    ``inner`` the host edges with both ends inside.  ``inner`` is counted
    for every cut at once: by increasing ``hi``, the host edges whose larger
    end is at most ``hi`` go into a Fenwick tree over their smaller end,
    which counts those whose smaller end is at least ``lo``.  An edge whose
    larger end is below every ``lo`` lies in no component and is skipped.
    """
    edges, spill = links.edges, links.spill
    degree_sums, by_high = links.degree_sums, links.by_high
    failures: list[tuple[int, str]] = []  # (place in cuts, message)
    queries = []
    for place, (_, _, _, indices, lo, hi, _) in enumerate(cuts):
        if not 1 <= lo <= hi <= count:
            message = f"cut component {lo}..{hi} is not inside 1..{count}"
            failures.append((place, message))
            continue
        for x in indices:
            if x == spill:
                break
            a, b = edges[x]
            if (lo <= a <= hi) == (lo <= b <= hi):
                break
        else:
            # Every edge is a host edge with one end inside.  Twice the
            # inner edge count this many cut edges call for:
            twice_inner = degree_sums[hi] - degree_sums[lo - 1] - len(indices)
            queries.append((hi, lo, place, twice_inner))
            continue
        failures.append((place, _NOT_BOUNDARY.format(lo, hi)))
    queries.sort()
    tree = [0] * (count + 1)
    skipped = added = bisect_left(by_high, (min((q[1] for q in queries), default=1),))
    for hi, lo, place, twice_inner in queries:
        while added < len(by_high) and by_high[added][0] <= hi:
            t = by_high[added][1]
            while t <= count:
                tree[t] += 1
                t += t & -t
            added += 1
        inner, t = added - skipped, lo - 1
        while t:
            inner -= tree[t]
            t &= t - 1
        if 2 * inner != twice_inner:
            failures.append((place, _NOT_BOUNDARY.format(lo, hi)))
    if failures:
        raise ValueError(min(failures)[1])


def _side_squares(
    tally: _Tally, count: int, guest: Guest, lo: int, hi: int
) -> tuple[int, int]:
    """Size and ``sum_j c_j**2`` of one side of the cut with component
    ``lo..hi``, ``c_j`` being its labels holding partite set ``j``.

    Read off the tally's interval records, for the component or for the
    complement of a prefix or suffix: the complement's ``c'_j`` give
    ``c_j = r - c'_j``, so ``sum_j c_j**2 = P r**2 - 2 r s' + sum_j
    c'_j**2`` with ``P`` partite sets of ``r`` vertices and ``s'`` labels in
    the complement.  Any other interval counts its smaller side.
    """
    squares, inside = tally.squares, hi - lo + 1
    if (lo, hi) in squares:
        return inside, squares[lo, hi]
    rest = (hi + 1, count) if lo == 1 else (1, lo - 1) if hi == count else None
    if rest in squares:
        r, outside = guest.part_size, count - inside
        return inside, guest.part_count * r * r - 2 * r * outside + squares[rest]
    partite_at = tally.partite_at
    if 2 * inside <= count:
        labels = partite_at[lo:hi + 1]
    else:
        labels = partite_at[1:lo] + partite_at[hi + 1:]
    counts = Counter(labels).values()
    return len(labels), sum(c * c for c in counts)


def _cut_reports(
    guest: Guest, host: HostTree, tally: _Tally, cuts: Sequence[EdgeCut]
) -> tuple[CutConditionReport, ...]:
    """The condition report of every cut, in order; see
    ``verify_cut_conditions``."""
    return _reports(guest, host, tally, _index_cuts(host.links, cuts))


def _reports(
    guest: Guest,
    host: HostTree,
    tally: _Tally,
    cuts: Sequence[tuple],
    congestions: Sequence[int] | None = None,
) -> tuple[CutConditionReport, ...]:
    """``_cut_reports`` on cut records (see ``hosts._standard_cuts``).
    ``congestions``, when given, holds each cut's congestion."""
    links, count = host.links, host.vertex_count
    _check_boundaries(links, count, cuts)
    if congestions is None:
        congestions = [_cut_load(tally.load, cut[3]) for cut in cuts]
    degree = guest.degree
    parts, size = guest.part_count, guest.part_size
    best: dict[int, int] = {}  # largest induced edge count by side size
    reports = []
    for (_, _, _, indices, lo, hi, _), congestion in zip(cuts, congestions):
        side, square_sum = _side_squares(tally, count, guest, lo, hi)
        induced = (side * side - square_sum) // 2
        leaving = side * degree - 2 * induced
        if side not in best:
            best[side] = formulas.max_subgraph_edges_closed_form(parts, size, side)
        # The guest is regular, so the other side induces E - side*deg +
        # induced edges, and it is densest exactly when this side is.
        optimal = induced == best[side]
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

    The cut's edges are the edge boundary of its component interval, so a
    route between the two sides uses an odd number of them and any other
    route an even number.  The preimage counts come from the subtree pass:
    when the component, or the complement of a prefix or suffix
    component, is a subtree or sibling union (every standard cut), the
    pass recorded its size and sum of squared partite counts; any other
    interval counts its smaller side.  With ``same`` the load the same-side routes put
    on the cut (``_Tally`` with that interval as ``side``: the subtree pass
    over the labels inside it plus the one over those outside), no same-side
    route touches the cut exactly when ``same == 0``, and every crossing
    route uses one cut edge exactly when the congestion minus ``same``
    equals the number of crossing guest edges.  When the congestion already
    equals that number, both hold and no further pass runs.

    Raises ``ValueError`` when the cut edges are not exactly the host edges
    with one end in the cut's component interval: each must be a host edge
    with one end inside, and there must be as many as the interval's degree
    total minus twice its inner host edges.  ``build_report`` checks all
    its cuts this way in one batch, counting inner edges with a Fenwick
    tree.
    """
    return _cut_reports(guest, host, _tally(guest, host, embedding), (cut,))[0]


def wirelength_via_partition(
    guest: Guest,
    host: HostTree,
    embedding: Embedding,
    cuts: Iterable[EdgeCut] | None = None,
) -> int:
    """Wirelength from cut congestions.

    The cut family must cover every host edge the same number of times;
    the congestion total, weighted by each cut's multiplicity share, then
    overcounts the wirelength by exactly that factor.
    """
    if cuts is None:
        cuts = cut_family(host)
    load = _tally(guest, host, embedding).load
    records = _checked_cuts(host.links, cuts)
    return _partition_total(host.links, records, [_cut_load(load, r[3]) for r in records])


def _partition_total(
    links: HostLinks, cuts: Sequence[tuple], congestions: Sequence[int]
) -> int:
    """``wirelength_via_partition`` from cut records of host edges (see
    ``hosts._standard_cuts``) and each cut's congestion."""
    coverage = [0] * links.spill
    for _, _, _, indices, _, _, share in cuts:
        for x in indices:
            coverage[x] += share
    counts = set(coverage)
    k_mult = counts.pop()
    # A count of 0 is an edge no cut covers.
    if counts or not k_mult:
        raise CoverageError("cut family does not cover every host edge uniformly")
    total = sum(cut[6] * c for cut, c in zip(cuts, congestions))
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
    tally = _tally(guest, host, embedding)
    load = tally.load
    congestions = [_cut_load(load, cut[3]) for cut in cuts]
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
