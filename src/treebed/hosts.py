"""Host trees: chains of rooted complete binary trees, with or without sibling edges.

A host is built from ``k`` identical blocks.  Each block is a complete binary
tree of height ``n1`` (``2**n1 - 1`` tree vertices) plus one pendant vertex
attached to the tree root; the pendant acts as the block's root.  The ``k``
pendants are joined in a path, so the whole host has ``k * 2**n1`` vertices.
Sibling hosts additionally connect the two children of every internal tree
vertex.

Construction uses heap indices: inside block ``s`` the tree vertex with heap
index ``h`` (root ``1``, children of ``h`` at ``2h`` and ``2h+1``) gets the
vertex id ``s * 2**n1 + h`` and the pendant gets ``(s + 1) * 2**n1``.  Vertex
ids are fixed by construction; position labels (a bijection onto the same
range) are assigned separately by a labeling function, and everything
downstream of labeling works in label space.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from treebed.errors import ConsistencyError, UnlabeledHostError
from treebed.frozen import Frozen
from treebed.graphs import Graph

__all__ = [
    "HostTree",
    "RoutingTables",
    "EdgeCut",
    "build_host",
    "check_host_shape",
    "inorder_labeling",
    "sibling_layout_labeling",
    "cut_family",
    "LAYOUT_VARIANTS",
]

# Sibling layout variants: order of (left subtree, right subtree, parent)
# within each block.  0 and 1 put children before the parent, 2 and 3 after.
LAYOUT_VARIANTS = (0, 1, 2, 3)


class HostTree(Frozen):
    """A built host; compared and hashed by identity.

    ``level_of`` maps vertex ids to levels: pendants sit at level 0, tree
    roots at level 1, leaves at level ``n1``.  ``label_of`` is ``None`` until
    a labeling function produces a labeled copy.
    """

    _fields = (
        "graph", "n1", "k", "sibling", "level_of", "parent_of", "sibling_pairs",
        "root_chain", "label_of",
    )
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        graph: Graph,
        n1: int,
        k: int,
        sibling: bool,
        level_of: dict[int, int],
        parent_of: dict[int, int],
        sibling_pairs: frozenset[tuple[int, int]],
        root_chain: tuple[int, ...],
        label_of: dict[int, int] | None = None,
    ) -> None:
        self._set(
            graph=graph, n1=n1, k=k, sibling=sibling, level_of=level_of,
            parent_of=parent_of, sibling_pairs=sibling_pairs,
            root_chain=root_chain, label_of=label_of,
        )

    @property
    def is_labeled(self) -> bool:
        return self.label_of is not None

    @property
    def kind(self) -> str:
        return "sibling" if self.sibling else "binary"

    def _require_labels(self) -> dict[int, int]:
        if self.label_of is None:
            raise UnlabeledHostError("host has no position labels; apply a labeling first")
        return self.label_of

    @cached_property
    def vertex_of_label(self) -> dict[int, int]:
        labels = self._require_labels()
        return {lab: vid for vid, lab in labels.items()}

    @cached_property
    def label_edges(self) -> frozenset[tuple[int, int]]:
        """Host edges as normalized label pairs."""
        labels = self._require_labels()
        out = set()
        for u, v in self.graph.edges:
            a, b = labels[u], labels[v]
            out.add((a, b) if a < b else (b, a))
        return frozenset(out)

    @cached_property
    def label_adjacency(self) -> dict[int, tuple[int, ...]]:
        """Sorted neighbor labels keyed by label; drives deterministic routing."""
        nbrs: dict[int, list[int]] = {
            lab: [] for lab in range(1, self.graph.vertex_count + 1)
        }
        for a, b in self.label_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return {lab: tuple(sorted(ns)) for lab, ns in nbrs.items()}

    @cached_property
    def routing(self) -> RoutingTables:
        """Distances and canonical next-hop in-trees toward every label."""
        return RoutingTables(self)


class RoutingTables:
    """Label distances and canonical shortest-path routes, as in-trees.

    The canonical route from a label to a larger goal ``g`` always steps to
    the smallest-labeled neighbor one step closer to ``g``.  Those steps
    form an in-tree rooted at ``g``.  Per goal ``g``:

    - ``distance[g][t]`` is the distance between labels ``g`` and ``t``;
    - ``next_hop[g][t]`` is the label the route toward ``g`` steps to from
      ``t``, and ``hop_edge[g][t]`` the index in ``edges`` of that step;
    - ``sweep[g]`` lists every label but ``g`` in decreasing distance from
      ``g``, so each label comes before its next hop.

    Per-goal lists are indexed by label; slot 0 and slot ``g`` of
    ``next_hop[g]`` and ``hop_edge[g]`` are unused, as is goal 0.  ``memo``
    holds results for the most recent (guest, embedding) routed over these
    tables, so repeated queries on one instance share one pass and die
    with the host.
    """

    __slots__ = (
        "edges", "edge_index", "distance", "next_hop", "hop_edge", "sweep", "memo"
    )

    def __init__(self, host: HostTree) -> None:
        count = host.graph.vertex_count
        self.edges = tuple(sorted(host.label_edges))
        self.edge_index = {edge: idx for idx, edge in enumerate(self.edges)}
        indexed = {
            t: tuple((w, self.edge_index[(t, w) if t < w else (w, t)]) for w in ws)
            for t, ws in host.label_adjacency.items()
        }
        self.distance: list[list[int]] = [[]]
        self.next_hop: list[list[int]] = [[]]
        self.hop_edge: list[list[int]] = [[]]
        self.sweep: list[list[int]] = [[]]
        self.memo = None
        for goal in range(1, count + 1):
            # Breadth-first from the goal: every label one step closer is
            # scanned before the label, so the smallest one wins.
            dist = [-1] * (count + 1)
            dist[goal] = 0
            hops = [0] * (count + 1)
            hop_edges = [0] * (count + 1)
            order = [goal]
            for u in order:
                du = dist[u] + 1
                for w, edge in indexed[u]:
                    dw = dist[w]
                    if dw < 0:
                        dist[w] = du
                        hops[w], hop_edges[w] = u, edge
                        order.append(w)
                    elif dw == du and u < hops[w]:
                        hops[w], hop_edges[w] = u, edge
            self.distance.append(dist)
            self.next_hop.append(hops)
            self.hop_edge.append(hop_edges)
            order.reverse()
            order.pop()
            self.sweep.append(order)


class EdgeCut(NamedTuple):
    """One cut in a host's edge-cut family.

    ``cut_edges`` are label pairs.  Removing them splits the host in two;
    the side designated as the component occupies exactly the labels
    ``component_lo..component_hi``, so the cut edges are exactly the host
    edges with one end in that interval (``verify_cut_conditions`` rejects
    a cut that breaks this rule).  ``multiplicity_share`` is how many
    times this cut counts in the family's coverage of its edges (the chain
    cuts of sibling hosts count double; everything else counts once).
    """

    family: str
    j: int | None
    i: int
    cut_edges: frozenset[tuple[int, int]]
    component_lo: int
    component_hi: int
    multiplicity_share: int = 1

    @property
    def component_labels(self) -> range:
        return range(self.component_lo, self.component_hi + 1)


def check_host_shape(n1: int, k: int) -> None:
    """Raise ``ValueError`` unless ``n1 >= 1`` and ``k >= 1``."""
    if n1 < 1:
        raise ValueError(f"n1 must be at least 1, got {n1}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def build_host(n1: int, k: int, sibling: bool = False) -> HostTree:
    """Assemble the host with ``k`` blocks of height ``n1``.

    ``sibling=True`` adds the edge between the two children of every
    internal tree vertex (``2**(n1-1) - 1`` extra edges per block).
    """
    check_host_shape(n1, k)
    if k * (1 << n1) > (1 << 20):
        raise ValueError(f"host with k={k}, n1={n1} exceeds the supported 2**20 vertices")

    block = 1 << n1
    top = block - 1  # largest heap index of a tree vertex
    edges: set[tuple[int, int]] = set()
    level_of: dict[int, int] = {}
    parent_of: dict[int, int] = {}
    sibling_pairs: set[tuple[int, int]] = set()
    chain: list[int] = []

    for s in range(k):
        base = s * block
        pendant = base + block
        level_of[pendant] = 0
        chain.append(pendant)
        for h in range(1, top + 1):
            vid = base + h
            level_of[vid] = h.bit_length()
            if h == 1:
                parent_of[vid] = pendant
                edges.add((vid, pendant))
            else:
                parent_of[vid] = base + h // 2
                edges.add((base + h // 2, vid))
        if sibling:
            for h in range(1, top // 2 + 1):
                pair = (base + 2 * h, base + 2 * h + 1)
                sibling_pairs.add(pair)
                edges.add(pair)

    for left, right in zip(chain, chain[1:]):
        edges.add((left, right))

    graph = Graph.from_edges(k * block, edges)
    return HostTree(
        graph=graph,
        n1=n1,
        k=k,
        sibling=sibling,
        level_of=level_of,
        parent_of=parent_of,
        sibling_pairs=frozenset(sibling_pairs),
        root_chain=tuple(chain),
    )


def _inorder_heap(top: int) -> list[int]:
    """Inorder traversal of the complete tree on heap indices ``1..top``."""
    out: list[int] = []
    stack: list[int] = []
    cur = 1
    while stack or cur <= top:
        while cur <= top:
            stack.append(cur)
            cur = 2 * cur
        cur = stack.pop()
        out.append(cur)
        cur = 2 * cur + 1
    return out


def _layout_heap(top: int, variant: int) -> list[int]:
    """Block layout order for sibling hosts; keeps sibling pairs adjacent."""

    def rec(h: int) -> list[int]:
        if 2 * h > top:
            return [h]
        left = rec(2 * h)
        right = rec(2 * h + 1)
        if variant == 0:
            return left + right + [h]
        if variant == 1:
            return right + left + [h]
        if variant == 2:
            return [h] + left + right
        return [h] + right + left

    return rec(1)


def _apply_block_order(host: HostTree, order: list[int]) -> HostTree:
    """Label every block by ``order`` (heap indices), pendant last."""
    block = 1 << host.n1
    label_of: dict[int, int] = {}
    for s in range(host.k):
        base = s * block
        for idx, h in enumerate(order, start=1):
            label_of[base + h] = base + idx
        label_of[base + block] = base + block
    return host._replace(label_of=label_of)


def inorder_labeling(host: HostTree) -> HostTree:
    """Label each block by inorder tree traversal; pendants get block-last labels.

    Only meaningful for plain binary hosts.  Returns a labeled copy.
    """
    if host.sibling:
        raise ValueError("inorder labeling applies to plain binary hosts only")
    return _apply_block_order(host, _inorder_heap((1 << host.n1) - 1))


def sibling_layout_labeling(host: HostTree, variant: int = 0) -> HostTree:
    """Label each block of a sibling host so sibling pairs stay adjacent.

    Variant 0 orders every subtree as (left, right, parent), variant 1
    mirrors the children, variants 2 and 3 put the parent first.  All four
    keep each subtree, and each sibling pair's union of subtrees, on a
    consecutive label interval.  Returns a labeled copy.
    """
    if not host.sibling:
        raise ValueError("sibling layout applies to sibling hosts only")
    if variant not in LAYOUT_VARIANTS:
        raise ValueError(f"variant must be one of {LAYOUT_VARIANTS}, got {variant}")
    return _apply_block_order(host, _layout_heap((1 << host.n1) - 1, variant))


def _subtree_heap(h: int, top: int) -> list[int]:
    """Heap indices of the subtree rooted at ``h`` within ``1..top``."""
    out: list[int] = []
    frontier = [h]
    while frontier:
        out.extend(frontier)
        frontier = [c for x in frontier for c in (2 * x, 2 * x + 1) if c <= top]
    return out


def _label_edge(labels: dict[int, int], u: int, v: int) -> tuple[int, int]:
    a, b = labels[u], labels[v]
    return (a, b) if a < b else (b, a)


def _interval(labels: dict[int, int], ids: list[int]) -> tuple[int, int]:
    got = sorted(labels[v] for v in ids)
    lo, hi = got[0], got[-1]
    if hi - lo + 1 != len(got):
        raise ConsistencyError(f"cut component labels {got} do not form an interval")
    return lo, hi


def cut_family(host: HostTree) -> tuple[EdgeCut, ...]:
    """The host's standard edge-cut family, in deterministic order.

    Plain binary hosts get one single-edge cut per tree/pendant edge
    (family ``S``) and one per chain edge (family ``ROOT``); every host edge
    is covered exactly once.  Sibling hosts get two-edge ``S`` cuts (parent
    edge plus sibling edge), two-edge ``SS`` cuts around each sibling pair,
    a duplicate pendant cut (listed under ``SS`` at ``j = n1``), and chain
    cuts with ``multiplicity_share = 2``; every edge is covered exactly twice.
    """
    labels = host._require_labels()
    n1, k = host.n1, host.k
    block = 1 << n1
    top = block - 1
    cuts: list[EdgeCut] = []

    def block_of(index: int, per_block: int) -> tuple[int, int]:
        s, rem = divmod(index - 1, per_block)
        return s, rem + 1

    # Family S: one cut per tree vertex, indexed left-to-right at each depth.
    # The cut isolates the subtree under heap vertex h; for sibling hosts the
    # sibling edge at h leaves with the parent edge.
    for j in range(1, n1 + 1):
        per_block = 1 << (n1 - j)
        for i in range(1, k * per_block + 1):
            s, local = block_of(i, per_block)
            base = s * block
            h = per_block + local - 1
            parent = host.parent_of[base + h]
            cut_edges = {_label_edge(labels, base + h, parent)}
            if host.sibling and h >= 2:
                cut_edges.add(_label_edge(labels, base + h, base + (h ^ 1)))
            lo, hi = _interval(labels, [base + x for x in _subtree_heap(h, top)])
            cuts.append(EdgeCut("S", j, i, frozenset(cut_edges), lo, hi))

    if host.sibling:
        # Family SS: both child edges of an internal vertex; the component is
        # the union of the two child subtrees.
        for j in range(1, n1):
            per_block = 1 << (n1 - j - 1)
            for i in range(1, k * per_block + 1):
                s, local = block_of(i, per_block)
                base = s * block
                q = per_block + local - 1
                cut_edges = {
                    _label_edge(labels, base + q, base + 2 * q),
                    _label_edge(labels, base + q, base + 2 * q + 1),
                }
                ids = [
                    base + x
                    for child in (2 * q, 2 * q + 1)
                    for x in _subtree_heap(child, top)
                ]
                lo, hi = _interval(labels, ids)
                cuts.append(EdgeCut("SS", j, i, frozenset(cut_edges), lo, hi))
        # Duplicate pendant cut, so pendant edges reach coverage 2 like the rest.
        for s in range(k):
            base = s * block
            cut_edges = {_label_edge(labels, base + 1, base + block)}
            lo, hi = _interval(labels, [base + x for x in _subtree_heap(1, top)])
            cuts.append(EdgeCut("SS", n1, s + 1, frozenset(cut_edges), lo, hi))

    # Family ROOT: chain cuts; the component is the first i blocks.
    share = 2 if host.sibling else 1
    for i in range(1, k):
        cut_edges = {_label_edge(labels, host.root_chain[i - 1], host.root_chain[i])}
        ids = list(range(1, i * block + 1))
        lo, hi = _interval(labels, ids)
        cuts.append(EdgeCut("ROOT", None, i, frozenset(cut_edges), lo, hi, share))

    return tuple(cuts)
