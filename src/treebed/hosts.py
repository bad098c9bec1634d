"""Host trees: chains of rooted complete binary trees, with or without sibling edges.

A host is built from ``k`` identical blocks.  Each block is a complete binary
tree of height ``n1`` (``2**n1 - 1`` tree vertices) plus one pendant vertex
attached to the tree root; the pendant acts as the block's root.  The ``k``
pendants are joined in a path, so the whole host has ``k * 2**n1`` vertices.
Sibling hosts additionally connect the two children of every internal tree
vertex.

So a host is the value ``(n1, k, sibling, variant)``: its shape and the
fixed labeling of its blocks, inorder for binary hosts (variant 0) and one
of four sibling layouts for sibling hosts.  The tree vertices of a block are
heap indices (root ``1``, children of ``h`` at ``2h`` and ``2h+1``), and the
labeling lists them in label order.  Heap index ``h`` of block ``s`` then
gets label ``s * 2**n1 + pos[h]``, its place in the layout, and hangs from
heap index ``h // 2`` (the tree root from the block's pendant); the pendant
gets the block-last label ``(s + 1) * 2**n1`` and hangs from the previous
pendant.  Everything is built in label space from this arithmetic.  Vertex
ids (``s * 2**n1 + h``, the pendant being ``h = 2**n1``) survive only as the
keys of ``label_of``.  Every labeling keeps each subtree, and each sibling
pair's union of subtrees, on a label interval.

Without its sibling edges a host is a tree, and each sibling edge joins two
children of one parent, so every two labels are joined by exactly one
shortest path.  ``HostLinks`` keeps each label's parent (or chain) link and
sibling link and builds the routes toward any goal from them: a label on
the goal's spine (the goal and its ancestors) steps down toward the goal,
the sibling of a spine label steps across to it, and every other label
steps up.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

from treebed.frozen import Frozen

__all__ = [
    "HostTree",
    "HostLinks",
    "EdgeCut",
    "build_host",
    "check_host_shape",
    "host_counts",
    "inorder_labeling",
    "sibling_layout_labeling",
    "cut_family",
    "LAYOUT_VARIANTS",
]

# Sibling layout variants: order of (left subtree, right subtree, parent)
# within each block.  0 and 1 put children before the parent, 2 and 3 after.
LAYOUT_VARIANTS = (0, 1, 2, 3)
_SIBLING_ORDERS = ((0, 1, 2), (1, 0, 2), (2, 0, 1), (2, 1, 0))
# Binary hosts list every subtree inorder: left subtree, parent, right subtree.
_INORDER = (0, 2, 1)


class HostTree(Frozen):
    """A host, fixed by its shape and the labeling variant of its blocks.

    ``k`` blocks of height ``n1``, with sibling edges when ``sibling``.
    ``variant`` is 0 for binary hosts, labeled inorder, and one of
    ``LAYOUT_VARIANTS`` for sibling hosts.  Compared and hashed by value.
    """

    _fields = ("n1", "k", "sibling", "variant")

    def __init__(self, n1: int, k: int, sibling: bool, variant: int = 0) -> None:
        _check_host_size(n1, k)
        if sibling and variant not in LAYOUT_VARIANTS:
            raise ValueError(f"variant must be one of {LAYOUT_VARIANTS}, got {variant}")
        if not sibling and variant != 0:
            raise ValueError(f"binary hosts have only variant 0, got {variant}")
        self._set(n1=n1, k=k, sibling=sibling, variant=variant)

    @property
    def kind(self) -> str:
        return "sibling" if self.sibling else "binary"

    @property
    def vertex_count(self) -> int:
        return self.k << self.n1

    @cached_property
    def layout(self) -> tuple[int, ...]:
        """A block's heap indices in label order: heap index ``layout[i]``
        of block ``s`` gets label ``s * 2**n1 + i + 1``."""
        order = _SIBLING_ORDERS[self.variant] if self.sibling else _INORDER
        return tuple(_heap_order((1 << self.n1) - 1, order))

    def _positions(self) -> list[int]:
        """Per heap index ``h``, the label of block 0's vertex ``h``; the
        pendant is heap index ``2**n1`` and keeps its place."""
        pos = list(range((1 << self.n1) + 1))
        for lab, h in enumerate(self.layout, start=1):
            pos[h] = lab
        return pos

    @cached_property
    def label_of(self) -> dict[int, int]:
        """Label of every vertex id: vertex ``s * 2**n1 + h`` is heap index
        ``h`` of block ``s``, and ``h = 2**n1`` is the block's pendant."""
        pos = self._positions()
        block = 1 << self.n1
        return {
            base + h: base + pos[h]
            for base in range(0, self.vertex_count, block)
            for h in range(1, block + 1)
        }

    @cached_property
    def label_edges(self) -> frozenset[tuple[int, int]]:
        """Host edges as normalized label pairs."""
        return frozenset(self.links.edges)

    @cached_property
    def links(self) -> HostLinks:
        """Parent, chain and sibling links in label space; routes every goal."""
        return HostLinks(self)


class HostLinks:
    """A host's parent, chain and sibling links, in label space.

    Dropping the sibling edges leaves a tree rooted at the first pendant:
    every tree vertex hangs from its parent, every tree root from its
    block's pendant, and every pendant from the previous one on the chain.
    Each sibling edge joins two children of one parent.  So between any two
    labels there is exactly one shortest path, and the canonical route (the
    smallest-labeled neighbor one step closer to the goal, of which there is
    only one) is that path.  Per label ``t``:

    - ``up[t]`` is the label ``t`` hangs from and ``up_edge[t]`` the index
      in ``edges`` of that link (0 and ``spill`` at the top of the host);
    - ``sib[t]`` is the sibling of ``t`` and ``sib_edge[t]`` the index of
      their edge (0 and ``spill`` when ``t`` has none).

    ``order`` lists every label before the label it hangs from.  ``spill
    == len(edges)`` indexes no edge; it stands in where a label has no
    link.  ``memo`` holds the tallies for the most recent (guest,
    embedding) routed over these links, so repeated queries on one
    instance share one pass and die with the host.

    The subtree of ``t`` is ``t`` and every label below it on the ``up``
    links; ``lo[t]`` and ``hi[t]`` are its lowest and highest label, and
    every labeling puts it on all of ``lo[t]..hi[t]``.

    For the edge-boundary check of cuts: ``degree_sums[t]`` is the degree
    total of labels ``1..t``, and ``by_high`` lists every edge as
    ``(larger end, smaller end)`` in increasing order.
    """

    __slots__ = (
        "edges", "edge_index", "spill", "up", "up_edge", "sib", "sib_edge",
        "order", "lo", "hi", "memo", "degree_sums", "by_high",
    )

    def __init__(self, host: HostTree) -> None:
        pos = host._positions()
        count = host.vertex_count
        block = 1 << host.n1
        up = [0] * (count + 1)
        sib = [0] * (count + 1)
        order: list[int] = []
        # Blocks last to first, each from its leaves up to its pendant, which
        # hangs from the previous block's pendant (label ``base``).
        for base in range(count - block, -1, -block):
            pendant = base + block
            for h in range(block - 1, 0, -1):
                t = base + pos[h]
                up[t] = base + pos[h >> 1] if h > 1 else pendant
                if host.sibling and h > 1:
                    sib[t] = base + pos[h ^ 1]
                order.append(t)
            up[pendant] = base
            order.append(pendant)
        links = [(t, u) for t, u in enumerate(up) if u]
        pairs = [(a, b) for a, b in enumerate(sib) if a < b]
        edges = [(u, t) if u < t else (t, u) for t, u in links] + pairs
        self.edges = tuple(edges)
        self.edge_index = {edge: idx for idx, edge in enumerate(edges)}
        self.spill = spill = len(edges)
        self.up = up
        self.up_edge = [spill] * (count + 1)
        for idx, (t, _) in enumerate(links):
            self.up_edge[t] = idx
        self.sib = sib
        self.sib_edge = [spill] * (count + 1)
        for idx, (a, b) in enumerate(pairs, start=len(links)):
            self.sib_edge[a] = self.sib_edge[b] = idx
        self.order = order
        lo = list(range(count + 1))
        hi = lo[:]
        for t in order:
            u = up[t]
            if lo[t] < lo[u]:
                lo[u] = lo[t]
            if hi[t] > hi[u]:
                hi[u] = hi[t]
        self.lo, self.hi = lo, hi
        self.memo = None
        degree = [0] * (count + 1)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        self.degree_sums = list(accumulate(degree))
        self.by_high = sorted((b, a) for a, b in edges)

    def in_tree(self, goal: int) -> tuple[list[int], list[int], list[int]]:
        """Every label's route toward ``goal``, as an in-tree.

        Returns ``(hops, hop_edges, spine)``: ``hops[t]`` is the label the
        route from ``t`` steps to and ``hop_edges[t]`` the index of that
        step's edge (0 and ``spill`` at the goal).  ``spine`` lists the
        goal's ancestors from the top of the host down to the goal.  A label
        off the spine steps up, unless its sibling is on the spine: then it
        steps across to that sibling.  A spine label steps down toward the
        goal.
        """
        up, up_edge, sib, sib_edge = self.up, self.up_edge, self.sib, self.sib_edge
        hops = up[:]
        hop_edges = up_edge[:]
        hops[goal], hop_edges[goal] = 0, self.spill
        spine = [goal]
        t = goal
        while True:
            s = sib[t]
            if s:
                hops[s], hop_edges[s] = t, sib_edge[t]
            u = up[t]
            if not u:
                break
            hops[u], hop_edges[u] = t, up_edge[t]
            spine.append(u)
            t = u
        spine.reverse()
        return hops, hop_edges, spine

    def route_sums(self, goal: int, weight: list[int]) -> list[int]:
        """Per label, the total ``weight[e]`` over the edges ``e`` of its
        route to ``goal`` (``weight[spill]`` must be 0)."""
        hops, hop_edges, spine = self.in_tree(goal)
        total = [0] * len(hops)
        # The spine from the goal upward, then every label from the top
        # down: each label comes after the label it steps to.
        for t in chain(reversed(spine), reversed(self.order)):
            total[t] = total[hops[t]] + weight[hop_edges[t]]
        return total


class EdgeCut(NamedTuple):
    """One cut in a host's edge-cut family.

    ``cut_edges`` are label pairs.  Removing them splits the host in two;
    the side designated as the component occupies exactly the labels
    ``component_lo..component_hi``, so the cut edges are exactly the host
    edges with one end in that interval.  ``verify_cut_conditions`` and
    ``build_report`` reject a cut that breaks this rule: every cut edge is
    a host edge with one end inside, and there are as many as the
    interval's degree total minus twice its inner host edges.
    ``multiplicity_share`` is how many times this cut counts in the
    family's coverage of its edges (the chain cuts of sibling hosts count
    double; everything else counts once).
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


def _check_host_size(n1: int, k: int) -> None:
    """``check_host_shape``, then refuse hosts above 2**20 vertices."""
    check_host_shape(n1, k)
    # Bound n1 first, so that an absurd n1 is refused before 2**n1 is built.
    if n1 > 20 or k * (1 << n1) > (1 << 20):
        raise ValueError(f"host with k={k}, n1={n1} exceeds the supported 2**20 vertices")


def host_counts(n1: int, k: int, sibling: bool = False) -> dict:
    """The counts of ``build_host(n1, k, sibling)``, without building it.

    Returns ``vertex_count``, ``edge_count``, ``sibling_edge_count`` and
    ``level_counts`` (vertices per level, pendants at level 0), and
    validates like ``build_host``.
    """
    _check_host_size(n1, k)
    vertices = k << n1
    siblings = k * ((1 << (n1 - 1)) - 1) if sibling else 0
    levels = {0: k}
    levels.update((level, k << (level - 1)) for level in range(1, n1 + 1))
    return {
        "vertex_count": vertices,
        "edge_count": vertices - 1 + siblings,
        "sibling_edge_count": siblings,
        "level_counts": levels,
    }


def build_host(n1: int, k: int, sibling: bool = False) -> HostTree:
    """The host with ``k`` blocks of height ``n1``, in variant 0.

    ``sibling=True`` adds the edge between the two children of every
    internal tree vertex (``2**(n1-1) - 1`` extra edges per block).
    """
    return HostTree(n1, k, sibling)


def _heap_order(top: int, order: tuple[int, int, int]) -> list[int]:
    """The heap indices ``1..top`` of a complete tree, every subtree listed
    as its (left subtree, right subtree, root) taken in ``order``."""
    first, second, third = order
    out: list[int] = []
    todo = [1]  # subtrees still to list, the next one last; -h is h alone
    while todo:
        h = todo.pop()
        if h < 0 or 2 * h > top:
            out.append(abs(h))
        else:
            parts = (2 * h, 2 * h + 1, -h)
            todo += parts[third], parts[second], parts[first]
    return out


def inorder_labeling(host: HostTree) -> HostTree:
    """``host``, which as a binary host is already labeled inorder: each
    block by inorder tree traversal, its pendant last.

    Refuses sibling hosts.  It stays only because ``perfbench/traced.py``
    calls it, and goes with the ``Guest.graph`` alias (ROADMAP item 5,
    step 2).
    """
    if host.sibling:
        raise ValueError("inorder labeling applies to plain binary hosts only")
    return host


def sibling_layout_labeling(host: HostTree, variant: int = 0) -> HostTree:
    """The sibling host ``host`` with its blocks in layout ``variant``.

    Variant 0 orders every subtree as (left, right, parent), variant 1
    mirrors the children, variants 2 and 3 put the parent first.  All four
    keep each subtree, and each sibling pair's union of subtrees, on a
    consecutive label interval.
    """
    if not host.sibling:
        raise ValueError("sibling layout applies to sibling hosts only")
    return host._replace(variant=variant)


def cut_family(host: HostTree) -> tuple[EdgeCut, ...]:
    """The host's standard edge-cut family, in deterministic order.

    Plain binary hosts get one single-edge cut per tree/pendant edge
    (family ``S``) and one per chain edge (family ``ROOT``); every host edge
    is covered exactly once.  Sibling hosts get two-edge ``S`` cuts (parent
    edge plus sibling edge), two-edge ``SS`` cuts around each sibling pair,
    a duplicate pendant cut (listed under ``SS`` at ``j = n1``), and chain
    cuts with ``multiplicity_share = 2``; every edge is covered exactly twice.

    Cuts are read off the host's links: each cut edge is a label's parent
    or sibling link, and each component is a union of subtrees whose label
    range is taken bottom-up.
    """
    records = _standard_cuts(host)
    edge = host.links.edges.__getitem__
    return tuple(
        EdgeCut(family, j, i, frozenset(map(edge, indices)), lo, hi, share)
        for family, j, i, indices, lo, hi, share in records
    )


def _standard_cuts(host: HostTree) -> list[tuple]:
    """``cut_family(host)`` with each cut's edges as indices into
    ``host.links.edges``: one ``(family, j, i, indices, lo, hi, share)``
    record per cut, in ``EdgeCut``'s field order."""
    pos = host._positions()
    links = host.links
    up_edge, sib_edge = links.up_edge, links.sib_edge
    lo, hi = links.lo, links.hi
    n1, k, sibling = host.n1, host.k, host.sibling
    block = 1 << n1
    cuts: list[tuple] = []
    # Family S: one cut per tree vertex, indexed left-to-right at each depth
    # across the blocks (heap index h of block s has label s * block + pos[h]).
    # The cut isolates the subtree under the vertex; for sibling hosts the
    # sibling edge leaves with the parent edge.
    for j in range(1, n1 + 1):
        per_block = 1 << (n1 - j)
        i = 0
        for base in range(0, k * block, block):
            for h in range(per_block, 2 * per_block):
                i += 1
                t = base + pos[h]
                edge = up_edge[t]
                indices = (edge, sib_edge[t]) if sibling and h >= 2 else (edge,)
                cuts.append(("S", j, i, indices, lo[t], hi[t], 1))

    if sibling:
        # Family SS: both child edges of an internal vertex; the component is
        # the union of the two child subtrees.
        for j in range(1, n1):
            per_block = 1 << (n1 - j - 1)
            i = 0
            for base in range(0, k * block, block):
                for q in range(per_block, 2 * per_block):
                    i += 1
                    a, b = base + pos[2 * q], base + pos[2 * q + 1]
                    low, high = min(lo[a], lo[b]), max(hi[a], hi[b])
                    cuts.append(("SS", j, i, (up_edge[a], up_edge[b]), low, high, 1))
        # Duplicate pendant cut, so pendant edges reach coverage 2 like the rest.
        for s in range(k):
            t = s * block + pos[1]
            cuts.append(("SS", n1, s + 1, (up_edge[t],), lo[t], hi[t], 1))

    # Family ROOT: chain cuts; the component is the first i blocks, labels
    # 1..i * block, cut off by the chain link of the next pendant.
    share = 2 if sibling else 1
    for i in range(1, k):
        indices = (up_edge[(i + 1) * block],)
        cuts.append(("ROOT", None, i, indices, 1, i * block, share))

    return cuts
