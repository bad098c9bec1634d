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

``HostLinks`` keeps each label's parent (or chain) link and sibling link,
from which every route, distance and cut boundary is read.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from treebed.errors import ConsistencyError
from treebed.frozen import Frozen

__all__ = [
    "HostTree",
    "HostLinks",
    "EdgeCut",
    "check_host_shape",
    "cut_edges",
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
    Its counts come from the shape alone; its links, labels and cut family
    are built on first use.
    """

    _fields = ("n1", "k", "sibling", "variant")

    def __init__(self, n1: int, k: int, sibling: bool, variant: int = 0) -> None:
        _check_host_size(n1, k)
        if not isinstance(sibling, bool):
            raise ValueError(f"sibling must be True or False, got {sibling!r}")
        if sibling and not (isinstance(variant, int) and variant in LAYOUT_VARIANTS):
            raise ValueError(f"variant must be one of {LAYOUT_VARIANTS}, got {variant}")
        if not sibling and (variant != 0 or not isinstance(variant, int)):
            raise ValueError(f"binary hosts have only variant 0, got {variant}")
        self._set(n1=n1, k=k, sibling=sibling, variant=variant)

    @property
    def kind(self) -> str:
        return "sibling" if self.sibling else "binary"

    @property
    def vertex_count(self) -> int:
        return self.k << self.n1

    @property
    def edge_count(self) -> int:
        """The tree and chain links (one per label but the top), plus the sibling edges."""
        return self.vertex_count - 1 + self.sibling_edge_count

    @property
    def sibling_edge_count(self) -> int:
        """One sibling edge per internal tree vertex: ``2**(n1-1) - 1`` per block."""
        return self.k * ((1 << (self.n1 - 1)) - 1) if self.sibling else 0

    @property
    def level_counts(self) -> dict[int, int]:
        """Vertices per level: the ``k`` pendants at level 0, then
        ``k * 2**(level-1)`` tree vertices at each level ``1..n1``."""
        levels = {0: self.k}
        levels.update((level, self.k << (level - 1)) for level in range(1, self.n1 + 1))
        return levels

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
    def links(self) -> HostLinks:
        """Parent, chain and sibling links in label space; distances to any goal."""
        return HostLinks(self)

    @cached_property
    def cuts(self) -> tuple[tuple, ...]:
        """The standard cut family as records (``_standard_cuts``), built and
        checked on first use: each record's interval lies inside the host and
        its edges, each listed once, are the interval's edge boundary
        (``_crossing``).  The first record that fails raises
        ``ConsistencyError`` and nothing is cached, so every use raises."""
        cuts = tuple(_standard_cuts(self))
        count, links = self.vertex_count, self.links
        for _, _, _, lo, hi, _, indices in cuts:
            if not 1 <= lo <= hi <= count:
                raise ConsistencyError(f"cut component {lo}..{hi} is not inside 1..{count}")
            boundary = _crossing(links, lo, hi)
            if len(indices) != len(boundary) or boundary != set(indices):
                raise ConsistencyError(f"cut edges are not the edge boundary of labels {lo}..{hi}")
        return cuts


class HostLinks:
    """A host's parent, chain and sibling links, in label space.

    Dropping the sibling edges leaves a tree rooted at the first pendant,
    the top of the host: every tree vertex hangs from its parent, every tree
    root from its block's pendant, and every other pendant from the previous
    one on the chain.  Each sibling edge joins two children of one parent.
    So between any two labels there is exactly one shortest path, and the
    canonical route (the smallest-labeled neighbor one step closer to the
    goal, of which there is only one) is that path.  Per label ``t``:

    - ``up[t]`` is the label ``t`` hangs from (0 at the top) and
      ``up_edge[t]`` the index in ``edges`` of that link;
    - ``sib[t]`` is the sibling of ``t`` (0 when ``t`` has none) and
      ``sib_edge[t]`` the index of their edge.

    ``up_edge`` and ``sib_edge`` hold an index only where the link exists,
    and ``None`` elsewhere.  ``order`` lists every label but the top, each
    before the label it hangs from.  ``memo`` holds ``(guest, embedding,
    partite_at, load)`` for the most recent instance routed over these links
    (``embedding._tally``), so repeated queries on one instance share one
    pass and die with the host.

    ``spans`` holds, per gap ``g``, the place between labels ``g`` and
    ``g + 1`` (``0 <= g <= count``), the indices of the edges spanning it:
    edge ``(a, b)`` with ``a < b`` spans the gaps ``a..b-1``.  Its one
    reader is ``_crossing``.
    """

    __slots__ = ("edges", "up", "up_edge", "sib", "sib_edge", "order", "spans", "memo")

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
            if base:  # the first pendant, the top, hangs from nothing
                order.append(pendant)
        links = [(t, u) for t, u in enumerate(up) if u]
        pairs = [(a, b) for a, b in enumerate(sib) if a < b]
        edges = [(u, t) if u < t else (t, u) for t, u in links] + pairs
        self.edges = tuple(edges)
        self.up = up
        self.up_edge: list[int | None] = [None] * (count + 1)
        for idx, (t, _) in enumerate(links):
            self.up_edge[t] = idx
        self.sib = sib
        self.sib_edge: list[int | None] = [None] * (count + 1)
        for idx, (a, b) in enumerate(pairs, start=len(links)):
            self.sib_edge[a] = self.sib_edge[b] = idx
        self.order = order
        changes: list[list[int]] = [[] for _ in range(count + 1)]
        for x, (a, b) in enumerate(edges):
            changes[a].append(x)
            changes[b].append(x)
        span: set[int] = set()
        self.spans = spans = []
        for toggled in changes:
            span.symmetric_difference_update(toggled)
            spans.append(tuple(span))
        self.memo = None

    def distances(self, goal: int) -> list[int]:
        """Per label, the number of edges on its route to ``goal`` (index 0
        holds 0).

        Walking up from the goal, each ancestor is one step above the label
        below it, and the sibling of the goal or of an ancestor one step
        across from it.  Every other label steps up, so in the order from
        the top of the host down it is one step past the label it hangs
        from.
        """
        up, sib = self.up, self.sib
        dist = [0] * len(up)
        t = goal
        while up[t]:  # the top of the host, a pendant, has no sibling
            if sib[t]:
                dist[sib[t]] = dist[t] + 1
            dist[up[t]] = dist[t] + 1
            t = up[t]
        for t in reversed(self.order):
            if not dist[t] and t != goal:
                dist[t] = dist[up[t]] + 1
        return dist


class EdgeCut(NamedTuple):
    """One cut in a host's edge-cut family.

    Removing the cut's edges splits the host in two; the side designated
    as the component occupies exactly the labels
    ``component_lo..component_hi``.  So the interval fixes the cut: its
    edges are the host edges with exactly one end in it (``cut_edges``).
    ``multiplicity_share`` is how many times this cut counts in the
    family's coverage of its edges (the chain cuts of sibling hosts count
    double; everything else counts once).
    """

    family: str
    j: int | None
    i: int
    component_lo: int
    component_hi: int
    multiplicity_share: int = 1


def cut_edges(host: HostTree, cut: EdgeCut) -> tuple[tuple[int, int], ...]:
    """The edges of ``cut``: the host edges with exactly one end in its
    component interval (``_boundary``), as label pairs in
    ``host.links.edges`` order.

    Raises ``ValueError`` when the interval is not inside the host's labels.
    """
    edges = host.links.edges
    return tuple(edges[x] for x in _boundary(host, cut.component_lo, cut.component_hi))


def _boundary(host: HostTree, lo: int, hi: int) -> list[int]:
    """``_crossing`` in order; ``ValueError`` unless ``lo..hi`` lies inside the host."""
    count = host.vertex_count
    if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi <= count):
        raise ValueError(f"cut component {lo}..{hi} is not inside 1..{count}")
    return sorted(_crossing(host.links, lo, hi))


def _crossing(links: HostLinks, lo: int, hi: int) -> set[int]:
    """The indices into ``links.edges`` of the host edges with exactly one
    end in ``lo..hi``, an interval inside the host: those spanning one of
    the gaps ``lo - 1`` and ``hi`` but not both (``HostLinks.spans``).  The
    host's check of its own family and every caller's cut read their edges
    here alone."""
    spans = links.spans
    return set(spans[lo - 1]).symmetric_difference(spans[hi])


def check_host_shape(n1: int, k: int) -> None:
    """Raise ``ValueError`` unless ``n1`` and ``k`` are integers, ``n1 >= 1`` and ``k >= 1``."""
    if not (isinstance(n1, int) and isinstance(k, int)):
        raise ValueError(f"n1 and k must be integers, got n1={n1!r}, k={k!r}")
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


def build_host(n1: int, k: int, sibling: bool = False) -> HostTree:
    """``HostTree(n1, k, sibling)``, in variant 0.

    It stays only because ``perfbench/traced.py`` imports it, and goes with
    the ``Guest.graph`` alias (ROADMAP item 5, step 2).
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
    """``host``, which as a binary host is already labeled inorder.

    Refuses sibling hosts.  It stays only because ``perfbench/traced.py``
    imports it, and goes with the ``Guest.graph`` alias (ROADMAP item 5,
    step 2).
    """
    if host.sibling:
        raise ValueError("inorder labeling applies to plain binary hosts only")
    return host


def sibling_layout_labeling(host: HostTree, variant: int = 0) -> HostTree:
    """``HostTree(host.n1, host.k, True, variant)``.

    Refuses binary hosts.  It stays only because ``perfbench/traced.py``
    imports it, and goes with the ``Guest.graph`` alias (ROADMAP item 5,
    step 2).
    """
    if not host.sibling:
        raise ValueError("sibling layout applies to sibling hosts only")
    return HostTree(host.n1, host.k, True, variant)


def cut_family(host: HostTree) -> tuple[EdgeCut, ...]:
    """The host's standard edge-cut family, in deterministic order.

    Plain binary hosts get one single-edge cut per tree/pendant edge
    (family ``S``) and one per chain edge (family ``ROOT``); every host edge
    is covered exactly once.  Sibling hosts get two-edge ``S`` cuts (parent
    edge plus sibling edge), two-edge ``SS`` cuts around each sibling pair,
    a duplicate pendant cut (listed under ``SS`` at ``j = n1``), and chain
    cuts with ``multiplicity_share = 2``; every edge is covered exactly twice.

    Cuts are read off the host's links: each component is a union of
    subtrees whose label range is taken bottom-up.  They are ``host.cuts``,
    so a family that fails its check raises ``ConsistencyError``.
    """
    return tuple(EdgeCut(*cut[:6]) for cut in host.cuts)


def _standard_cuts(host: HostTree) -> list[tuple]:
    """``cut_family(host)`` as records: each cut's ``EdgeCut`` fields, then
    its edges as indices into ``host.links.edges``, each a label's parent
    or sibling link read in O(1).  One flat ``(family, j, i, lo, hi, share,
    indices)`` tuple per cut."""
    pos = host._positions()
    links = host.links
    up, up_edge, sib_edge = links.up, links.up_edge, links.sib_edge
    # The subtree of t (t and every label below it on the up links) fills
    # the labels lo[t]..hi[t] in every labeling.
    lo = list(range(host.vertex_count + 1))
    hi = lo[:]
    for t in links.order:
        u = up[t]
        if lo[t] < lo[u]:
            lo[u] = lo[t]
        if hi[t] > hi[u]:
            hi[u] = hi[t]
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
                cuts.append(("S", j, i, lo[t], hi[t], 1, indices))

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
                    cuts.append(("SS", j, i, low, high, 1, (up_edge[a], up_edge[b])))
        # Duplicate pendant cut, so pendant edges reach coverage 2 like the rest.
        for s in range(k):
            t = s * block + pos[1]
            cuts.append(("SS", n1, s + 1, lo[t], hi[t], 1, (up_edge[t],)))

    # Family ROOT: chain cuts; the component is the first i blocks, labels
    # 1..i * block, cut off by the chain link of the next pendant.
    share = 2 if sibling else 1
    for i in range(1, k):
        indices = (up_edge[(i + 1) * block],)
        cuts.append(("ROOT", None, i, 1, i * block, share, indices))

    return cuts
