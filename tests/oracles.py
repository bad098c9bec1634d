"""Small independent oracles the tests check the package against.

Deliberately separate implementations: plain BFS over edge lists, raw
itertools enumeration, and searches that ignore the guest's symmetry,
sharing no code with the package.  The host-side oracles take a package
host or its links as plain input and redo the work the slow way: the
per-goal tally sweeps one goal's in-tree at a time, and the host and its
cut family are built from vertex ids and heap indices.  A cut's report
is checked by scanning its edge boundary and its smaller side label by
label.
"""

from collections import Counter, deque
from itertools import combinations, permutations
from math import comb


def bfs_distances(count, edges):
    """All-pairs distances as a dict of dicts over vertices 1..count."""
    adjacency = {v: [] for v in range(1, count + 1)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    table = {}
    for source in range(1, count + 1):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        table[source] = dist
    return table


def pairwise_distance_sum(count, edges):
    table = bfs_distances(count, edges)
    return sum(
        table[u][v] for u in range(1, count + 1) for v in range(u + 1, count + 1)
    )


def brute_force_min_wirelength(guest_edges, host_count, host_edges):
    """Minimum total distance over all bijections, by raw enumeration."""
    table = bfs_distances(host_count, host_edges)
    best = None
    for perm in permutations(range(1, host_count + 1)):
        total = sum(table[perm[u - 1]][perm[v - 1]] for u, v in guest_edges)
        if best is None or total < best:
            best = total
    return best


def brute_force_max_induced(count, edges, k):
    """Maximum induced edge count over k-subsets, by raw enumeration."""
    edge_list = [tuple(sorted(e)) for e in edges]
    best = -1
    for combo in combinations(range(1, count + 1), k):
        chosen = set(combo)
        got = sum(1 for a, b in edge_list if a in chosen and b in chosen)
        if got > best:
            best = got
    return best


def multipartite_edges(sizes):
    """Edge list of the complete multipartite graph with partite sets of the
    given sizes, numbered block by block from vertex 1."""
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    count = len(block_of)
    return [
        (u, v)
        for u in range(1, count + 1)
        for v in range(u + 1, count + 1)
        if block_of[u - 1] != block_of[v - 1]
    ]


def guest_edges(guest):
    """Edge list of the package guest ``(n, p)``, in increasing order: vertex
    ``m`` of ``1..2**n`` lies in partite set ``(m - 1) mod 2**p``, and two
    vertices are adjacent exactly when those differ."""
    count, parts = 1 << guest.n, 1 << guest.p
    return [
        (u, v)
        for u, v in combinations(range(1, count + 1), 2)
        if (u - 1) % parts != (v - 1) % parts
    ]


def balanced_leaving(size, n, p):
    """Guest edges leaving ``size`` vertices of the guest with ``2**n``
    vertices in ``2**p`` partite sets, spread over the sets as evenly as
    they go: ``j`` sets hold ``q + 1`` of them and the rest ``q``, with
    ``size = q * 2**p + j``.  A vertex of a set holding ``c`` chosen ones
    is adjacent to every vertex outside its set, ``2**(n - p) - c`` of
    which are chosen ones' partite mates left out."""
    parts, r = 1 << p, 1 << (n - p)
    q, j = divmod(size, parts)
    outside = (1 << n) - size
    return (
        j * (q + 1) * (outside - (r - q - 1)) + (parts - j) * q * (outside - (r - q))
    )


def chain_cut_sum(n, n1, p):
    """Minimum congestions of the k - 1 chain cuts of the k-block host,
    cut by cut: the cut after block ``i`` isolates ``i * 2**n1`` labels."""
    return sum(balanced_leaving(i << n1, n, p) for i in range(1, 1 << (n - n1)))


# The paper's case-split expressions for the minimum congestion of a cut
# around one height-j subtree (2**j - 1 labels), and around a sibling pair
# of them (2**(j+1) - 2 labels): one while the labels fit in a single round
# of the 2**p partite sets, one past it.  Both apply at the boundary.


def branch_cut_within_round(j, n, p):
    """For ``1 <= j <= p``: every pair inside the subtree can be adjacent."""
    return ((1 << j) - 1) * ((1 << (n - p)) * ((1 << p) - 1) - ((1 << j) - 2))


def branch_cut_past_round(j, n, p):
    """For ``p <= j <= n``: the partite sets saturate, growing linearly."""
    return ((1 << p) - 1) * (
        (1 << (n - p)) * ((1 << j) - 1) - (1 << (j - p)) * ((1 << j) - 2)
    )


def pair_cut_within_round(j, n, p):
    """For ``1 <= j <= p - 1``."""
    return ((1 << (j + 1)) - 2) * (
        (1 << (n - p)) * ((1 << p) - 1) - ((1 << (j + 1)) - 3)
    )


def pair_cut_past_round(j, n, p):
    """For ``p - 1 <= j <= n - 1``."""
    return ((1 << p) - 1) * (
        (1 << (n - p)) * ((1 << (j + 1)) - 2) - (1 << (j - p + 2)) * ((1 << j) - 2)
    ) - 2


def shortest_path_counts(count, edges):
    """Number of shortest paths between every two vertices, as a dict of
    dicts over vertices 1..count (1 from a vertex to itself)."""
    table = bfs_distances(count, edges)
    neighbors = {v: [] for v in range(1, count + 1)}
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    counts = {}
    for source, dist in table.items():
        paths = {source: 1}
        for v in sorted(dist, key=dist.get)[1:]:
            paths[v] = sum(paths[w] for w in neighbors[v] if dist[w] == dist[v] - 1)
        counts[source] = paths
    return counts


def canonical_next_hop(table, neighbors, u, goal):
    """The smallest neighbor of ``u`` that is one step closer to ``goal``."""
    to_goal = table[goal]
    return min(w for w in neighbors[u] if to_goal[w] == to_goal[u] - 1)


def canonical_route(table, neighbors, u, v):
    """Edges of the canonical route between ``u`` and ``v``.

    Walks from the smaller endpoint to the larger, always stepping to the
    smallest neighbor that is one step closer to the goal.  ``table`` comes
    from ``bfs_distances``; ``neighbors`` maps each vertex to its neighbors.
    """
    cur, goal = min(u, v), max(u, v)
    path = []
    while cur != goal:
        nxt = canonical_next_hop(table, neighbors, cur, goal)
        path.append((min(cur, nxt), max(cur, nxt)))
        cur = nxt
    return path


def min_wirelength_bijections(nv, dist, edge_u, edge_v, first_choices=None):
    """Exhaustively minimize total edge length over all bijections.

    The symmetry-free oracle for the partition search.  ``dist`` is a flat
    row-major ``nv * nv`` table between labels ``0..nv-1``; ``edge_u`` and
    ``edge_v`` are parallel arrays of guest edge endpoints (0-based).
    ``first_choices`` optionally restricts the image of vertex 0 to the
    given sorted labels.

    Returns ``(best_total, best_assignment, explored)`` where
    ``best_assignment`` is the lexicographically smallest optimal tuple
    (within the restriction) and ``explored`` counts complete bijections
    evaluated.
    """
    labels = range(nv)
    if first_choices is None:
        first_choices = labels
    pairs = list(zip(edge_u, edge_v))
    best = None
    best_perm = None
    explored = 0
    for first in first_choices:
        rest = [lab for lab in labels if lab != first]
        for tail in permutations(rest):
            perm = (first,) + tail
            total = 0
            for u, v in pairs:
                total += dist[perm[u] * nv + perm[v]]
            explored += 1
            if best is None or total < best:
                best = total
                best_perm = perm
    return best, best_perm, explored


def local_search_by_neighbors(nv, dist, edge_u, edge_v, rng, iterations):
    """Best-improvement 2-swap descent that prices each swap edge by edge.

    The reference for the package's local search: the same scan order,
    restarts and strict first-best rule, but every swap delta is summed
    over the guest neighbours of both vertices.  ``rng`` supplies
    ``shuffle``; ``dist``, ``edge_u`` and ``edge_v`` are as in
    ``min_wirelength_bijections``.

    Returns one ``(best_total, best_assignment, explored)`` per ``i`` in
    ``0..iterations``, 0-based labels: the result a run of ``i``
    iterations gives, since a shorter run is a prefix of a longer one.
    """
    pairs = list(zip(edge_u, edge_v))
    neighbors = [[] for _ in range(nv)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)

    def evaluate(perm):
        return sum(dist[perm[u] * nv + perm[v]] for u, v in pairs)

    def fresh():
        perm = list(range(nv))
        rng.shuffle(perm)
        return perm

    explored = 0

    def descend(perm, value):
        nonlocal explored
        while True:
            best_delta = 0
            swap = None
            for a in range(nv - 1):
                la = perm[a]
                for b in range(a + 1, nv):
                    lb = perm[b]
                    delta = 0
                    for w in neighbors[a]:
                        if w != b:
                            pw = perm[w]
                            delta += dist[lb * nv + pw] - dist[la * nv + pw]
                    for w in neighbors[b]:
                        if w != a:
                            pw = perm[w]
                            delta += dist[la * nv + pw] - dist[lb * nv + pw]
                    explored += 1
                    if delta < best_delta:
                        best_delta = delta
                        swap = (a, b)
            if swap is None:
                return value
            a, b = swap
            perm[a], perm[b] = perm[b], perm[a]
            value += best_delta

    current = fresh()
    value = evaluate(current)
    explored += 1
    best_value, best_perm = value, tuple(current)
    history = [(best_value, best_perm, explored)]
    for it in range(iterations):
        if it > 0:
            current = fresh()
            value = evaluate(current)
            explored += 1
            if value < best_value:
                best_value, best_perm = value, tuple(current)
        value = descend(current, value)
        if value < best_value:
            best_value, best_perm = value, tuple(current)
        history.append((best_value, best_perm, explored))
    return history


def per_goal_tally(links, assignment, part_count, side=None):
    """Routed load per host edge, one in-tree sweep per goal label.

    ``links`` is a host's ``HostLinks``; ``assignment[m]`` is the label of
    guest vertex ``m + 1``, whose partite set is ``m % part_count``.  Every
    guest edge is routed toward its larger label, so goal ``g`` collects one
    route from each label ``s < g`` in another partite set.  With ``side =
    (lo, hi)`` it keeps only the sources on ``g``'s side of ``lo..hi``:
    both inside or both outside.  In ``g``'s
    in-tree a host edge carries one route per source below it, so sweeping
    away from the leaves adds each subtree's count once; the spine steps
    down, against the deepest-first order, so its labels hold their counts
    during the sweep and pass them down after it.
    """
    count = len(assignment)
    part_at = [None] * (count + 1)
    for m, lab in enumerate(assignment):
        part_at[lab] = m % part_count
    spill, up_edge = links.spill, links.up_edge
    load = [0] * (spill + 1)
    lo, hi = side or (1, count)
    for goal in range(2, count + 1):
        below = [0] * (count + 1)
        goal_inside = lo <= goal <= hi
        for s in range(1, goal):
            if part_at[s] != part_at[goal] and (lo <= s <= hi) == goal_inside:
                below[s] = 1
        hops, hop_edges, spine = links.in_tree(goal)
        for t in spine:
            hops[t], hop_edges[t] = 0, spill
        for t in links.order:
            c = below[t]
            if c:
                load[hop_edges[t]] += c
                below[hops[t]] += c
        carried = 0
        for t, down in zip(spine, spine[1:]):
            carried += below[t]
            load[up_edge[down]] += carried
    load.pop()
    return load


def heap_host(n1, k, sibling, layout):
    """A host built from vertex ids, then relabeled by ``layout``.

    Inside block ``s`` the tree vertex with heap index ``h`` is vertex
    ``s * 2**n1 + h`` and hangs from vertex ``s * 2**n1 + h // 2``; the tree
    root hangs from the pendant ``(s + 1) * 2**n1``, and each pendant from
    the previous one.  Sibling hosts also join heap indices ``2h`` and
    ``2h + 1``.  ``layout`` lists a block's heap indices in label order and
    every pendant keeps its block-last label.  Returns ``(edges, label_of,
    up, sib)``: the edges as sorted label pairs, the label of every vertex
    id, and per label the label it hangs from and its sibling (0 for none).
    """
    block = 1 << n1
    label_of, parent_of, pairs = {}, {}, []
    for s in range(k):
        base = s * block
        pendant = base + block
        for idx, h in enumerate(layout, start=1):
            label_of[base + h] = base + idx
        label_of[pendant] = pendant
        for h in range(1, block):
            parent_of[base + h] = base + h // 2 if h > 1 else pendant
        if s:
            parent_of[pendant] = base
        if sibling:
            pairs += [(base + 2 * h, base + 2 * h + 1) for h in range(1, block // 2)]
    up = [0] * (k * block + 1)
    sib = up[:]
    edges = set()
    for v, u in parent_of.items():
        up[label_of[v]] = label_of[u]
        edges.add(tuple(sorted((label_of[v], label_of[u]))))
    for a, b in pairs:
        sib[label_of[a]], sib[label_of[b]] = label_of[b], label_of[a]
        edges.add(tuple(sorted((label_of[a], label_of[b]))))
    return edges, label_of, up, sib


def heap_cut_family(host):
    """A labeled host's cut family built from vertex ids and heap indices.

    Returns ``(family, j, i, cut_edges, lo, hi, share)`` tuples in the
    package's order, or ``None`` when some cut component's labels are not
    an interval.  Vertex ids, parents and labels are those of ``heap_host``.
    """
    n1, k = host.n1, host.k
    labels = heap_host(n1, k, host.sibling, host.layout)[1]
    block = 1 << n1
    top = block - 1
    cuts = []

    def subtree(h):
        out, frontier = [], [h]
        while frontier:
            out.extend(frontier)
            frontier = [c for x in frontier for c in (2 * x, 2 * x + 1) if c <= top]
        return out

    def edge(u, v):
        return tuple(sorted((labels[u], labels[v])))

    def interval(ids):
        got = sorted(labels[v] for v in ids)
        if got[-1] - got[0] + 1 != len(got):
            raise LookupError
        return got[0], got[-1]

    try:
        for j in range(1, n1 + 1):
            per_block = 1 << (n1 - j)
            for i in range(1, k * per_block + 1):
                s, rem = divmod(i - 1, per_block)
                base, h = s * block, per_block + rem
                cut = {edge(base + h, base + h // 2 if h > 1 else base + block)}
                if host.sibling and h >= 2:
                    cut.add(edge(base + h, base + (h ^ 1)))
                lo, hi = interval([base + x for x in subtree(h)])
                cuts.append(("S", j, i, frozenset(cut), lo, hi, 1))
        if host.sibling:
            for j in range(1, n1):
                per_block = 1 << (n1 - j - 1)
                for i in range(1, k * per_block + 1):
                    s, rem = divmod(i - 1, per_block)
                    base, q = s * block, per_block + rem
                    cut = {edge(base + q, base + 2 * q), edge(base + q, base + 2 * q + 1)}
                    ids = [base + x for c in (2 * q, 2 * q + 1) for x in subtree(c)]
                    lo, hi = interval(ids)
                    cuts.append(("SS", j, i, frozenset(cut), lo, hi, 1))
            for s in range(k):
                base = s * block
                lo, hi = interval([base + x for x in subtree(1)])
                cut = frozenset({edge(base + 1, base + block)})
                cuts.append(("SS", n1, s + 1, cut, lo, hi, 1))
        share = 2 if host.sibling else 1
        for i in range(1, k):
            cut = frozenset({edge(i * block, (i + 1) * block)})
            lo, hi = interval(range(1, i * block + 1))
            cuts.append(("ROOT", None, i, cut, lo, hi, share))
    except LookupError:
        return None
    return cuts


def check_boundary(label_edges, count, cut):
    """Raise ``ValueError`` unless the cut edges are exactly the host edges
    ``label_edges`` with one end in ``component_lo..component_hi``.

    Builds the edge boundary as a set from the neighbours of the cut's
    smaller side; the messages are the package's.
    """
    lo, hi = cut.component_lo, cut.component_hi
    if not 1 <= lo <= hi <= count:
        raise ValueError(f"cut component {lo}..{hi} is not inside 1..{count}")
    adjacency = {lab: [] for lab in range(1, count + 1)}
    for a, b in label_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    boundary = {
        (a, b) if a < b else (b, a)
        for a in smaller_side(count, lo, hi)
        for b in adjacency[a]
        if (lo <= a <= hi) != (lo <= b <= hi)
    }
    if boundary != cut.cut_edges:
        raise ValueError(f"cut edges are not the edge boundary of labels {lo}..{hi}")


def smaller_side(count, lo, hi):
    """The labels of the smaller side of the split of ``1..count`` into
    ``lo..hi`` and the rest (the interval on a tie)."""
    if 2 * (hi - lo + 1) <= count:
        return list(range(lo, hi + 1))
    return list(range(1, lo)) + list(range(hi + 1, count + 1))


def cut_report(links, label_edges, assignment, part_count, cut, max_induced, load):
    """A cut's ``(inside_avoids_cut, crossings_cross_once,
    preimages_optimal, lemma_value)``, label by label.

    ``links``, ``assignment`` and ``part_count`` are as in
    ``per_goal_tally``, and ``load`` is that tally over every label.
    ``max_induced(s)`` is the largest edge count a set of ``s`` guest
    vertices induces.  Checks the boundary with ``check_boundary``, counts
    the partite sets on the smaller side with a ``Counter``, and runs the
    sided ``per_goal_tally`` when the congestion exceeds the crossing guest
    edges.
    """
    count = len(assignment)
    check_boundary(label_edges, count, cut)
    lo, hi = cut.component_lo, cut.component_hi
    part_at = [None] * (count + 1)
    for m, lab in enumerate(assignment):
        part_at[lab] = m % part_count
    side = smaller_side(count, lo, hi)
    counts = Counter(part_at[lab] for lab in side)
    induced = comb(len(side), 2) - sum(comb(c, 2) for c in counts.values())
    degree = count - count // part_count
    leaving = len(side) * degree - 2 * induced
    other = count * degree // 2 - induced - leaving
    optimal = induced == max_induced(len(side)) and other == max_induced(count - len(side))
    index = {edge: idx for idx, edge in enumerate(links.edges)}
    congestion = sum(load[index[e]] for e in cut.cut_edges)
    same = 0
    if congestion != leaving:
        sided = per_goal_tally(links, assignment, part_count, (lo, hi))
        same = sum(sided[index[e]] for e in cut.cut_edges)
    return same == 0, congestion - same == leaving, optimal, leaving
