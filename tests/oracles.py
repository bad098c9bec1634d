"""Small independent oracles the tests check the package against.

Deliberately separate implementations: plain BFS over edge lists, raw
itertools enumeration, and searches that ignore the guest's symmetry,
sharing no code with the package.
"""

from collections import deque
from itertools import combinations, permutations


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
