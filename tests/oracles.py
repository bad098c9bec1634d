"""Small independent oracles the tests check the package against.

Deliberately separate implementations: plain BFS over edge lists and raw
itertools enumeration, sharing no code with the package.
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


def canonical_route(table, neighbors, u, v):
    """Edges of the canonical route between ``u`` and ``v``.

    Walks from the smaller endpoint to the larger, always stepping to the
    smallest neighbor that is one step closer to the goal.  ``table`` comes
    from ``bfs_distances``; ``neighbors`` maps each vertex to its neighbors.
    """
    cur, goal = min(u, v), max(u, v)
    to_goal = table[goal]
    path = []
    while cur != goal:
        nxt = min(w for w in neighbors[cur] if to_goal[w] == to_goal[cur] - 1)
        path.append((min(cur, nxt), max(cur, nxt)))
        cur = nxt
    return path
