"""The host links and their per-goal in-trees, against the BFS oracles."""

import tracemalloc

import pytest

from oracles import (
    bfs_distances,
    canonical_next_hop,
    canonical_route,
    shortest_path_counts,
)
from treebed import (
    LAYOUT_VARIANTS,
    build_guest,
    build_host,
    inorder_labeling,
    route,
    sibling_layout_labeling,
)
from treebed.search import _instance_tables


def _standard_hosts(n_max):
    """Every standard labeled host with 2**n labels, 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        for n1 in range(1, n + 1):
            host = build_host(n1, 1 << (n - n1))
            yield n, inorder_labeling(host)
            sibling = build_host(n1, 1 << (n - n1), sibling=True)
            for variant in LAYOUT_VARIANTS:
                yield n, sibling_layout_labeling(sibling, variant)


def _oracle(host):
    count = host.vertex_count
    table = bfs_distances(count, host.label_edges)
    neighbors = {lab: [] for lab in range(1, count + 1)}
    for a, b in host.label_edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return count, table, neighbors


def test_in_tree_matches_bfs_next_hops():
    # every host with n <= 6: all n1, both kinds, all sibling variants
    seen = 0
    for _, host in _standard_hosts(6):
        count, table, neighbors = _oracle(host)
        links = host.links
        for goal in range(1, count + 1):
            hops, hop_edges, spine = links.in_tree(goal)
            assert spine[-1] == goal and [table[goal][t] for t in spine] == list(
                range(len(spine) - 1, -1, -1)
            )
            for t in range(1, count + 1):
                if t == goal:
                    continue
                hop = canonical_next_hop(table, neighbors, t, goal)
                assert hops[t] == hop, (host.n1, host.k, host.kind, goal, t)
                assert links.edges[hop_edges[t]] == (min(t, hop), max(t, hop))
        seen += 1
    assert seen == 105


def test_standard_hosts_have_unique_shortest_paths():
    # Why the spine rule is canonical: with one shortest path per pair, a
    # label has exactly one neighbor closer to any goal.
    for _, host in _standard_hosts(6):
        count = host.vertex_count
        counts = shortest_path_counts(count, host.label_edges)
        assert all(c == 1 for row in counts.values() for c in row.values())
    # the oracle itself sees a tie where there is one: a 4-cycle
    assert shortest_path_counts(4, [(1, 2), (2, 3), (3, 4), (1, 4)])[1][3] == 2


def test_route_matches_canonical_route():
    for _, host in _standard_hosts(4):
        count, table, neighbors = _oracle(host)
        for u in range(1, count + 1):
            for v in range(u + 1, count + 1):
                expected = canonical_route(table, neighbors, u, v)
                assert list(route(host, u, v)) == expected
                assert list(route(host, v, u)) == expected


def test_search_distance_rows_match_bfs():
    for n, host in _standard_hosts(6):
        if n < 2:
            continue  # no guest has two vertices
        count, rows = _instance_tables(build_guest(n, 2), host)
        table = bfs_distances(count, host.label_edges)
        assert rows == [
            [table[a][b] for b in range(1, count + 1)] for a in range(1, count + 1)
        ]


def test_build_host_bounds_n1_before_sizing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the supported 2\\*\\*20"):
            build_host(400_000_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
