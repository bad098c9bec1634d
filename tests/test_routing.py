"""Routes and distance rows read off the host links, against the BFS oracles."""

import tracemalloc

import pytest

from oracles import bfs_distances, canonical_route, shortest_path_counts
from treebed import (
    LAYOUT_VARIANTS,
    build_host,
    inorder_labeling,
    route,
    sibling_layout_labeling,
)
from treebed.search import _distance_rows


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
    table = bfs_distances(count, host.links.edges)
    neighbors = {lab: [] for lab in range(1, count + 1)}
    for a, b in host.links.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return count, table, neighbors


def test_standard_hosts_have_unique_shortest_paths():
    # Why the spine rule is canonical: with one shortest path per pair, a
    # label has exactly one neighbor closer to any goal.
    for _, host in _standard_hosts(6):
        count = host.vertex_count
        counts = shortest_path_counts(count, host.links.edges)
        assert all(c == 1 for row in counts.values() for c in row.values())
    # the oracle itself sees a tie where there is one: a 4-cycle
    assert shortest_path_counts(4, [(1, 2), (2, 3), (3, 4), (1, 4)])[1][3] == 2


def test_route_matches_canonical_route():
    # every pair of every host with n <= 6: all n1, both kinds, all variants
    seen = 0
    for _, host in _standard_hosts(6):
        count, table, neighbors = _oracle(host)
        for u in range(1, count + 1):
            for v in range(u + 1, count + 1):
                expected = canonical_route(table, neighbors, u, v)
                assert list(route(host, u, v)) == expected
                assert list(route(host, v, u)) == expected
                seen += 1
    assert seen == 75_765


def test_search_distance_rows_match_bfs():
    for _, host in _standard_hosts(6):
        count = host.vertex_count
        rows = list(_distance_rows(host, count))
        table = bfs_distances(count, host.links.edges)
        assert all(host.links.distances(g)[0] == 0 for g in range(1, count + 1))
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
