from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed import Graph, build_complete_multipartite, build_guest, induced_edge_count


def test_graph_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 1), (3, 1)])
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(2, 3)
    assert g.degree(1) == 2
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(vertex_count=0, edges=frozenset())


def test_complete_multipartite_blocks():
    g = build_complete_multipartite([2, 2, 2, 2])
    assert g.vertex_count == 8
    assert g.edge_count == 24
    # consecutive blocks: {1,2}, {3,4}, ... stay independent
    for lo in (1, 3, 5, 7):
        assert not g.has_edge(lo, lo + 1)
    assert g.has_edge(1, 3) and g.has_edge(2, 8)

    uneven = build_complete_multipartite([1, 2, 3])
    assert uneven.vertex_count == 6
    assert uneven.edge_count == 1 * 2 + 1 * 3 + 2 * 3


def test_complete_multipartite_validation():
    with pytest.raises(ValueError):
        build_complete_multipartite([3])
    with pytest.raises(ValueError):
        build_complete_multipartite([2, 0])


def test_guest_shape_and_partites():
    guest = build_guest(3, 2)
    assert guest.part_count == 4
    assert guest.part_size == 2
    assert guest.degree == 6
    assert guest.graph.vertex_count == 8
    assert guest.graph.edge_count == 24
    assert guest.partites == (
        frozenset({1, 5}),
        frozenset({2, 6}),
        frozenset({3, 7}),
        frozenset({4, 8}),
    )
    assert guest.partite_of(1) == 1
    assert guest.partite_of(4) == 4
    assert guest.partite_of(5) == 1
    assert guest.partite_of(8) == 4
    with pytest.raises(ValueError):
        guest.partite_of(0)
    with pytest.raises(ValueError):
        guest.partite_of(9)


def test_guest_validation():
    with pytest.raises(ValueError):
        build_guest(3, 1)
    with pytest.raises(ValueError):
        build_guest(3, 4)
    with pytest.raises(ValueError):
        build_guest(21, 2)


def test_guest_matches_blocked_multipartite():
    # relabeling vertex m to its (partite, position) slot must give exactly
    # the consecutive-blocks graph
    for n, p in [(3, 2), (4, 2), (4, 3), (4, 4)]:
        guest = build_guest(n, p)
        part_count, part_size = guest.part_count, guest.part_size
        blocked = build_complete_multipartite([part_size] * part_count)

        def slot(m):
            block = (m - 1) % part_count
            position = (m - 1) // part_count
            return block * part_size + position + 1

        mapped = {
            tuple(sorted((slot(a), slot(b)))) for a, b in guest.graph.edges
        }
        assert mapped == set(blocked.edges)


def test_guest_degrees_are_uniform():
    for n in range(2, 9):
        for p in range(2, n + 1):
            guest = build_guest(n, p)
            expected = 2 ** (n - p) * (2**p - 1)
            assert guest.degree == expected
            assert all(
                guest.graph.degree(v) == expected
                for v in range(1, guest.graph.vertex_count + 1)
            )
            assert guest.vertex_count == guest.graph.vertex_count
            assert guest.edge_count == guest.graph.edge_count


def test_induced_edge_count_examples():
    guest = build_guest(3, 2)
    # the edge-list count and the guest's partite count
    for count in (partial(induced_edge_count, guest.graph), guest.induced_edge_count):
        assert count(set()) == 0
        assert count({1}) == 0
        assert count({1, 2, 3}) == 3
        assert count(range(1, 7)) == 13
        assert count(range(1, 9)) == 24
        with pytest.raises(ValueError):
            count({0, 1})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_label_windows_stay_balanced(data):
    # any interval of consecutive labels hits every partite almost equally
    n = data.draw(st.integers(2, 6))
    p = data.draw(st.integers(2, n))
    guest = build_guest(n, p)
    total = guest.graph.vertex_count
    lo = data.draw(st.integers(1, total))
    hi = data.draw(st.integers(lo, total))
    counts = Counter(guest.partite_of(m) for m in range(lo, hi + 1))
    per_part = [counts.get(part, 0) for part in range(1, guest.part_count + 1)]
    assert max(per_part) - min(per_part) <= 1
