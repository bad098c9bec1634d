from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import guest_edges, multipartite_edges
from treebed import Guest
from treebed.cli import main


def test_guest_shape_and_partites():
    guest = Guest(3, 2)
    assert guest.part_count == 4
    assert guest.part_size == 2
    assert guest.degree == 6
    assert guest.vertex_count == 8
    assert guest.edge_count == 24
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
    with pytest.raises(ValueError, match="^vertex 1.5 out of range 1..8$"):
        guest.partite_of(1.5)


def test_guest_validation():
    with pytest.raises(ValueError):
        Guest(3, 1)
    with pytest.raises(ValueError):
        Guest(3, 4)
    with pytest.raises(ValueError):
        Guest(21, 2)
    # a float shape is refused up front, not by a later shift
    for n, p in ((3.0, 2), (3, 2.0)):
        with pytest.raises(ValueError, match="n and p must be integers"):
            Guest(n, p)


def test_guest_matches_blocked_multipartite(capsys):
    # relabeling vertex m to its (partite, position) slot must turn the
    # edges the package draws into exactly the consecutive-blocks graph
    for n, p in [(3, 2), (4, 2), (4, 3), (4, 4)]:
        guest = Guest(n, p)
        assert main(["export-dot", "guest", "--n", str(n), "--p", str(p)]) == 0
        drawn = [
            tuple(map(int, line.strip().rstrip(";").split(" -- ")))
            for line in capsys.readouterr().out.splitlines()
            if " -- " in line
        ]
        part_count, part_size = guest.part_count, guest.part_size
        blocked = multipartite_edges([part_size] * part_count)

        def slot(m):
            block = (m - 1) % part_count
            position = (m - 1) // part_count
            return block * part_size + position + 1

        mapped = sorted(tuple(sorted((slot(a), slot(b)))) for a, b in drawn)
        assert mapped == blocked


def test_guest_degrees_are_uniform():
    for n in range(2, 9):
        for p in range(2, n + 1):
            guest = Guest(n, p)
            expected = 2 ** (n - p) * (2**p - 1)
            assert guest.degree == expected
            edges = guest_edges(guest)
            degrees = Counter(v for edge in edges for v in edge)
            assert all(
                degrees[v] == expected for v in range(1, guest.vertex_count + 1)
            )
            assert guest.vertex_count == 2**n
            assert guest.edge_count == len(edges)


def test_induced_edge_count_examples():
    guest = Guest(3, 2)

    def listed(subset):
        chosen = set(subset)
        return sum(1 for u, v in guest_edges(guest) if u in chosen and v in chosen)

    # the edge-list count and the guest's partite count
    for count in (listed, guest.induced_edge_count):
        assert count(set()) == 0
        assert count({1}) == 0
        assert count({1, 2, 3}) == 3
        assert count(range(1, 7)) == 13
        assert count(range(1, 9)) == 24
    with pytest.raises(ValueError):
        guest.induced_edge_count({0, 1})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_label_windows_stay_balanced(data):
    # any interval of consecutive labels hits every partite almost equally
    n = data.draw(st.integers(2, 6))
    p = data.draw(st.integers(2, n))
    guest = Guest(n, p)
    total = guest.vertex_count
    lo = data.draw(st.integers(1, total))
    hi = data.draw(st.integers(lo, total))
    counts = Counter(guest.partite_of(m) for m in range(lo, hi + 1))
    per_part = [counts.get(part, 0) for part in range(1, guest.part_count + 1)]
    assert max(per_part) - min(per_part) <= 1
