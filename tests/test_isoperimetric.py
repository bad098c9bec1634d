import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_max_induced, multipartite_edges
from treebed import Guest, max_subgraph_edges_closed_form


def test_closed_form_spot_values():
    assert max_subgraph_edges_closed_form(4, 2, 0) == 0
    assert max_subgraph_edges_closed_form(4, 2, 1) == 0
    assert max_subgraph_edges_closed_form(4, 2, 3) == 3
    assert max_subgraph_edges_closed_form(4, 2, 5) == 9
    assert max_subgraph_edges_closed_form(4, 2, 6) == 13
    assert max_subgraph_edges_closed_form(4, 2, 8) == 24
    assert max_subgraph_edges_closed_form(2, 3, 4) == 4


def test_closed_form_case_structure():
    # below one vertex per part the densest choice is a clique
    for p_parts in range(2, 7):
        for k in range(p_parts):
            assert max_subgraph_edges_closed_form(p_parts, 4, k) == k * (k - 1) // 2
    # exact multiples give a smaller complete multipartite graph
    for p_parts in range(2, 6):
        for q in range(1, 4):
            expected = q * q * p_parts * (p_parts - 1) // 2
            assert max_subgraph_edges_closed_form(p_parts, 4, q * p_parts) == expected


def test_closed_form_validation():
    with pytest.raises(ValueError):
        max_subgraph_edges_closed_form(1, 2, 0)
    with pytest.raises(ValueError):
        max_subgraph_edges_closed_form(3, 0, 0)
    with pytest.raises(ValueError):
        max_subgraph_edges_closed_form(3, 2, -1)
    with pytest.raises(ValueError):
        max_subgraph_edges_closed_form(3, 2, 7)


def test_bruteforce_matches_closed_form():
    for p_parts in range(2, 5):
        for r in range(1, 4):
            if p_parts * r > 9:
                continue
            count, edges = p_parts * r, multipartite_edges([r] * p_parts)
            for k in range(count + 1):
                closed = max_subgraph_edges_closed_form(p_parts, r, k)
                assert brute_force_max_induced(count, edges, k) == closed


def _is_optimal(guest, subset):
    chosen = set(subset)
    return guest.induced_edge_count(chosen) == max_subgraph_edges_closed_form(
        guest.part_count, guest.part_size, len(chosen)
    )


def test_is_optimal_set():
    guest = Guest(3, 2)
    assert _is_optimal(guest, {1, 2, 3})
    assert _is_optimal(guest, {2, 3, 5})
    assert not _is_optimal(guest, {1, 5})
    # every label interval is balanced across partites, hence optimal
    total = guest.vertex_count
    for lo in range(1, total + 1):
        for hi in range(lo, total + 1):
            assert _is_optimal(guest, range(lo, hi + 1))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    p_parts=st.integers(2, 8),
    r=st.integers(1, 16),
    k=st.integers(0, 127),
)
def test_closed_form_is_monotone(p_parts, r, k):
    if k + 1 > p_parts * r:
        return
    here = max_subgraph_edges_closed_form(p_parts, r, k)
    above = max_subgraph_edges_closed_form(p_parts, r, k + 1)
    assert above >= here


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    p_parts=st.integers(2, 8),
    r=st.integers(1, 16),
    k=st.integers(0, 128),
)
def test_closed_form_complement_symmetry(p_parts, r, k):
    total = p_parts * r
    if k > total:
        return
    degree = (p_parts - 1) * r
    edges = total * degree // 2
    low = max_subgraph_edges_closed_form(p_parts, r, k)
    high = max_subgraph_edges_closed_form(p_parts, r, total - k)
    # deleting k vertices from the full graph removes at least the boundary
    assert high == edges - k * degree + low
