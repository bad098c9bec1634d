from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_max_induced
from treebed import (
    BudgetExceededError,
    build_complete_multipartite,
    build_guest,
    induced_edge_count,
    is_optimal_set,
    max_subgraph_edges_bruteforce,
    max_subgraph_edges_closed_form,
)
from treebed.isoperimetric import _max_induced_edges


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
            graph = build_complete_multipartite([r] * p_parts)
            for k in range(p_parts * r + 1):
                result = max_subgraph_edges_bruteforce(graph, k)
                assert result.k == k
                assert result.max_edges == max_subgraph_edges_closed_form(
                    p_parts, r, k
                )
                assert induced_edge_count(graph, result.witness) == result.max_edges


def test_bruteforce_matches_independent_enumeration():
    graph = build_complete_multipartite([1, 2, 3])
    for k in range(graph.vertex_count + 1):
        result = max_subgraph_edges_bruteforce(graph, k)
        assert result.max_edges == brute_force_max_induced(
            graph.vertex_count, graph.edges, k
        )


def test_bruteforce_witness_is_lexicographic():
    graph = build_complete_multipartite([2, 2])
    result = max_subgraph_edges_bruteforce(graph, 2)
    assert result.max_edges == 1
    # {1,2} induces nothing, so the first subset reaching 1 edge is {1,3}
    assert result.witness == frozenset({1, 3})


def test_bruteforce_budget():
    graph = build_guest(3, 2).graph
    with pytest.raises(BudgetExceededError, match="budget"):
        max_subgraph_edges_bruteforce(graph, 4, budget=10)


def test_max_induced_kernel():
    # square 0-1-3-2-0 as bitmasks
    masks = [0b0110, 0b1001, 0b1001, 0b0110]
    best, witness, explored = _max_induced_edges(4, masks, 2)
    assert best == 1
    assert witness == (0, 1)
    assert explored == comb(4, 2)
    best, witness, explored = _max_induced_edges(4, masks, 3)
    assert best == 2
    assert witness == (0, 1, 2)
    best, witness, explored = _max_induced_edges(4, masks, 0)
    assert best == 0 and witness == () and explored == 1


def test_max_induced_kernel_wide_masks():
    # 70-vertex path; subsets wider than one machine word must still work
    nv = 70
    masks = [0] * nv
    for v in range(nv - 1):
        masks[v] |= 1 << (v + 1)
        masks[v + 1] |= 1 << v
    best, witness, explored = _max_induced_edges(nv, masks, 2)
    assert best == 1
    assert witness == (0, 1)
    assert explored == comb(nv, 2)


def test_is_optimal_set():
    guest = build_guest(3, 2)
    assert is_optimal_set(guest, {1, 2, 3})
    assert is_optimal_set(guest, {2, 3, 5})
    assert not is_optimal_set(guest, {1, 5})
    # every label interval is balanced across partites, hence optimal
    total = guest.graph.vertex_count
    for lo in range(1, total + 1):
        for hi in range(lo, total + 1):
            assert is_optimal_set(guest, range(lo, hi + 1))


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
