import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    balanced_leaving,
    branch_cut_past_round,
    branch_cut_within_round,
    chain_cut_sum,
    pair_cut_past_round,
    pair_cut_within_round,
    pairwise_distance_sum,
)
import treebed
from treebed import (
    build_host,
    closed_form_wirelength,
    cut_family,
    formulas,
    inorder_labeling,
    interval_boundary_congestion,
    max_subgraph_edges_closed_form,
    sibling_layout_labeling,
)


def test_single_block_values():
    assert closed_form_wirelength(2, 2) == 9
    assert closed_form_wirelength(3, 2) == 54
    assert closed_form_wirelength(3, 3) == 65
    assert closed_form_wirelength(4, 2) == 324
    assert closed_form_wirelength(2, 2, sibling=True) == 8
    assert closed_form_wirelength(3, 2, sibling=True) == 45
    assert closed_form_wirelength(3, 3, sibling=True) == 54


def test_chain_values():
    assert closed_form_wirelength(2, 2, n1=1) == 10
    assert closed_form_wirelength(3, 2, n1=2) == 60
    assert closed_form_wirelength(3, 3, n1=2) == 74
    assert closed_form_wirelength(3, 2, n1=2, sibling=True) == 58
    assert closed_form_wirelength(3, 3, n1=2, sibling=True) == 72
    # height-1 blocks have no sibling pairs, so both hosts coincide
    assert closed_form_wirelength(3, 2, n1=1) == 56
    assert closed_form_wirelength(3, 2, n1=1, sibling=True) == 56
    assert closed_form_wirelength(3, 3, n1=1) == 68
    assert closed_form_wirelength(3, 3, n1=1, sibling=True) == 68


def test_chain_forms_degenerate_to_single_block():
    for n in range(2, 9):
        for p in range(2, n + 1):
            for sibling in (False, True):
                assert closed_form_wirelength(
                    n, p, n1=n, sibling=sibling
                ) == closed_form_wirelength(n, p, sibling=sibling)
            assert closed_form_wirelength(n, p, n1=1) == closed_form_wirelength(
                n, p, n1=1, sibling=True
            )


def test_closed_form_dispatch():
    assert closed_form_wirelength(3, 2) == 54
    assert closed_form_wirelength(3, 2, sibling=True) == 45
    assert closed_form_wirelength(3, 2, n1=2) == 60
    assert closed_form_wirelength(3, 2, n1=2, sibling=True) == 58


def test_branch_cut_values():
    # height-j subtree cuts isolate 2**j - 1 labels
    assert interval_boundary_congestion(1, 3, 2) == branch_cut_within_round(1, 3, 2) == 6
    assert interval_boundary_congestion(3, 3, 2) == branch_cut_within_round(2, 3, 2) == 12
    assert interval_boundary_congestion(7, 3, 2) == branch_cut_past_round(3, 3, 2) == 6
    # sibling pair cuts isolate 2**(j+1) - 2 labels
    assert interval_boundary_congestion(2, 3, 2) == pair_cut_within_round(1, 3, 2) == 10
    assert interval_boundary_congestion(6, 3, 2) == pair_cut_past_round(2, 3, 2) == 10
    # the chain cut after block i isolates i * 2**n1 labels
    assert interval_boundary_congestion(4, 3, 2) == 12  # i = 1, n1 = 2
    assert [interval_boundary_congestion(i << 1, 3, 2) for i in (1, 2, 3)] == [
        10, 12, 10
    ]
    assert formulas._chain_sum(3, 2, 2) == 12
    assert formulas._chain_sum(3, 1, 2) == 32


def test_cut_congestions_reduce_to_interval_boundaries():
    # each of the paper's case-split expressions on its whole range, and
    # every chain cut's minimum (i * 2**n1 labels) cut by cut
    for n in range(2, 11):
        for p in range(2, n + 1):
            for j in range(1, n + 1):
                expected = interval_boundary_congestion((1 << j) - 1, n, p)
                if j <= p:
                    assert branch_cut_within_round(j, n, p) == expected
                if j >= p:
                    assert branch_cut_past_round(j, n, p) == expected
            for j in range(1, n):
                expected = interval_boundary_congestion((1 << (j + 1)) - 2, n, p)
                if j + 1 <= p:
                    assert pair_cut_within_round(j, n, p) == expected
                if j + 1 >= p:
                    assert pair_cut_past_round(j, n, p) == expected
            for n1 in range(1, n + 1):
                for i in range(1, (1 << (n - n1))):
                    expected = interval_boundary_congestion(i << n1, n, p)
                    assert balanced_leaving(i << n1, n, p) == expected
            for size in range((1 << n) + 1):
                expected = interval_boundary_congestion(size, n, p)
                assert balanced_leaving(size, n, p) == expected


def test_branch_case_split_is_continuous():
    # at j == p both branch expressions must agree, and at j + 1 == p both
    # pair expressions
    for n in range(2, 13):
        for p in range(2, n + 1):
            j = p
            expected = interval_boundary_congestion((1 << j) - 1, n, p)
            assert branch_cut_within_round(j, n, p) == expected
            assert branch_cut_past_round(j, n, p) == expected
            j = p - 1
            expected = interval_boundary_congestion((1 << (j + 1)) - 2, n, p)
            assert pair_cut_within_round(j, n, p) == expected
            assert pair_cut_past_round(j, n, p) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chain_sum_matches_the_per_cut_loop(data):
    n = data.draw(st.integers(2, 16), label="n")
    p = data.draw(st.integers(2, n), label="p")
    n1 = data.draw(st.integers(1, n), label="n1")
    assert formulas._chain_sum(n, n1, p) == chain_cut_sum(n, n1, p)


def test_closed_form_sums_the_host_cut_family():
    # the closed form's per-size cut counts are the host's own cuts
    shapes = 0
    for n in range(2, 11):
        for n1 in range(1, n + 1):
            for sibling in (False, True):
                host = build_host(n1, 1 << (n - n1), sibling=sibling)
                host = sibling_layout_labeling(host) if sibling else inorder_labeling(host)
                sizes = [
                    (c.multiplicity_share, c.component_hi - c.component_lo + 1)
                    for c in cut_family(host)
                ]
                coverage = 2 if sibling else 1
                for p in range(2, n + 1):
                    total = sum(
                        share * interval_boundary_congestion(size, n, p)
                        for share, size in sizes
                    )
                    assert total % coverage == 0
                    assert closed_form_wirelength(
                        n, p, n1=n1, sibling=sibling
                    ) == total // coverage, (n, p, n1, sibling)
                    shapes += 1
    assert shapes == 660


def test_interval_boundary_edges():
    assert interval_boundary_congestion(0, 3, 2) == 0
    assert interval_boundary_congestion(8, 3, 2) == 0
    assert interval_boundary_congestion(1, 3, 2) == 6
    assert interval_boundary_congestion(7, 3, 2) == 6
    # symmetric in size <-> complement
    for n, p in [(4, 2), (5, 3), (6, 4)]:
        total = 1 << n
        for size in range(total + 1):
            assert interval_boundary_congestion(
                size, n, p
            ) == interval_boundary_congestion(total - size, n, p)


def test_complete_guest_gives_total_host_distance():
    # at p == n the guest is a complete graph, so every bijection costs the
    # sum of all pairwise host distances
    cases = [
        (2, 2, False),
        (3, 3, False),
        (3, 2, False),
        (3, 3, True),
        (3, 2, True),
        (3, 1, True),
    ]
    for n, n1, sibling in cases:
        host = build_host(n1, 1 << (n - n1), sibling=sibling)
        host = sibling_layout_labeling(host) if sibling else inorder_labeling(host)
        expected = pairwise_distance_sum(host.vertex_count, host.links.edges)
        assert closed_form_wirelength(n, n, n1=n1, sibling=sibling) == expected


def test_sibling_never_costs_more():
    for n in range(2, 11):
        for p in range(2, n + 1):
            for n1 in range(1, n + 1):
                binary = closed_form_wirelength(n, p, n1=n1)
                sib = closed_form_wirelength(n, p, n1=n1, sibling=True)
                assert sib <= binary


def test_validation():
    with pytest.raises(ValueError):
        closed_form_wirelength(3, 1)
    with pytest.raises(ValueError):
        closed_form_wirelength(3, 4)
    with pytest.raises(ValueError):
        closed_form_wirelength(21, 2)
    with pytest.raises(ValueError):
        closed_form_wirelength(3, 2, n1=0)
    with pytest.raises(ValueError, match="need 1 <= n1 <= n, got n1=4, n=3"):
        closed_form_wirelength(3, 2, n1=4, sibling=True)
    with pytest.raises(ValueError):
        interval_boundary_congestion(9, 3, 2)
    with pytest.raises(ValueError):
        interval_boundary_congestion(-1, 3, 2)
    # numbers of another type, even equal to an integer in range, are refused
    with pytest.raises(ValueError, match="^need 1 <= n1 <= n, got n1=2.0, n=3$"):
        closed_form_wirelength(3, 2, n1=2.0)
    with pytest.raises(ValueError, match="^size=2.0 out of range 0..8$"):
        interval_boundary_congestion(2.0, 3, 2)
    for args in ((4, 2, 2.0), (4.0, 2, 2), (4, 2.0, 2)):
        with pytest.raises(ValueError):
            max_subgraph_edges_closed_form(*args)


def test_public_names():
    assert formulas.__all__ == [
        "max_subgraph_edges_closed_form",
        "interval_boundary_congestion",
        "closed_form_wirelength",
    ]
    assert set(formulas.__all__) <= set(treebed.__all__)
