import pytest

from oracles import pairwise_distance_sum
from treebed import (
    branch_cut_congestion,
    build_host,
    chain_cut_congestion,
    closed_form_wirelength,
    inorder_labeling,
    interval_boundary_congestion,
    pair_cut_congestion,
    sibling_layout_labeling,
    wl_binary,
    wl_binary_chain,
    wl_sibling,
    wl_sibling_chain,
)


def test_single_block_values():
    assert wl_binary(2, 2) == 9
    assert wl_binary(3, 2) == 54
    assert wl_binary(3, 3) == 65
    assert wl_binary(4, 2) == 324
    assert wl_sibling(2, 2) == 8
    assert wl_sibling(3, 2) == 45
    assert wl_sibling(3, 3) == 54


def test_chain_values():
    assert wl_binary_chain(2, 1, 2) == 10
    assert wl_binary_chain(3, 2, 2) == 60
    assert wl_binary_chain(3, 2, 3) == 74
    assert wl_sibling_chain(3, 2, 2) == 58
    assert wl_sibling_chain(3, 2, 3) == 72
    # height-1 blocks have no sibling pairs, so both hosts coincide
    assert wl_binary_chain(3, 1, 2) == wl_sibling_chain(3, 1, 2) == 56
    assert wl_binary_chain(3, 1, 3) == wl_sibling_chain(3, 1, 3) == 68


def test_chain_forms_degenerate_to_single_block():
    for n in range(2, 9):
        for p in range(2, n + 1):
            assert wl_binary_chain(n, n, p) == wl_binary(n, p)
            assert wl_sibling_chain(n, n, p) == wl_sibling(n, p)
            assert wl_binary_chain(n, 1, p) == wl_sibling_chain(n, 1, p)


def test_closed_form_dispatch():
    assert closed_form_wirelength(3, 2) == 54
    assert closed_form_wirelength(3, 2, sibling=True) == 45
    assert closed_form_wirelength(3, 2, n1=2) == 60
    assert closed_form_wirelength(3, 2, n1=2, sibling=True) == 58


def test_branch_cut_values():
    assert branch_cut_congestion(1, 3, 2) == 6
    assert branch_cut_congestion(2, 3, 2) == 12
    assert branch_cut_congestion(3, 3, 2) == 6
    assert pair_cut_congestion(1, 3, 2) == 10
    assert pair_cut_congestion(2, 3, 2) == 10
    assert chain_cut_congestion(1, 2, 3, 2) == 12
    assert chain_cut_congestion(1, 1, 3, 2) == 10
    assert chain_cut_congestion(2, 1, 3, 2) == 12
    assert chain_cut_congestion(3, 1, 3, 2) == 10


def test_cut_congestions_reduce_to_interval_boundaries():
    for n in range(2, 11):
        for p in range(2, n + 1):
            for j in range(1, n + 1):
                expected = interval_boundary_congestion((1 << j) - 1, n, p)
                assert branch_cut_congestion(j, n, p) == expected
            for j in range(1, n):
                expected = interval_boundary_congestion((1 << (j + 1)) - 2, n, p)
                assert pair_cut_congestion(j, n, p) == expected
            for n1 in range(1, n + 1):
                for i in range(1, (1 << (n - n1))):
                    expected = interval_boundary_congestion(i << n1, n, p)
                    assert chain_cut_congestion(i, n1, n, p) == expected


def test_branch_case_split_is_continuous():
    # at j == p both branch expressions must agree
    for p in range(2, 11):
        n = p + 2
        j = p
        small = ((1 << j) - 1) * ((1 << (n - p)) * ((1 << p) - 1) - ((1 << j) - 2))
        large = ((1 << p) - 1) * (
            (1 << (n - p)) * ((1 << j) - 1) - (1 << (j - p)) * ((1 << j) - 2)
        )
        assert small == large == branch_cut_congestion(j, n, p)


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
        expected = pairwise_distance_sum(host.vertex_count, host.label_edges)
        assert closed_form_wirelength(n, n, n1=n1, sibling=sibling) == expected


def test_sibling_never_costs_more():
    for n in range(2, 11):
        for p in range(2, n + 1):
            for n1 in range(1, n + 1):
                binary = wl_binary_chain(n, n1, p)
                sib = wl_sibling_chain(n, n1, p)
                assert sib <= binary


def test_validation():
    with pytest.raises(ValueError):
        wl_binary(3, 1)
    with pytest.raises(ValueError):
        wl_binary(3, 4)
    with pytest.raises(ValueError):
        wl_binary(21, 2)
    with pytest.raises(ValueError):
        wl_binary_chain(3, 0, 2)
    with pytest.raises(ValueError):
        wl_binary_chain(3, 4, 2)
    with pytest.raises(ValueError):
        branch_cut_congestion(0, 3, 2)
    with pytest.raises(ValueError):
        branch_cut_congestion(4, 3, 2)
    with pytest.raises(ValueError):
        pair_cut_congestion(3, 3, 2)
    with pytest.raises(ValueError):
        chain_cut_congestion(4, 1, 3, 2)
    with pytest.raises(ValueError):
        chain_cut_congestion(0, 1, 3, 2)
    with pytest.raises(ValueError):
        interval_boundary_congestion(9, 3, 2)
