import random
from itertools import permutations

import pytest

from oracles import bfs_distances
from treebed import (
    BudgetExceededError,
    Embedding,
    build_guest,
    build_host,
    exhaustive_min_wirelength,
    identity_embedding,
    inorder_labeling,
    local_search_min,
    sibling_layout_labeling,
    wirelength_direct,
    wl_binary,
    wl_sibling,
)
from treebed.search import _min_wirelength_bijections

T21 = inorder_labeling(build_host(2, 1))
T31 = inorder_labeling(build_host(3, 1))
ST31 = sibling_layout_labeling(build_host(3, 1, sibling=True))
T12 = inorder_labeling(build_host(1, 2))


def test_exhaustive_complete_guest_is_flat():
    guest = build_guest(2, 2)
    result = exhaustive_min_wirelength(guest, T21)
    assert result.best_value == 9
    assert result.exhaustive
    assert result.explored == 24
    # with a complete guest every bijection costs the same, so the witness
    # is the identity
    assert result.witness.assignment == (1, 2, 3, 4)
    table = bfs_distances(4, T21.label_edges)
    for perm in permutations(range(1, 5)):
        total = sum(
            table[perm[u - 1]][perm[v - 1]] for u, v in guest.graph.edges
        )
        assert total == 9


def test_exhaustive_single_blocks():
    guest = build_guest(3, 2)
    result = exhaustive_min_wirelength(guest, T31)
    assert result.best_value == wl_binary(3, 2) == 54
    assert result.explored == 40320
    assert wirelength_direct(guest, T31, result.witness) == 54

    result = exhaustive_min_wirelength(guest, ST31)
    assert result.best_value == wl_sibling(3, 2) == 45
    assert wirelength_direct(guest, ST31, result.witness) == 45


def test_exhaustive_budget_guard():
    guest = build_guest(3, 2)
    with pytest.raises(BudgetExceededError, match="40320"):
        exhaustive_min_wirelength(guest, T31, budget=1000)


def test_exhaustive_size_mismatch():
    with pytest.raises(ValueError):
        exhaustive_min_wirelength(build_guest(3, 2), T21)


def test_automorphisms_shrink_the_scan():
    guest = build_guest(2, 2)
    plain = exhaustive_min_wirelength(guest, T12)
    assert plain.best_value == 10
    assert plain.explored == 24

    # reversing the two-block chain is a host symmetry
    reversal = {1: 3, 2: 4, 3: 1, 4: 2}
    reduced = exhaustive_min_wirelength(guest, T12, automorphisms=[reversal])
    assert reduced.best_value == plain.best_value
    assert reduced.explored == 12
    assert reduced.witness.assignment[0] in (1, 2)

    as_sequence = exhaustive_min_wirelength(guest, T12, automorphisms=[[3, 4, 1, 2]])
    assert as_sequence.best_value == plain.best_value
    assert as_sequence.explored == 12


def test_automorphisms_are_validated():
    guest = build_guest(2, 2)
    with pytest.raises(ValueError):
        exhaustive_min_wirelength(guest, T12, automorphisms=[{1: 2, 2: 1, 3: 3, 4: 4}])
    with pytest.raises(ValueError):
        exhaustive_min_wirelength(guest, T12, automorphisms=[[1, 1, 3, 3]])
    with pytest.raises(ValueError):
        exhaustive_min_wirelength(guest, T12, automorphisms=[[2, 1, 4]])


# path 0-1-2, flattened row-major
PATH3 = [0, 1, 2, 1, 0, 1, 2, 1, 0]


def _random_instance(rng, nv):
    dist = [[0] * nv for _ in range(nv)]
    for a in range(nv):
        for b in range(a + 1, nv):
            dist[a][b] = dist[b][a] = rng.randint(1, 9)
    flat = [dist[a][b] for a in range(nv) for b in range(nv)]
    edges = [
        (u, v)
        for u in range(nv)
        for v in range(u + 1, nv)
        if rng.random() < 0.5
    ]
    edge_u = [u for u, _ in edges]
    edge_v = [v for _, v in edges]
    return flat, edge_u, edge_v


def _brute(nv, flat, edge_u, edge_v):
    best = None
    witness = None
    for perm in permutations(range(nv)):
        total = sum(flat[perm[u] * nv + perm[v]] for u, v in zip(edge_u, edge_v))
        if best is None or total < best:
            best, witness = total, perm
    return best, witness


def test_bijection_kernel_tiny():
    best, perm, explored = _min_wirelength_bijections(3, PATH3, [0], [1])
    assert best == 1
    assert perm == (0, 1, 2)
    assert explored == 6


def test_bijection_kernel_first_choices():
    best, perm, explored = _min_wirelength_bijections(
        3, PATH3, [0], [2], first_choices=[2]
    )
    assert explored == 2
    assert perm[0] == 2
    # vertex 0 is pinned to label 2, so the best places vertex 2 at label 1
    assert best == 1 and perm == (2, 0, 1)


def test_bijection_kernel_matches_bruteforce():
    rng = random.Random(1234)
    for nv in (4, 5, 6):
        for _ in range(3):
            flat, edge_u, edge_v = _random_instance(rng, nv)
            best, perm, explored = _min_wirelength_bijections(
                nv, flat, edge_u, edge_v
            )
            expect_best, expect_perm = _brute(nv, flat, edge_u, edge_v)
            assert best == expect_best
            # brute force scans in the same lexicographic order
            assert perm == expect_perm
            assert explored == len(list(permutations(range(nv))))


def test_local_search_finds_small_optima():
    guest = build_guest(3, 2)
    for seed in (0, 1, 2):
        result = local_search_min(guest, T31, seed=seed, iterations=1000)
        assert result.best_value == 54
        assert not result.exhaustive
        assert wirelength_direct(guest, T31, result.witness) == 54


def test_local_search_on_larger_host():
    guest = build_guest(4, 2)
    host = inorder_labeling(build_host(4, 1))
    for seed in (0, 1, 2):
        result = local_search_min(guest, host, seed=seed, iterations=2)
        assert result.best_value == wl_binary(4, 2) == 324


def test_local_search_zero_iterations_reports_seed_embedding():
    guest = build_guest(3, 2)
    result = local_search_min(guest, ST31, seed=42, iterations=0)
    assert result.explored == 1
    assert result.best_value == wirelength_direct(guest, ST31, result.witness)
    assert result.best_value >= wl_sibling(3, 2)


def test_local_search_is_deterministic():
    guest = build_guest(3, 2)
    a = local_search_min(guest, ST31, seed=7, iterations=3)
    b = local_search_min(guest, ST31, seed=7, iterations=3)
    assert a == b


def test_local_search_never_beats_exhaustive():
    guest = build_guest(3, 2)
    floor = exhaustive_min_wirelength(guest, ST31).best_value
    for seed in (3, 11):
        result = local_search_min(guest, ST31, seed=seed, iterations=5)
        assert result.best_value >= floor


def test_local_search_validation():
    guest = build_guest(3, 2)
    with pytest.raises(ValueError):
        local_search_min(guest, T31, seed=0, iterations=-1)
