import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from itertools import permutations
from math import factorial, log10
from pathlib import Path

import pytest

from oracles import (
    bfs_distances,
    guest_edges,
    local_search_by_neighbors,
    min_wirelength_bijections,
)
from treebed import (
    LAYOUT_VARIANTS,
    BudgetExceededError,
    Embedding,
    HostTree,
    build_guest,
    build_host,
    closed_form_wirelength,
    exhaustive_min_wirelength,
    identity_embedding,
    inorder_labeling,
    local_search_min,
    sibling_layout_labeling,
    wirelength_direct,
)
from treebed import search
from treebed.search import SearchResult, _SplitMix64, _min_wirelength_partitions

T21 = inorder_labeling(build_host(2, 1))
T31 = inorder_labeling(build_host(3, 1))
ST31 = sibling_layout_labeling(build_host(3, 1, sibling=True))


def test_exhaustive_complete_guest_is_flat():
    guest = build_guest(2, 2)
    result = exhaustive_min_wirelength(guest, T21)
    assert result.best_value == 9
    assert result.exhaustive
    # singleton blocks: one partition
    assert result.explored == 1
    # with a complete guest every bijection costs the same, so the witness
    # is the identity
    assert result.witness.assignment == (1, 2, 3, 4)
    table = bfs_distances(4, T21.links.edges)
    for perm in permutations(range(1, 5)):
        total = sum(
            table[perm[u - 1]][perm[v - 1]] for u, v in guest_edges(guest)
        )
        assert total == 9


def test_exhaustive_one_label_per_block_past_the_recursion_limit():
    # p = n leaves one partition however many labels there are, so the
    # search returns it without a stack frame per label (1024 at n = 10)
    # and sums the distance rows as they stream: a stored V² table of rows
    # would peak at about 32 MB at n = 11.  The host's links are built before
    # tracing, so the bound is the search's own.
    for n in (9, 10, 11):
        guest, host = build_guest(n, n), HostTree(n, 1, False)
        host.links
        tracemalloc.start()
        try:
            result = exhaustive_min_wirelength(guest, host)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.best_value == closed_form_wirelength(n, n)
        assert result.explored == 1
        assert result.witness.assignment == tuple(range(1, (1 << n) + 1))
        assert peak < 4 << 20, (n, peak)


def test_exhaustive_single_blocks():
    guest = build_guest(3, 2)
    result = exhaustive_min_wirelength(guest, T31)
    assert result.best_value == closed_form_wirelength(3, 2) == 54
    assert result.explored == 105
    assert wirelength_direct(guest, T31, result.witness) == 54

    result = exhaustive_min_wirelength(guest, ST31)
    assert result.best_value == closed_form_wirelength(3, 2, sibling=True) == 45
    assert wirelength_direct(guest, ST31, result.witness) == 45


def test_exhaustive_budget_guard():
    guest = build_guest(3, 2)
    with pytest.raises(BudgetExceededError, match="105 label partitions"):
        exhaustive_min_wirelength(guest, T31, budget=104)
    assert exhaustive_min_wirelength(guest, T31, budget=105).explored == 105


def test_budget_refusal_names_the_exact_count_up_to_256_labels():
    # every guest shape the engine runs, one partition over its budget and
    # exactly at it
    for n in range(2, 9):
        for p in range(2, n + 1):
            count = _partition_count(1 << n, 1 << p)
            with pytest.raises(BudgetExceededError) as info:
                search._check_budget(1 << n, 1 << p, count - 1, prefix="x: ")
            assert str(info.value) == (
                f"x: {count} label partitions exceed the budget of {count - 1}"
            ), (n, p)
            search._check_budget(1 << n, 1 << p, count)


def test_budget_refusal_past_256_labels_names_the_order_of_magnitude():
    # From n = 13 the exact count has more digits than Python prints.
    for n in (9, 13):
        count = _partition_count(1 << n, 4)
        host = HostTree(n, 1, False)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as info:
            exhaustive_min_wirelength(build_guest(n, 2), host)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            f"about 10**{round(log10(count))} label partitions exceed the budget of 3000000"
        )


def test_budget_refusal_at_n_20_stops_counting_early():
    # The whole count at n = 20 takes over a minute; a child process, so
    # that a count that does not stop at the budget fails within 10 s.
    script = (
        "import time\n"
        "from treebed import BudgetExceededError, HostTree, build_guest,"
        " exhaustive_min_wirelength\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    exhaustive_min_wirelength(build_guest(20, 2), HostTree(20, 1, False))\n"
        "except BudgetExceededError as exc:\n"
        "    print(time.perf_counter() - start, exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(search.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=10, check=True)
    seconds, message = done.stdout.split(" ", 1)
    assert float(seconds) < 1
    assert re.fullmatch(r"about 10\*\*\d+ label partitions exceed the budget of 3000000\n",
                        message)


@pytest.mark.parametrize("call, message", [
    (lambda guest: local_search_min(guest, T31, seed=1.5, iterations=1),
     "seed and iterations must be integers, got seed=1.5, iterations=1"),
    (lambda guest: local_search_min(guest, T31, seed=0, iterations=2.0),
     "seed and iterations must be integers, got seed=0, iterations=2.0"),
    (lambda guest: exhaustive_min_wirelength(guest, T31, budget=None),
     "budget must be an integer, got None"),
    (lambda guest: exhaustive_min_wirelength(guest, T31, budget=2.5),
     "budget must be an integer, got 2.5"),
], ids=["seed", "iterations", "budget-none", "budget-float"])
def test_search_arguments_must_be_integers(call, message):
    with pytest.raises(ValueError) as info:
        call(build_guest(3, 2))
    assert str(info.value) == message


def test_exhaustive_budget_is_checked_before_the_distance_rows():
    # 4096 labels: the distance rows alone would take over 100 MB.
    guest = build_guest(12, 2)
    host = inorder_labeling(build_host(12, 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="exceed the budget of 3000000"):
            exhaustive_min_wirelength(guest, host)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_exhaustive_size_mismatch():
    with pytest.raises(ValueError):
        exhaustive_min_wirelength(build_guest(3, 2), T21)


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
    best, perm, explored = min_wirelength_bijections(3, PATH3, [0], [1])
    assert best == 1
    assert perm == (0, 1, 2)
    assert explored == 6


def test_bijection_kernel_first_choices():
    best, perm, explored = min_wirelength_bijections(
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
            best, perm, explored = min_wirelength_bijections(
                nv, flat, edge_u, edge_v
            )
            expect_best, expect_perm = _brute(nv, flat, edge_u, edge_v)
            assert best == expect_best
            # brute force scans in the same lexicographic order
            assert perm == expect_perm
            assert explored == len(list(permutations(range(nv))))


def _labeled(n, n1, kind, variant):
    host = build_host(n1, 1 << (n - n1), sibling=(kind == "sibling"))
    if kind == "sibling":
        return sibling_layout_labeling(host, variant)
    return inorder_labeling(host)


HOST_SHAPES = [("binary", 0)] + [("sibling", v) for v in LAYOUT_VARIANTS]


def _oracle_tables(guest, host):
    """Flat 0-based distance table and guest edge arrays for the oracles."""
    count = guest.vertex_count
    table = bfs_distances(count, host.links.edges)
    dist = [table[a][b] for a in range(1, count + 1) for b in range(1, count + 1)]
    edges = guest_edges(guest)
    return count, dist, [u - 1 for u, _ in edges], [v - 1 for _, v in edges]


def _partition_count(nv, parts):
    """Splits of ``nv`` labels into ``parts`` unordered blocks of equal size."""
    return factorial(nv) // (factorial(nv // parts) ** parts * factorial(parts))


def test_partition_search_matches_bijection_oracle():
    # every instance with 2**n <= 8: each p and n1, both host kinds, every
    # sibling layout variant
    for n in (2, 3):
        for p in range(2, n + 1):
            guest = build_guest(n, p)
            partitions = _partition_count(1 << n, 1 << p)
            for n1 in range(1, n + 1):
                for kind, variant in HOST_SHAPES:
                    host = _labeled(n, n1, kind, variant)
                    count, dist, edge_u, edge_v = _oracle_tables(guest, host)
                    expect, _, _ = min_wirelength_bijections(count, dist, edge_u, edge_v)
                    result = exhaustive_min_wirelength(guest, host)
                    case = (n, p, n1, kind, variant)
                    assert result.best_value == expect, case
                    assert result.explored == partitions, case
                    assert wirelength_direct(guest, host, result.witness) == expect, case


def _canonical_blocks(nv, parts, perm):
    """Block index of each label, blocks numbered by their smallest label,
    when vertex ``v`` gets label ``perm[v]`` and lies in set ``v % parts``."""
    set_of = [0] * nv
    for v, lab in enumerate(perm):
        set_of[lab] = v % parts
    rank = {}
    return tuple(rank.setdefault(j, len(rank)) for j in set_of)


def test_partition_kernel_matches_oracle_on_random_tables():
    rng = random.Random(4321)
    for nv, parts in ((4, 2), (6, 2), (6, 3), (6, 6), (8, 2), (8, 4)):
        # distances up to 9 make the optimum unique; up to 2, ties are common
        for top in (9, 2):
            rows = [[0] * nv for _ in range(nv)]
            for a in range(nv):
                for b in range(a + 1, nv):
                    rows[a][b] = rows[b][a] = rng.randint(1, top)
            flat = [rows[a][b] for a in range(nv) for b in range(nv)]
            # complete multipartite, vertex v in partite set v % parts
            edges = [
                (u, v) for u in range(nv) for v in range(u + 1, nv)
                if (v - u) % parts
            ]
            edge_u = [u for u, _ in edges]
            edge_v = [v for _, v in edges]
            best, blocks, explored = _min_wirelength_partitions(nv, rows, parts)
            expect, _, _ = min_wirelength_bijections(nv, flat, edge_u, edge_v)
            assert best == expect
            assert explored == _partition_count(nv, parts)
            # the witness assignment: block j to partite set j, in label order
            assignment = [0] * nv
            for j, block in enumerate(blocks):
                assert list(block) == sorted(block)
                assignment[j::parts] = block
            assert sum(rows[assignment[u]][assignment[v]] for u, v in edges) == best
            if nv <= 6:
                # enumeration is lexicographic in the block index of each
                # label, so the witness is the smallest optimal one
                first = min(
                    (sum(rows[perm[u]][perm[v]] for u, v in edges),
                     _canonical_blocks(nv, parts, perm))
                    for perm in permutations(range(nv))
                )
                assert (best, _canonical_blocks(nv, parts, assignment)) == first


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
        assert result.best_value == closed_form_wirelength(4, 2) == 324


def test_local_search_zero_iterations_reports_seed_embedding():
    guest = build_guest(3, 2)
    result = local_search_min(guest, ST31, seed=42, iterations=0)
    assert result.explored == 1
    assert result.best_value == wirelength_direct(guest, ST31, result.witness)
    assert result.best_value >= closed_form_wirelength(3, 2, sibling=True)


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


def test_local_search_matches_neighbor_descent():
    # every (n, p) with 3 <= n <= 6, rotating through block heights, host
    # kinds and sibling variants; the whole result must match, witness and
    # explored count included
    shape = 0
    for n in range(3, 7):
        for p in range(2, n + 1):
            guest = build_guest(n, p)
            kind, variant = HOST_SHAPES[shape % len(HOST_SHAPES)]
            n1 = 1 + shape % n
            shape += 1
            host = _labeled(n, n1, kind, variant)
            count, dist, edge_u, edge_v = _oracle_tables(guest, host)
            for seed in (shape, 1000 + 7 * shape):
                history = local_search_by_neighbors(
                    count, dist, edge_u, edge_v, _SplitMix64(seed), 3
                )
                for iterations in (0, 1, 3):
                    best, perm, explored = history[iterations]
                    expect = SearchResult(
                        best, Embedding(tuple(lab + 1 for lab in perm)),
                        explored, exhaustive=False,
                    )
                    result = local_search_min(guest, host, seed, iterations)
                    assert result == expect, (n, p, n1, kind, variant, seed, iterations)


def test_local_search_takes_the_last_pair(monkeypatch):
    # On the hosts' own distances no chosen swap has been seen to move one
    # of the last 2**p guest vertices, since equal swap deltas are common
    # there and the first pair wins.  So the descent runs on a random table,
    # where a chosen best swap at seeds 14 and 22 is the last pair (14, 15).
    guest = build_guest(4, 2)
    rng = random.Random(1)
    rows = [[0] * 16 for _ in range(16)]
    for a in range(16):
        for b in range(a + 1, 16):
            rows[a][b] = rows[b][a] = rng.randint(1, 9)
    monkeypatch.setattr(search, "_distance_rows", lambda host, count: iter(rows))
    dist = [d for row in rows for d in row]
    edges = guest_edges(guest)
    edge_u, edge_v = [u - 1 for u, _ in edges], [v - 1 for _, v in edges]
    host = inorder_labeling(build_host(4, 1))
    for seed in (14, 22):
        best, perm, explored = local_search_by_neighbors(
            16, dist, edge_u, edge_v, _SplitMix64(seed), 1
        )[1]
        expect = SearchResult(
            best, Embedding(tuple(lab + 1 for lab in perm)), explored, exhaustive=False
        )
        assert local_search_min(guest, host, seed, 1) == expect, seed


def test_splitmix64_draws_and_shuffle():
    # seed 0's first outputs are the published SplitMix64 values, and the
    # shuffle is Fisher-Yates over the draws: each place from the last down
    # to the second swaps with the place a draw picks at or below it
    # (randrange rejects only a draw among the top 2**64 % (i + 1) values)
    rng = _SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]
    draws, expect = _SplitMix64(7), list(range(6))
    for i in range(5, 0, -1):
        j = draws.next_u64() % (i + 1)
        expect[i], expect[j] = expect[j], expect[i]
    assert expect == [1, 5, 0, 2, 4, 3]
    seq = list(range(6))
    _SplitMix64(7).shuffle(seq)
    assert seq == expect
