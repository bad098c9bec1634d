"""Acceptance suite: the headline claims, checked end to end.

Each test prints one ``ACCEPTANCE nn PASS`` line (visible with ``-s``); the
pytest verdict per test is the pass/fail gate.  The module fixture builds
the full small-parameter grid once: every guest with 2 <= p <= n <= 6
embedded canonically into every host shape (all block heights, both kinds).
"""

import json
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from oracles import (
    bfs_distances,
    brute_force_max_induced,
    guest_edges,
    min_wirelength_bijections,
    multipartite_edges,
)
from treebed import (
    Embedding,
    HostTree,
    Guest,
    build_report,
    closed_form_wirelength,
    congestion_lemma_value,
    cut_congestion,
    cut_edges,
    cut_family,
    exhaustive_min_wirelength,
    identity_embedding,
    max_subgraph_edges_closed_form,
    verify_cut_conditions,
    wirelength_direct,
)
from treebed.cli import main as cli_main
from treebed.embedding import WirelengthReport

GRID_MAX_N = 6


@dataclass(frozen=True)
class GridRecord:
    n: int
    p: int
    n1: int
    sibling: bool
    guest: Guest
    host: HostTree
    embedding: Embedding
    report: WirelengthReport


@pytest.fixture(scope="module")
def grid():
    started = time.perf_counter()
    records = []
    hosts = {}
    for n in range(2, GRID_MAX_N + 1):
        for p in range(2, n + 1):
            guest = Guest(n, p)
            for n1 in range(1, n + 1):
                for sibling in (False, True):
                    key = (n, n1, sibling)
                    if key not in hosts:
                        hosts[key] = HostTree(n1, 1 << (n - n1), sibling)
                    host = hosts[key]
                    embedding = identity_embedding(guest, host)
                    report = build_report(guest, host, embedding)
                    records.append(
                        GridRecord(n, p, n1, sibling, guest, host, embedding, report)
                    )
    build_seconds = time.perf_counter() - started
    return {"records": records, "build_seconds": build_seconds}


def test_acceptance_01_densest_subsets_match_bruteforce():
    started = time.perf_counter()
    checked = 0
    for p_parts in range(2, 13):
        for r in range(1, 12 // p_parts + 1):
            count, edges = p_parts * r, multipartite_edges([r] * p_parts)
            for k in range(count + 1):
                closed = max_subgraph_edges_closed_form(p_parts, r, k)
                found = brute_force_max_induced(count, edges, k)
                assert found == closed, (p_parts, r, k)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"ACCEPTANCE 01 PASS: closed form matches brute force on "
        f"{checked} (parts, size, k) cases in {elapsed:.1f}s"
    )


def test_acceptance_02_every_cut_meets_its_lemma_bound(grid):
    started = time.perf_counter()
    cuts_checked = 0
    for rec in grid["records"]:
        count = rec.guest.vertex_count
        for cut in cut_family(rec.host):
            conditions = verify_cut_conditions(rec.guest, rec.host, rec.embedding, cut)
            assert conditions.inside_avoids_cut, (rec.n, rec.p, rec.n1, cut)
            assert conditions.crossings_cross_once, (rec.n, rec.p, rec.n1, cut)
            assert conditions.preimages_optimal, (rec.n, rec.p, rec.n1, cut)
            ec = cut_congestion(rec.guest, rec.host, rec.embedding, cut)
            inside = set(
                range(cut.component_lo, cut.component_hi + 1)
            )  # identity embedding: labels are vertices
            outside = set(range(1, count + 1)) - inside
            assert ec == congestion_lemma_value(rec.guest, inside)
            assert ec == congestion_lemma_value(rec.guest, outside)
            cuts_checked += 1
    elapsed = grid["build_seconds"] + (time.perf_counter() - started)
    assert elapsed < 60
    print(
        f"ACCEPTANCE 02 PASS: {cuts_checked} cuts across "
        f"{len(grid['records'])} instances meet all three conditions and "
        f"both preimage bounds in {elapsed:.1f}s"
    )


def test_acceptance_03_partition_totals_match_direct_totals(grid):
    started = time.perf_counter()
    for rec in grid["records"]:
        assert rec.report.via_partition == rec.report.direct, (rec.n, rec.p, rec.n1)
        coverage = Counter()
        for cut in cut_family(rec.host):
            for edge in cut_edges(rec.host, cut):
                coverage[edge] += cut.multiplicity_share
        expected = 2 if rec.sibling else 1
        assert set(coverage) == set(rec.host.links.edges)
        assert set(coverage.values()) == {expected}, (rec.n, rec.n1, rec.sibling)
    elapsed = grid["build_seconds"] + (time.perf_counter() - started)
    assert elapsed < 120
    print(
        f"ACCEPTANCE 03 PASS: cut-family totals equal routed totals on all "
        f"{len(grid['records'])} instances (coverage 1 plain, 2 sibling) "
        f"in {elapsed:.1f}s"
    )


def test_acceptance_04_single_binary_closed_form(grid):
    for rec in grid["records"]:
        if not rec.sibling and rec.n1 == rec.n:
            expected = closed_form_wirelength(rec.n, rec.p)
            assert rec.report.direct == expected, (rec.n, rec.p)
    assert closed_form_wirelength(2, 2) == 9
    assert closed_form_wirelength(3, 2) == 54
    assert closed_form_wirelength(3, 3) == 65
    print(
        "ACCEPTANCE 04 PASS: single binary tree closed form matches the "
        "engine for all 2 <= p <= n <= 6; spot values 9, 54, 65"
    )


def test_acceptance_05_chained_binary_closed_form(grid):
    for rec in grid["records"]:
        if not rec.sibling:
            expected = closed_form_wirelength(rec.n, rec.p, n1=rec.n1)
            assert rec.report.direct == expected
    assert closed_form_wirelength(3, 2, n1=2) == 60
    for n in range(2, GRID_MAX_N + 1):
        for p in range(2, n + 1):
            assert closed_form_wirelength(n, p, n1=n) == closed_form_wirelength(n, p)
    print(
        "ACCEPTANCE 05 PASS: chained binary closed form matches the engine "
        "for every (n, p, n1) with n <= 6; spot value 60; single-block "
        "degeneracy holds"
    )


def test_acceptance_06_single_sibling_closed_form_all_variants(grid):
    for rec in grid["records"]:
        if rec.sibling and rec.n1 == rec.n:
            expected = closed_form_wirelength(rec.n, rec.p, sibling=True)
            assert rec.report.direct == expected, (rec.n, rec.p)
    assert closed_form_wirelength(3, 2, sibling=True) == 45
    variants_checked = 0
    for n in range(2, GRID_MAX_N + 1):
        for p in range(2, n + 1):
            guest = Guest(n, p)
            expected = closed_form_wirelength(n, p, sibling=True)
            for variant in range(4):
                host = HostTree(n, 1, True, variant)
                embedding = identity_embedding(guest, host)
                assert wirelength_direct(guest, host, embedding) == expected
                if n <= 4:
                    assert all(
                        verify_cut_conditions(guest, host, embedding, cut).ok
                        for cut in cut_family(host)
                    )
                variants_checked += 1
    print(
        f"ACCEPTANCE 06 PASS: single sibling tree closed form matches the "
        f"engine under all four layout variants ({variants_checked} runs); "
        f"spot value 45"
    )


def test_acceptance_07_chained_sibling_closed_form(grid):
    for rec in grid["records"]:
        if rec.sibling:
            expected = closed_form_wirelength(rec.n, rec.p, n1=rec.n1, sibling=True)
            assert rec.report.direct == expected
    assert closed_form_wirelength(3, 2, n1=2, sibling=True) == 58
    print(
        "ACCEPTANCE 07 PASS: chained sibling closed form matches the engine "
        "for every (n, p, n1) with n <= 6; spot value 58"
    )


# frozen from exhaustive 8!-searches: (p, n1, sibling) -> minimum wirelength
EXHAUSTIVE_MINIMA = {
    (2, 3, False): 54,
    (2, 3, True): 45,
    (2, 2, False): 60,
    (2, 2, True): 58,
    (2, 1, False): 56,
    (2, 1, True): 56,
    (3, 3, False): 65,
    (3, 3, True): 54,
    (3, 2, False): 74,
    (3, 2, True): 72,
    (3, 1, False): 68,
    (3, 1, True): 68,
}


def test_acceptance_08_exhaustive_search_confirms_optimality():
    started = time.perf_counter()
    for (p, n1, sibling), expected in EXHAUSTIVE_MINIMA.items():
        guest = Guest(3, p)
        host = HostTree(n1, 1 << (3 - n1), sibling)
        table = bfs_distances(8, host.links.edges)
        dist = [table[a][b] for a in range(1, 9) for b in range(1, 9)]
        edges = guest_edges(guest)
        best, _, explored = min_wirelength_bijections(
            8, dist, [u - 1 for u, _ in edges], [v - 1 for _, v in edges]
        )
        assert explored == 40320
        assert best == expected, (p, n1, sibling)
        result = exhaustive_min_wirelength(guest, host)
        # 8!/((2!)^4 4!) = 105 label partitions at p = 2, one at p = 3
        assert result.exhaustive and result.explored == (105 if p == 2 else 1)
        assert result.best_value == expected, (p, n1, sibling)
        canonical = wirelength_direct(guest, host, identity_embedding(guest, host))
        assert canonical == expected, (p, n1, sibling)
    assert EXHAUSTIVE_MINIMA[(2, 3, False)] == 54
    assert EXHAUSTIVE_MINIMA[(2, 3, True)] == 45
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    print(
        f"ACCEPTANCE 08 PASS: all 12 exhaustive searches (40320 bijections "
        f"each, and the label partitions) match the canonical embeddings "
        f"in {elapsed:.1f}s; "
        f"minima include 54 and 45"
    )


def test_acceptance_09_sibling_edges_never_hurt(grid):
    by_params = {}
    for rec in grid["records"]:
        by_params[(rec.n, rec.p, rec.n1, rec.sibling)] = rec.report.direct
    for (n, p, n1, sibling), direct in by_params.items():
        if sibling:
            assert direct <= by_params[(n, p, n1, False)], (n, p, n1)
    for n in range(2, 11):
        for p in range(2, n + 1):
            for n1 in range(1, n + 1):
                sibling = closed_form_wirelength(n, p, n1=n1, sibling=True)
                assert sibling <= closed_form_wirelength(n, p, n1=n1)
    print(
        "ACCEPTANCE 09 PASS: sibling hosts never cost more than plain hosts, "
        "on the engine grid (n <= 6) and the formula grid (n <= 10)"
    )


def test_acceptance_10_cli_workflows(capsys):
    runs = [
        (["wirelength", "--n", "3", "--p", "2"], 54),
        (["wirelength", "--n", "3", "--p", "2", "--host", "sibling"], 45),
        (["wirelength", "--n", "3", "--p", "2", "--n1", "2"], 60),
    ]
    for argv, expected in runs:
        code = cli_main(argv)
        data = json.loads(capsys.readouterr().out)
        assert code == 0, argv
        assert data["direct"] == data["via_partition"] == data["closed_form"]
        assert data["direct"] == expected
        assert data["cut_conditions_ok"] is True

    code = cli_main(["wirelength", "--n", "3", "--p", "2", "--swap", "1", "7"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert data["cut_conditions_ok"] is False
    with capsys.disabled():
        print(
            "\nACCEPTANCE 10 PASS: CLI reports 54/45/60 with exit 0; "
            "corrupted labeling is flagged with exit 1"
        )


@pytest.mark.parametrize("n1, sibling, expected", [(4, False, 324), (2, True, 332)],
                         ids=["binary", "sibling"])
def test_acceptance_11_exhaustive_search_confirms_optimality_at_n4(n1, sibling, expected):
    # 16 labels in 4 blocks of 4: 16!/((4!)^4 4!) label partitions, about
    # 5 s each on a 2-vCPU VM, within the default budget.
    started = time.perf_counter()
    guest = Guest(4, 2)
    host = HostTree(n1, 1 << (4 - n1), sibling)
    result = exhaustive_min_wirelength(guest, host)
    assert result.exhaustive and result.explored == 2627625
    assert result.best_value == expected
    assert wirelength_direct(guest, host, result.witness) == expected
    assert closed_form_wirelength(4, 2, n1=n1, sibling=sibling) == expected
    assert wirelength_direct(guest, host, identity_embedding(guest, host)) == expected
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 11 PASS: n = 4 exhaustive search over {result.explored} "
        f"label partitions matches the closed form and the canonical "
        f"embedding ({expected}) in {elapsed:.1f}s"
    )
