import random
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import bfs_distances, canonical_route, guest_edges
from treebed import (
    LAYOUT_VARIANTS,
    CoverageError,
    EdgeCut,
    Embedding,
    Guest,
    HostTree,
    build_report,
    closed_form_wirelength,
    congestion_lemma_value,
    cut_congestion,
    cut_edges,
    cut_family,
    edge_congestion,
    exhaustive_min_wirelength,
    identity_embedding,
    local_search_min,
    route,
    verify_cut_conditions,
    wirelength_direct,
    wirelength_via_partition,
)

T21 = HostTree(2, 1, False)
T31 = HostTree(3, 1, False)
T22 = HostTree(2, 2, False)
ST21 = HostTree(2, 1, True)
ST31 = HostTree(3, 1, True)
ST22 = HostTree(2, 2, True)


def _cut(host, key):
    return {(c.family, c.j, c.i): c for c in cut_family(host)}[key]


def test_embedding_validation():
    with pytest.raises(ValueError):
        Embedding((1, 1, 2))
    with pytest.raises(ValueError):
        Embedding((2, 3, 4))
    # float labels equal to 1..4 are refused, so they never reach the
    # routing or the memo of an equal int embedding
    with pytest.raises(ValueError, match="assignment labels must be integers"):
        Embedding([1.0, 2.0, 3.0, 4.0])
    emb = Embedding([2, 1, 3])
    assert emb.assignment == (2, 1, 3)
    assert emb.label_for(1) == 2


def test_embedding_swapped():
    emb = Embedding((1, 2, 3, 4))
    swapped = emb.swapped(1, 3)
    assert swapped.assignment == (3, 2, 1, 4)
    assert emb.assignment == (1, 2, 3, 4)


def test_identity_embedding_checks_sizes():
    guest = Guest(3, 2)
    assert identity_embedding(guest, T31).assignment == tuple(range(1, 9))
    with pytest.raises(ValueError):
        identity_embedding(guest, T21)


def test_route_examples():
    assert route(T21, 1, 3) == ((1, 2), (2, 3))
    # the sibling shortcut carries label 3 straight to label 6
    assert route(ST31, 1, 4) == ((1, 3), (3, 6), (4, 6))
    assert route(ST21, 1, 2) == ((1, 2),)


def test_route_is_symmetric_and_validated():
    for host in (T31, ST31, T22):
        count = host.vertex_count
        for u in range(1, count + 1):
            for v in range(u + 1, count + 1):
                assert route(host, u, v) == route(host, v, u)
    with pytest.raises(ValueError):
        route(T21, 1, 5)
    with pytest.raises(ValueError):
        route(T21, 2, 2)
    # a float label equal to an integer one is refused too
    for u, v in ((1.0, 3), (3, 1.0)):
        with pytest.raises(ValueError, match="^label 1.0 out of range 1..4$"):
            route(T21, u, v)
    with pytest.raises(ValueError, match="^label 2.0 out of range 1..8$"):
        Embedding(range(1, 9)).swapped(1, 2.0)


def test_route_lengths_match_bfs():
    for host in (T31, ST31, ST22):
        count = host.vertex_count
        table = bfs_distances(count, host.links.edges)
        for u in range(1, count + 1):
            for v in range(u + 1, count + 1):
                path = route(host, u, v)
                assert len(path) == table[u][v]
                # consecutive edges chain from u to v
                assert len(set(path)) == len(path)


def test_route_breaks_ties_toward_smallest_label():
    # Two shortest paths join labels 1 and 7; breadth-first search from 7
    # reaches 1 through 3 before it reaches it through 2.  The oracle
    # breaks the tie toward the smaller label.  No host has such a tie: a
    # host is a tree with sibling edges, built from its shape.
    edges = [(1, 2), (1, 3), (2, 6), (3, 5), (5, 7), (6, 7), (4, 7)]
    table = bfs_distances(7, edges)
    neighbors = {v: [w for e in edges for w in e if v in e and w != v] for v in table}
    assert canonical_route(table, neighbors, 7, 1) == [(1, 2), (2, 6), (6, 7)]


def test_wirelength_direct_examples():
    assert wirelength_direct(Guest(2, 2), T21, identity_embedding(Guest(2, 2), T21)) == 9
    guest = Guest(3, 2)
    assert wirelength_direct(guest, T31, identity_embedding(guest, T31)) == 54
    assert wirelength_direct(guest, ST31, identity_embedding(guest, ST31)) == 45
    assert wirelength_direct(guest, T22, identity_embedding(guest, T22)) == 60
    assert wirelength_direct(guest, ST22, identity_embedding(guest, ST22)) == 58
    with pytest.raises(ValueError) as err:
        wirelength_direct(guest, T31, Embedding(range(1, 5)))
    assert str(err.value) == "embedding size does not match the instance"


def test_edge_congestion_examples():
    guest22 = Guest(2, 2)
    emb = identity_embedding(guest22, T21)
    assert edge_congestion(guest22, T21, emb, (2, 4)) == 3
    assert edge_congestion(guest22, T21, emb, (4, 2)) == 3

    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31)
    # inorder puts the tree root at label 4, so the pendant edge is (4, 8)
    assert edge_congestion(guest, T31, emb, (4, 8)) == 6
    # labels outside 1..count, a label paired with itself, every pair of
    # labels that are not adjacent and a float end that compares equal to a
    # label are refused, each in both orders; (1, 2) is an edge of T31, and
    # a label -count would index the gap spans from the end without the
    # range check
    assert (1, 2) in T31.links.edges
    for host in (T31, ST31, T22, ST22):
        emb = identity_embedding(guest, host)
        count = host.vertex_count
        edges = host.links.edges
        apart = [(a, b) for a in range(1, count + 1) for b in range(a + 1, count + 1)
                 if (a, b) not in edges]
        assert (1, count) in apart
        bad = [(0, 1), (count, count + 1), (3, 3), (-count, host.links.up[1]),
               (1.0, 2), (1.0, host.links.up[1])] + apart
        for a, b in bad + [(b, a) for a, b in bad]:
            with pytest.raises(ValueError) as err:
                edge_congestion(guest, host, emb, (a, b))
            assert str(err.value) == f"{(a, b)} is not a host edge (in label space)"


def test_edge_congestion_sums_to_direct():
    guest = Guest(3, 2)
    for host in (T31, ST31, T22, ST22):
        for emb in (
            identity_embedding(guest, host),
            identity_embedding(guest, host).swapped(1, 7),
            Embedding((5, 3, 8, 1, 7, 2, 4, 6)),
        ):
            total = sum(
                edge_congestion(guest, host, emb, e) for e in host.links.edges
            )
            assert total == wirelength_direct(guest, host, emb)


def test_cut_congestion_examples():
    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31)
    assert cut_congestion(guest, T31, emb, _cut(T31, ("S", 2, 1))) == 12

    emb = identity_embedding(guest, ST31)
    assert cut_congestion(guest, ST31, emb, _cut(ST31, ("SS", 2, 1))) == 10

    emb = identity_embedding(guest, T22)
    assert cut_congestion(guest, T22, emb, _cut(T22, ("ROOT", None, 1))) == 12


def test_congestion_lemma_value_examples():
    guest = Guest(3, 2)
    assert congestion_lemma_value(guest, {1}) == 6
    assert congestion_lemma_value(guest, {1, 2, 3}) == 12
    assert congestion_lemma_value(guest, range(1, 9)) == 0


def test_cut_conditions_hold_for_identity():
    guest = Guest(3, 2)
    for host in (T31, ST31, T22, ST22):
        emb = identity_embedding(guest, host)
        for cut in cut_family(host):
            report = verify_cut_conditions(guest, host, emb, cut)
            assert report.ok, (host.kind, cut.family, cut.j, cut.i)
            # minimal congestion means the cut meets its lemma value exactly
            assert cut_congestion(guest, host, emb, cut) == congestion_lemma_value(
                guest, set(range(cut.component_lo, cut.component_hi + 1))
            )


def test_cut_conditions_match_route_oracle():
    # Label intervals cut out by their edge boundary, convex or not, so that
    # routes can leave a side and come back or cross more than once.
    guest = Guest(3, 2)
    edges = guest_edges(guest)
    seen = set()
    for host in (T31, ST31, T22, ST22):
        for emb in (
            identity_embedding(guest, host),
            identity_embedding(guest, host).swapped(1, 7),
        ):
            for lo in range(1, 9):
                for hi in range(lo, 8):
                    boundary = frozenset(
                        (a, b) for a, b in host.links.edges
                        if (lo <= a <= hi) != (lo <= b <= hi)
                    )
                    cut = EdgeCut("X", None, 1, lo, hi)
                    inside_ok = crossings_ok = True
                    crossing = 0
                    for u, v in edges:
                        lu, lv = emb.label_for(u), emb.label_for(v)
                        hits = len(boundary.intersection(route(host, lu, lv)))
                        if (lo <= lu <= hi) != (lo <= lv <= hi):
                            crossing += 1
                            crossings_ok = crossings_ok and hits == 1
                        else:
                            inside_ok = inside_ok and hits == 0
                    report = verify_cut_conditions(guest, host, emb, cut)
                    assert (
                        report.inside_avoids_cut,
                        report.crossings_cross_once,
                        report.lemma_value,
                    ) == (inside_ok, crossings_ok, crossing), (host.kind, lo, hi)
                    seen.add((inside_ok, crossings_ok))
    assert seen >= {(True, True), (False, True), (False, False)}


def test_verify_rejects_cut_that_is_not_an_interval_boundary():
    guest = Guest(3, 2)
    emb = identity_embedding(guest, ST31)
    cut = _cut(ST31, ("S", 2, 1))
    lo, hi = cut.component_lo, cut.component_hi
    for bad, message in (
        (cut._replace(component_lo=0), f"cut component 0..{hi} is not inside 1..8"),
        (cut._replace(component_hi=9), f"cut component {lo}..9 is not inside 1..8"),
        (EdgeCut("X", None, 1, 1, 3.0), "cut component 1..3.0 is not inside 1..8"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_cut_conditions(guest, ST31, emb, bad)
    assert verify_cut_conditions(guest, ST31, emb, cut).ok


def _interval_cuts(intervals):
    """Each ``(lo, hi)`` of ``intervals`` as a cut: its label interval cut
    out by its edge boundary."""
    return tuple(EdgeCut("X", None, 1, lo, hi) for lo, hi in intervals)


def _check_against_route_oracle(guest, host, emb, cuts=None):
    """Congestions, and the flags and lemma value of each of ``cuts``
    (default: the standard cuts and every label interval's boundary),
    against hit counts on canonical routes.  Returns the
    ``(inside_avoids_cut, crossings_cross_once)`` pairs seen."""
    count = host.vertex_count
    if cuts is None:
        every = [(lo, hi) for lo in range(1, count + 1) for hi in range(lo, count + 1)]
        cuts = cut_family(host) + _interval_cuts(every)
    table = bfs_distances(count, host.links.edges)
    neighbors = {lab: [] for lab in range(1, count + 1)}
    for a, b in host.links.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    routes = [
        (emb.label_for(u), emb.label_for(v),
         canonical_route(table, neighbors, emb.label_for(u), emb.label_for(v)))
        for u, v in guest_edges(guest)
    ]
    load = {edge: 0 for edge in host.links.edges}
    for _, _, path in routes:
        for edge in path:
            load[edge] += 1
    for edge, expected in load.items():
        assert edge_congestion(guest, host, emb, edge) == expected, edge
    assert wirelength_direct(guest, host, emb) == sum(load.values())

    seen = set()
    for cut in cuts:
        lo, hi = cut.component_lo, cut.component_hi
        boundary = {
            (a, b) for a, b in host.links.edges if (lo <= a <= hi) != (lo <= b <= hi)
        }
        inside_ok = crossings_ok = True
        crossing = 0
        for a, b, path in routes:
            hits = len(boundary.intersection(path))
            if (lo <= a <= hi) != (lo <= b <= hi):
                crossing += 1
                crossings_ok = crossings_ok and hits == 1
            else:
                inside_ok = inside_ok and hits == 0
        report = verify_cut_conditions(guest, host, emb, cut)
        assert (
            report.inside_avoids_cut, report.crossings_cross_once, report.lemma_value
        ) == (inside_ok, crossings_ok, crossing), (cut.family, cut.j, cut.i, lo, hi)
        seen.add((inside_ok, crossings_ok))
    return seen


def test_engine_matches_independent_route_oracle():
    # Every host shape up to n = 5 with the identity and a randomly swapped
    # embedding (at n = 5, one p per shape and the swapped embedding only),
    # every standard cut and every label interval cut out by its boundary.
    rng = random.Random(2019)
    for n in range(2, 6):
        for n1 in range(1, n + 1):
            for sibling in (False, True):
                ps = range(2, n + 1) if n < 5 else [rng.randrange(2, n + 1)]
                for p in ps:
                    guest = Guest(n, p)
                    host = HostTree(n1, 1 << (n - n1), sibling, rng.randrange(4) if sibling else 0)
                    emb = identity_embedding(guest, host)
                    if n < 5:
                        _check_against_route_oracle(guest, host, emb)
                    count = guest.vertex_count
                    for _ in range(3):
                        emb = emb.swapped(*rng.sample(range(1, count + 1), 2))
                    _check_against_route_oracle(guest, host, emb)


@pytest.mark.parametrize(
    "n, p, n1, sibling",
    [(7, 3, 2, False), (7, 2, 4, True), (8, 2, 4, False), (8, 2, 3, True)],
)
def test_engine_matches_route_oracle_at_n7_and_n8(n, p, n1, sibling):
    # 128 and 256 labels.  A swapped embedding and 20 random label
    # intervals, most of them not convex, so the flags come from the
    # same-side tally; the first half of the blocks, a chain cut's
    # component, keeps both flags.
    rng = random.Random(n * 10 + n1)
    guest = Guest(n, p)
    host = HostTree(n1, 1 << (n - n1), sibling, rng.randrange(4) if sibling else 0)
    count = host.vertex_count
    emb = identity_embedding(guest, host)
    for _ in range(3):
        emb = emb.swapped(*rng.sample(range(1, count + 1), 2))
    intervals = [tuple(sorted(rng.sample(range(1, count + 1), 2))) for _ in range(20)]
    intervals.append((1, count // 2))
    seen = _check_against_route_oracle(guest, host, emb, _interval_cuts(intervals))
    assert (False, False) in seen and (True, True) in seen


@pytest.mark.parametrize("n1, p", [(1, 2), (6, 4), (12, 6)])
@pytest.mark.parametrize("sibling, variant", [(False, 0), (True, 0), (True, 3)])
def test_engine_matches_closed_form_at_n12(n1, p, sibling, variant):
    # 4096 labels, past the CLI's engine cap; labels 1 and 4095 hold guest
    # vertices in different partite sets, so swapping them costs wirelength
    guest = Guest(12, p)
    host = HostTree(n1, 1 << (12 - n1), sibling, variant)
    emb = identity_embedding(guest, host)
    closed = closed_form_wirelength(12, p, n1=n1, sibling=sibling)
    assert wirelength_direct(guest, host, emb) == closed
    assert wirelength_via_partition(guest, host, emb) == closed
    assert wirelength_direct(guest, host, emb.swapped(1, 4095)) > closed


def test_build_report_leaves_no_instance_alive():
    guest = Guest(6, 3)
    host = HostTree(3, 8, False)
    build_report(guest, host, identity_embedding(guest, host))
    refs = [weakref.ref(guest), weakref.ref(host)]
    del guest, host
    assert [ref() for ref in refs] == [None, None]


def test_engine_never_materializes_the_guest():
    guest = Guest(3, 2)
    for host in (T31, ST31):
        identity = identity_embedding(guest, host)
        for emb in (identity, identity.swapped(1, 7)):
            build_report(guest, host, emb)
            # Every label interval's boundary: the non-convex ones need the
            # per-route hit count.
            for lo in range(1, 9):
                for hi in range(lo, 8):
                    cut = EdgeCut("X", None, 1, lo, hi)
                    verify_cut_conditions(guest, host, emb, cut)
        exhaustive_min_wirelength(guest, host)
        local_search_min(guest, host, seed=3, iterations=2)
    # the engine and both searches cache nothing on the guest
    assert vars(guest) == {"n": 3, "p": 2}
    # the alias perfbench/traced.py reads
    assert guest.graph.edge_count == guest.edge_count
    assert guest.graph.vertex_count == guest.vertex_count


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_partite_counts_match_the_edge_list(data):
    # random vertex sets that are not intervals, against the materialized edges
    n = data.draw(st.integers(2, 6))
    p = data.draw(st.integers(2, n))
    guest = Guest(n, p)
    chosen = data.draw(st.sets(st.integers(1, guest.vertex_count), min_size=2))
    assume(max(chosen) - min(chosen) >= len(chosen))
    edges = guest_edges(guest)
    induced = sum(1 for u, v in edges if u in chosen and v in chosen)
    leaving = sum(1 for u, v in edges if (u in chosen) != (v in chosen))
    assert congestion_lemma_value(guest, chosen) == leaving
    assert guest.induced_edge_count(chosen) == induced


def test_same_partite_swap_changes_nothing():
    # labels 1 and 5 sit in the same partite, so exchanging them is just a
    # guest relabeling: still optimal, still passing every check
    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31).swapped(1, 5)
    assert wirelength_direct(guest, T31, emb) == 54
    assert all(
        verify_cut_conditions(guest, T31, emb, cut).ok for cut in cut_family(T31)
    )


def test_cross_partite_swap_breaks_optimality():
    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31).swapped(1, 7)
    assert wirelength_direct(guest, T31, emb) == 58
    assert wirelength_via_partition(guest, T31, emb) == 58
    report = verify_cut_conditions(guest, T31, emb, _cut(T31, ("S", 2, 1)))
    # labels 1..3 now hold two vertices of one partite: not an optimal set
    assert not report.preimages_optimal
    assert not all(
        verify_cut_conditions(guest, T31, emb, cut).ok for cut in cut_family(T31)
    )


def test_partition_requires_full_coverage():
    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31)
    cuts = cut_family(T31)
    with pytest.raises(CoverageError):
        wirelength_via_partition(guest, T31, emb, cuts[1:])


def test_a_coverage_error_names_its_witness():
    # the standard family with one cut dropped, or one cut given twice: the
    # first host edge, in links.edges order, whose coverage differs from
    # the first edge's, with both coverages
    guest = Guest(3, 2)
    emb = identity_embedding(guest, ST31)
    cuts = cut_family(ST31)
    # every edge has coverage 2; the first two cuts hold the first two edges
    assert ST31.links.edges[:2] == ((1, 3), (2, 3))
    assert [cut_edges(ST31, c) for c in cuts[:2]] == [((1, 3), (1, 2)), ((2, 3), (1, 2))]
    for family, witness in (
        (cuts[1:], "(2, 3) has coverage 2 but host edge (1, 3) has 1"),
        (cuts[:1] + cuts[2:], "(2, 3) has coverage 1 but host edge (1, 3) has 2"),
        (cuts + cuts[:1], "(2, 3) has coverage 2 but host edge (1, 3) has 3"),
        (cuts + cuts[1:2], "(2, 3) has coverage 3 but host edge (1, 3) has 2"),
    ):
        with pytest.raises(CoverageError) as err:
            wirelength_via_partition(guest, ST31, emb, family)
        assert str(err.value) == (
            "cut family does not cover every host edge uniformly: host edge " + witness
        )
    with pytest.raises(CoverageError) as err:
        wirelength_via_partition(guest, ST31, emb, ())
    assert str(err.value) == "cut family covers no host edge"


def test_partition_matches_direct_for_any_embedding():
    guest = Guest(3, 2)
    for host in (T31, ST31, T22, ST22):
        for emb in (
            identity_embedding(guest, host),
            Embedding((8, 7, 6, 5, 4, 3, 2, 1)),
            Embedding((5, 3, 8, 1, 7, 2, 4, 6)),
        ):
            assert wirelength_via_partition(guest, host, emb) == wirelength_direct(
                guest, host, emb
            )


def test_partition_total_checks_coverage_not_routing():
    # the singletons t..t cover every host edge twice, once from each end,
    # and are no family of the paper's: the routed total still equals
    # direct, since any uniformly covering family counts each load c times
    rng = random.Random(29)
    for n, p in ((3, 2), (4, 2), (5, 3)):
        guest = Guest(n, p)
        for n1 in range(1, n + 1):
            for sibling, variant in [(False, 0)] + [(True, v) for v in LAYOUT_VARIANTS]:
                host = HostTree(n1, 1 << (n - n1), sibling, variant)
                count = host.vertex_count
                singletons = [EdgeCut("T", None, t, t, t) for t in range(1, count + 1)]
                for _ in range(2):
                    emb = Embedding(rng.sample(range(1, count + 1), count))
                    assert wirelength_via_partition(guest, host, emb, singletons) == (
                        wirelength_direct(guest, host, emb)
                    )


def test_within_partite_relabeling_keeps_wirelength():
    guest = Guest(3, 2)
    emb = identity_embedding(guest, T31)
    base = wirelength_direct(guest, T31, emb)
    for swap in ((1, 5), (2, 6), (3, 7), (4, 8)):
        emb = emb.swapped(*swap)
        assert wirelength_direct(guest, T31, emb) == base


def test_build_report_identity():
    guest = Guest(3, 2)
    report = build_report(guest, ST31, identity_embedding(guest, ST31))
    assert (report.n, report.p, report.n1, report.k) == (3, 2, 3, 1)
    assert report.host_kind == "sibling"
    assert report.direct == report.via_partition == report.closed_form == 45
    assert report.exhaustive_min is None
    assert report.cut_conditions_ok
    assert report.consistent
    assert len(report.per_cut) == len(cut_family(ST31))


def test_report_consistency_flags():
    guest = Guest(3, 2)
    report = build_report(guest, T31, identity_embedding(guest, T31))
    assert report.consistent
    assert report._replace(exhaustive_min=report.direct).consistent
    assert not report._replace(exhaustive_min=report.direct - 1).consistent
    assert report._replace(local_search_min=report.closed_form + 2).consistent
    assert not report._replace(local_search_min=report.closed_form - 1).consistent

    broken = build_report(guest, T31, identity_embedding(guest, T31).swapped(1, 7))
    assert broken.direct == 58
    assert not broken.cut_conditions_ok
    assert not broken.consistent


def test_report_dict_layout():
    guest = Guest(3, 2)
    report = build_report(guest, T31, identity_embedding(guest, T31))
    data = report.to_dict()
    assert list(data) == [
        "schema",
        "n",
        "p",
        "n1",
        "k",
        "host_kind",
        "direct",
        "via_partition",
        "closed_form",
        "cut_conditions_ok",
        "per_cut",
    ]
    assert data["schema"] == 1
    assert data["per_cut"][0] == {"family": "S", "j": 1, "i": 1, "ec": 6}

    full = build_report(
        guest,
        T31,
        identity_embedding(guest, T31),
        exhaustive_min=54,
        local_search_min=54,
    )
    data = full.to_dict()
    assert list(data)[9:11] == ["exhaustive_min", "local_search_min"]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_partition_agrees_with_direct_everywhere(data):
    n = data.draw(st.integers(2, 3))
    p = data.draw(st.integers(2, n))
    n1 = data.draw(st.integers(1, n))
    sibling = data.draw(st.booleans())
    guest = Guest(n, p)
    host = HostTree(n1, 1 << (n - n1), sibling)
    labels = data.draw(st.permutations(range(1, guest.vertex_count + 1)))
    emb = Embedding(tuple(labels))
    assert wirelength_via_partition(guest, host, emb) == wirelength_direct(
        guest, host, emb
    )
