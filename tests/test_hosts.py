from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebed import (
    LAYOUT_VARIANTS,
    HostTree,
    build_host,
    cut_family,
    inorder_labeling,
    sibling_layout_labeling,
)
from treebed.embedding import _check_boundaries
from treebed.hosts import _standard_cuts, host_counts


def _cut_index(host):
    return {(c.family, c.j, c.i): c for c in cut_family(host)}


def _labeled(host):
    return sibling_layout_labeling(host) if host.sibling else inorder_labeling(host)


def _level_counts(host):
    """Labels per level, found by climbing the links: a pendant is a
    block-last label at level 0, and every other label sits one level below
    the label it hangs from."""
    block = 1 << host.n1
    up = host.links.up
    levels = Counter()
    for t in range(1, host.vertex_count + 1):
        level = 0
        while t % block:
            t = up[t]
            level += 1
        levels[level] += 1
    return dict(levels)


def test_build_host_small_shapes():
    h = build_host(2, 1)
    assert h == HostTree(2, 1, False)
    assert h.vertex_count == 4
    assert h.kind == "binary"
    assert len(inorder_labeling(h).label_edges) == 3

    h = build_host(4, 1)
    assert h.vertex_count == 16
    assert len(inorder_labeling(h).label_edges) == 15

    h = build_host(2, 2, sibling=True)
    assert h.vertex_count == 8
    assert h.kind == "sibling"
    links = sibling_layout_labeling(h).links
    # per block: 3 tree edges + 1 sibling edge; plus 1 chain edge
    assert len(links.edges) == 9
    # the second pendant hangs from the first, which hangs from nothing
    assert (links.up[8], links.up[4]) == (4, 0)
    assert {(a, b) for a, b in enumerate(links.sib) if a < b} == {(1, 2), (5, 6)}


def test_build_host_validation():
    with pytest.raises(ValueError):
        build_host(0, 1)
    with pytest.raises(ValueError):
        build_host(2, 0)
    with pytest.raises(ValueError):
        build_host(19, 4)


def test_host_edge_and_level_counts():
    for n1 in range(1, 6):
        for k in range(1, 5):
            for sibling in (False, True):
                host = _labeled(build_host(n1, k, sibling=sibling))
                block_edges = (1 << n1) - 1
                if sibling:
                    block_edges += (1 << (n1 - 1)) - 1
                assert len(host.label_edges) == k * block_edges + (k - 1)
                levels = _level_counts(host)
                assert levels[0] == k
                for lvl in range(1, n1 + 1):
                    assert levels[lvl] == k * (1 << (lvl - 1))


def test_host_counts_match_built_hosts():
    for n1 in range(1, 9):
        for k in range(1, 5):
            for sibling in (False, True):
                host = _labeled(build_host(n1, k, sibling=sibling))
                assert host_counts(n1, k, sibling) == {
                    "vertex_count": host.vertex_count,
                    "edge_count": len(host.label_edges),
                    "sibling_edge_count": sum(map(bool, host.links.sib)) // 2,
                    "level_counts": _level_counts(host),
                }
    with pytest.raises(ValueError, match="n1 must be at least 1"):
        host_counts(0, 1)
    with pytest.raises(ValueError, match="exceeds the supported 2\\*\\*20"):
        host_counts(19, 4)


def test_blocks_only_touch_through_the_chain():
    for host in (inorder_labeling(build_host(3, 3)),
                 sibling_layout_labeling(build_host(3, 3, sibling=True), 2)):
        block = 1 << 3
        for a, b in host.label_edges:
            if (a - 1) // block != (b - 1) // block:
                # only pendants, the block-last labels, join blocks
                assert a % block == 0 and b % block == 0


def test_inorder_labels_single_block():
    host = inorder_labeling(build_host(2, 1))
    # ids: root 1, leaves 2 and 3, pendant 4; inorder puts the root between
    # its leaves and the pendant last
    assert host.label_of == {2: 1, 1: 2, 3: 3, 4: 4}
    assert host.layout == (2, 1, 3)
    assert inorder_labeling(build_host(3, 1)).layout == (4, 2, 5, 1, 6, 3, 7)


def test_host_tree_refuses_a_variant_its_kind_lacks():
    assert HostTree(3, 1, False, 0).layout == (4, 2, 5, 1, 6, 3, 7)
    assert HostTree(3, 1, True, 3).layout == (1, 3, 7, 6, 2, 5, 4)
    for variant in (1, 2, -1):
        with pytest.raises(ValueError, match=f"binary hosts have only variant 0, got {variant}"):
            HostTree(3, 1, False, variant)
    for variant in (4, -1):
        with pytest.raises(ValueError, match=rf"variant must be one of \(0, 1, 2, 3\), got {variant}"):
            HostTree(3, 1, True, variant)


def test_inorder_labels_second_block_mirrors_first():
    host = inorder_labeling(build_host(2, 2))
    assert host.label_of[2] == 1 and host.label_of[6] == 5
    assert host.label_of[1] == 2 and host.label_of[5] == 6
    assert host.label_of[4] == 4 and host.label_of[8] == 8


def test_inorder_subtree_intervals():
    host = inorder_labeling(build_host(4, 1))
    cuts = _cut_index(host)
    assert cuts[("S", 2, 1)].component_labels == range(1, 4)
    for cut in cut_family(host):
        if cut.family == "S":
            width = (1 << cut.j) - 1
            expected_lo = ((cut.i - 1) << cut.j) + 1
            assert cut.component_lo == expected_lo
            assert cut.component_hi - cut.component_lo + 1 == width


def test_labeling_kind_checks():
    with pytest.raises(ValueError):
        inorder_labeling(build_host(2, 1, sibling=True))
    with pytest.raises(ValueError):
        sibling_layout_labeling(build_host(2, 1))
    with pytest.raises(ValueError):
        sibling_layout_labeling(build_host(2, 1, sibling=True), variant=4)


def test_sibling_layout_canonical_labels():
    host = sibling_layout_labeling(build_host(2, 1, sibling=True))
    assert host.label_of == {2: 1, 3: 2, 1: 3, 4: 4}

    host = sibling_layout_labeling(build_host(3, 1, sibling=True))
    assert host.label_of == {4: 1, 5: 2, 2: 3, 6: 4, 7: 5, 3: 6, 1: 7, 8: 8}
    # every variant's block layout
    layouts = [sibling_layout_labeling(host, v).layout for v in LAYOUT_VARIANTS]
    assert layouts == [
        (4, 5, 2, 6, 7, 3, 1),
        (7, 6, 3, 5, 4, 2, 1),
        (1, 2, 4, 5, 3, 6, 7),
        (1, 3, 7, 6, 2, 5, 4),
    ]


def test_sibling_layout_variants_relabel_but_keep_blocks():
    base = build_host(3, 2, sibling=True)
    block = 1 << 3
    seen = []
    for variant in LAYOUT_VARIANTS:
        host = sibling_layout_labeling(base, variant)
        for s in range(host.k):
            ids = range(s * block + 1, (s + 1) * block + 1)
            assert sorted(host.label_of[v] for v in ids) == list(ids)
        # pendant is always the last label of its block
        assert host.label_of[block] == block
        seen.append(tuple(sorted(host.label_of.items())))
    assert len(set(seen)) == len(LAYOUT_VARIANTS)


def test_cut_family_plain_single_block():
    host = inorder_labeling(build_host(3, 1))
    cuts = cut_family(host)
    assert len(cuts) == 7
    assert all(c.family == "S" for c in cuts)
    assert all(len(c.cut_edges) == 1 for c in cuts)
    assert Counter(c.j for c in cuts) == {1: 4, 2: 2, 3: 1}
    coverage = Counter(e for c in cuts for e in c.cut_edges)
    assert set(coverage.values()) == {1}
    assert set(coverage) == set(host.label_edges)


def test_cut_family_sibling_single_block():
    host = sibling_layout_labeling(build_host(3, 1, sibling=True))
    cuts = cut_family(host)
    spans = sorted((c.component_lo, c.component_hi) for c in cuts)
    assert spans == [
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 6),
        (1, 7),
        (1, 7),
        (2, 2),
        (4, 4),
        (4, 5),
        (4, 6),
        (5, 5),
    ]
    index = {(c.family, c.j, c.i): c for c in cuts}
    assert index[("S", 2, 1)].cut_edges == frozenset({(3, 7), (3, 6)})
    assert index[("SS", 2, 1)].cut_edges == frozenset({(3, 7), (6, 7)})
    # pendant edge: once from the deepest S cut, once from its duplicate
    assert index[("S", 3, 1)].cut_edges == index[("SS", 3, 1)].cut_edges == frozenset(
        {(7, 8)}
    )


def test_cut_family_coverage_is_uniform():
    for n1 in range(1, 5):
        for k in range(1, 4):
            for sibling in (False, True):
                host = build_host(n1, k, sibling=sibling)
                host = (
                    sibling_layout_labeling(host) if sibling else inorder_labeling(host)
                )
                coverage = Counter()
                for cut in cut_family(host):
                    for edge in cut.cut_edges:
                        coverage[edge] += cut.multiplicity_share
                expected = 2 if sibling else 1
                assert set(coverage) == set(host.label_edges)
                assert set(coverage.values()) == {expected}


def test_cut_component_sizes_follow_families():
    host = sibling_layout_labeling(build_host(4, 3, sibling=True))
    for cut in cut_family(host):
        size = cut.component_hi - cut.component_lo + 1
        if cut.family == "S":
            assert size == (1 << cut.j) - 1
        elif cut.family == "SS" and cut.j < host.n1:
            assert size == 2 * ((1 << cut.j) - 1)
        elif cut.family == "SS":
            assert size == (1 << host.n1) - 1
        else:
            assert cut.family == "ROOT" and cut.j is None
            assert size == cut.i * (1 << host.n1)


def test_chain_cuts():
    host = inorder_labeling(build_host(2, 2))
    cuts = _cut_index(host)
    root = cuts[("ROOT", None, 1)]
    assert root.cut_edges == frozenset({(4, 8)})
    assert root.component_labels == range(1, 5)
    assert root.multiplicity_share == 1

    host = sibling_layout_labeling(build_host(2, 2, sibling=True))
    root = _cut_index(host)[("ROOT", None, 1)]
    assert root.multiplicity_share == 2


def test_every_cut_splits_host_in_two():
    hosts = [
        inorder_labeling(build_host(3, 2)),
        sibling_layout_labeling(build_host(3, 2, sibling=True)),
        sibling_layout_labeling(build_host(2, 3, sibling=True), variant=2),
    ]
    for host in hosts:
        adjacency = {lab: set() for lab in range(1, host.vertex_count + 1)}
        for a, b in host.label_edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for cut in cut_family(host):
            for a, b in cut.cut_edges:
                adjacency[a].discard(b)
                adjacency[b].discard(a)
            component = set()
            frontier = [cut.component_lo]
            while frontier:
                lab = frontier.pop()
                if lab in component:
                    continue
                component.add(lab)
                frontier.extend(adjacency[lab])
            assert component == set(cut.component_labels)
            for a, b in cut.cut_edges:
                adjacency[a].add(b)
                adjacency[b].add(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n1=st.integers(1, 5),
    k=st.integers(1, 4),
    sibling=st.booleans(),
    variant=st.sampled_from(LAYOUT_VARIANTS),
)
def test_labelings_are_block_bijections(n1, k, sibling, variant):
    host = build_host(n1, k, sibling=sibling)
    host = (
        sibling_layout_labeling(host, variant) if sibling else inorder_labeling(host)
    )
    block = 1 << n1
    for s in range(k):
        ids = range(s * block + 1, (s + 1) * block + 1)
        assert sorted(host.label_of[v] for v in ids) == list(ids)
        assert host.label_of[(s + 1) * block] == (s + 1) * block


def test_standard_cuts_are_interval_boundaries():
    # Every cut's edges are the whole edge boundary of its label interval,
    # for every labeling a host can have.
    for n1 in range(1, 13):
        for k in (1, 2, 3):
            for sibling, variant in [(False, 0)] + [(True, v) for v in LAYOUT_VARIANTS]:
                host = HostTree(n1, k, sibling, variant)
                _check_boundaries(host.links, host.vertex_count, _standard_cuts(host))
