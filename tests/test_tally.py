"""The subtree tally and the label-space host and cut family, against the slow oracles."""

import random

import pytest

from oracles import heap_cut_family, heap_host, per_goal_tally
from treebed import (
    LAYOUT_VARIANTS,
    Embedding,
    Guest,
    HostTree,
    cut_edges,
    cut_family,
    identity_embedding,
)
from treebed.embedding import _loads, _tally
from treebed.hosts import _standard_cuts


def _hosts(n1, k):
    yield HostTree(n1, k, False)
    for variant in LAYOUT_VARIANTS:
        yield HostTree(n1, k, True, variant)


def _random_embedding(count, rng):
    labels = list(range(1, count + 1))
    rng.shuffle(labels)
    return Embedding(tuple(labels))


def _check_tally(guest, host, embedding, sides=()):
    """The subtree tally against the oracle, over every label, and then
    ``_loads`` over the labels inside and outside each ``(lo, hi)``
    interval of ``sides``."""
    partite_at, load = _tally(guest, host, embedding)
    assert load == per_goal_tally(host.links, embedding.assignment, guest.part_count)
    count = host.vertex_count
    for lo, hi in sides:
        groups = (range(lo, hi + 1), [*range(1, lo), *range(hi + 1, count + 1)])
        load = _loads(host.links, partite_at, groups)
        expected = per_goal_tally(
            host.links, embedding.assignment, guest.part_count, (lo, hi)
        )
        assert load == expected, (lo, hi)


def _random_sides(count, rng, how_many=3):
    return [tuple(sorted(rng.sample(range(1, count + 1), 2))) for _ in range(how_many)]


def test_subtree_tally_matches_per_goal_sweep():
    # every shape with n <= 6, both kinds, all variants; the sided tallies
    # on a few random intervals and on every label
    rng = random.Random(8)
    side_rng = random.Random(9)
    seen = 0
    for n in range(2, 7):
        for p in range(2, n + 1):
            guest = Guest(n, p)
            for n1 in range(1, n + 1):
                for host in _hosts(n1, 1 << (n - n1)):
                    sides = _random_sides(1 << n, side_rng) + [(1, 1 << n)]
                    _check_tally(guest, host, identity_embedding(guest, host), sides)
                    _check_tally(guest, host, _random_embedding(1 << n, rng), sides)
                    seen += 1
    assert seen == 350


@pytest.mark.parametrize(
    "n, p, n1, kind",
    [(7, 2, 3, "binary"), (7, 7, 7, "sibling"), (8, 3, 1, "sibling"), (8, 8, 5, "binary")],
)
def test_subtree_tally_at_n7_and_n8(n, p, n1, kind):
    # 128 and 256 labels; the sided tallies on five fixed intervals and two
    # random ones
    guest = Guest(n, p)
    count = 1 << n
    sibling = kind == "sibling"
    host = HostTree(n1, 1 << (n - n1), sibling, 2 if sibling else 0)
    rng = random.Random(n1)
    shuffled = _random_embedding(count, rng)
    sides = [(1, 40), (30, 100), (70, 90), (100, count - 3), (count - 20, count)]
    sides += _random_sides(count, rng, 2)
    _check_tally(guest, host, identity_embedding(guest, host), sides)
    _check_tally(guest, host, shuffled, sides)


def test_links_match_heap_host():
    seen = 0
    for n1 in range(1, 7):
        for k in range(1, 5):
            for host in _hosts(n1, k):
                edges, label_of, up, sib = heap_host(n1, k, host.sibling, host.layout)
                assert sorted(host.links.edges) == sorted(edges)
                assert host.links.up == up and host.links.sib == sib
                assert host.label_of == label_of
                seen += 1
    assert seen == 120


def test_cut_family_matches_heap_construction():
    # each cut's interval, the edges cut_edges derives from it, and the
    # edges the report records read off the links
    seen = 0
    for n1 in range(1, 7):
        for k in range(1, 5):
            for host in _hosts(n1, k):
                expected = heap_cut_family(host)
                assert expected is not None
                got = [(*c, frozenset(cut_edges(host, c))) for c in cut_family(host)]
                assert got == expected
                edges = host.links.edges
                records = [
                    (*r[:6], frozenset(edges[x] for x in r[6])) for r in _standard_cuts(host)
                ]
                assert records == expected
                seen += 1
    assert seen == 120

