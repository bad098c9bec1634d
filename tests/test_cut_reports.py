"""Cut reports read off the subtree pass, and the batched edge-boundary
check, against the label-by-label oracle."""

import random

import pytest

from oracles import check_boundary, cut_report, per_goal_tally
from treebed import (
    LAYOUT_VARIANTS,
    EdgeCut,
    build_guest,
    build_host,
    CutReport,
    build_report,
    cut_congestion,
    cut_family,
    identity_embedding,
    inorder_labeling,
    max_subgraph_edges_closed_form,
    sibling_layout_labeling,
    verify_cut_conditions,
    wirelength_via_partition,
)
from treebed.embedding import _cut_reports, _tally


def _labeled(n, n1, kind, variant=0):
    host = build_host(n1, 1 << (n - n1), sibling=kind == "sibling")
    if kind == "sibling":
        return sibling_layout_labeling(host, variant)
    return inorder_labeling(host)


def _shapes(n, p_values):
    for p in p_values:
        for n1 in range(1, n + 1):
            yield p, n1, "binary", 0
            for variant in LAYOUT_VARIANTS:
                yield p, n1, "sibling", variant


def _embeddings(guest, host, rng):
    """The identity, then one, two and three random swaps on top of it."""
    emb = identity_embedding(guest, host)
    yield emb
    for _ in range(3):
        emb = emb.swapped(*rng.sample(range(1, host.vertex_count + 1), 2))
        yield emb


def _interval_cut(host, lo, hi):
    """The label interval ``lo..hi`` cut out by its edge boundary."""
    boundary = frozenset(
        (a, b) for a, b in host.label_edges if (lo <= a <= hi) != (lo <= b <= hi)
    )
    return EdgeCut("X", None, 1, boundary, lo, hi)


def _intervals(count, rng, every):
    """Every interval when ``every``; else the halves, a centred half, every
    prefix and suffix (whose complements are often subtrees) and a few
    random intervals."""
    if every:
        return [(lo, hi) for lo in range(1, count + 1) for hi in range(lo, count + 1)]
    half, step = count // 2, max(3, count // 8)
    spans = [(1, half), (half + 1, count), (half // 2 + 1, half // 2 + half)]
    spans += [(1, x) for x in range(1, count + 1, step)]
    spans += [(x, count) for x in range(2, count + 1, step)]
    spans += [tuple(sorted(rng.sample(range(1, count + 1), 2))) for _ in range(4)]
    return spans


def _check_reports(guest, host, emb, cuts):
    """``_cut_reports`` on the batch, and ``verify_cut_conditions`` on each
    cut alone, against the oracle."""
    links = host.links
    load = per_goal_tally(links, emb.assignment, guest.part_count)

    def max_induced(s):
        return max_subgraph_edges_closed_form(guest.part_count, guest.part_size, s)

    got = _cut_reports(guest, host, _tally(guest, host, emb), cuts)
    for cut, report in zip(cuts, got):
        expected = cut_report(
            links, host.label_edges, emb.assignment, guest.part_count, cut,
            max_induced, load,
        )
        where = (host.kind, host.n1, cut.family, cut.j, cut.i, cut.component_lo,
                 cut.component_hi)
        assert tuple(report) == expected, where
        assert verify_cut_conditions(guest, host, emb, cut) == report, where
    return got


def _check_build_report(guest, host, emb):
    """``build_report`` against the public calls that take an ``EdgeCut``,
    cut by cut over the standard family."""
    report = build_report(guest, host, emb)
    family = cut_family(host)
    assert len(report.per_cut) == len(report.cut_conditions) == len(family)
    for cut, per_cut, conditions in zip(family, report.per_cut, report.cut_conditions):
        where = (host.kind, host.n1, cut.family, cut.j, cut.i)
        ec = cut_congestion(guest, host, emb, cut)
        assert per_cut == CutReport(cut.family, cut.j, cut.i, ec), where
        assert conditions == verify_cut_conditions(guest, host, emb, cut), where
    assert report.via_partition == wirelength_via_partition(guest, host, emb, family)


def test_cut_reports_match_oracle_up_to_n6():
    # every n <= 6 shape for p = 2, and for p = n up to n = 5, both kinds,
    # every variant, identity and three swaps; the standard cuts, then every
    # interval for n <= 3 and a sample of intervals above; and the report
    # build_report makes from the standard cuts against the public per-cut
    # calls
    rng = random.Random(12)
    seen = set()
    instances = 0
    for n in range(2, 7):
        count = 1 << n
        for p, n1, kind, variant in _shapes(n, sorted({2, n if n < 6 else 2})):
            guest = build_guest(n, p)
            host = _labeled(n, n1, kind, variant)
            for emb in _embeddings(guest, host, rng):
                intervals = _intervals(count, rng, every=n <= 3)
                cuts = cut_family(host) + tuple(
                    _interval_cut(host, lo, hi) for lo, hi in intervals
                )
                for report in _check_reports(guest, host, emb, cuts):
                    seen.add(tuple(report)[:3])
                _check_build_report(guest, host, emb)
                instances += 1
    assert instances == 640
    # both route flags fail somewhere, and so does optimality
    assert {(False, False, False), (True, True, False), (True, True, True)} <= seen


@pytest.mark.parametrize(
    "n, p, n1, kind, variant",
    [
        (7, 2, 1, "binary", 0),
        (7, 7, 7, "sibling", 1),
        (8, 3, 2, "sibling", 3),
        (8, 8, 8, "binary", 0),
        (8, 2, 4, "sibling", 2),
        (8, 4, 1, "sibling", 0),
    ],
)
def test_cut_reports_match_oracle_at_n7_and_n8(n, p, n1, kind, variant):
    # the standard cuts, both halves, a centred half, a few prefixes and
    # suffixes and one random interval
    rng = random.Random(n * 100 + n1)
    guest = build_guest(n, p)
    host = _labeled(n, n1, kind, variant)
    count = 1 << n
    half = count // 2
    intervals = [(1, half), (half + 1, count), (half // 2 + 1, half // 2 + half),
                 (1, 3), (1, count - 5), (7, count), (count - 2, count)]
    intervals.append(tuple(sorted(rng.sample(range(1, count + 1), 2))))
    cuts = cut_family(host) + tuple(_interval_cut(host, lo, hi) for lo, hi in intervals)
    for emb in _embeddings(guest, host, rng):
        _check_reports(guest, host, emb, cuts)


def _message(check, *args):
    with pytest.raises(ValueError) as info:
        check(*args)
    return str(info.value)


def _broken_cuts(host, cut, rng):
    """The cut with an edge dropped, a host edge added, the label pair
    ``(1, count)`` added (a host edge only on the smallest hosts), an edge
    traded for a label pair across the interval that is no host edge, its
    interval moved, and intervals out of range."""
    count = host.vertex_count
    lo, hi = cut.component_lo, cut.component_hi
    edges = sorted(cut.cut_edges)
    others = sorted(host.label_edges - cut.cut_edges)
    across = [
        (min(a, b), max(a, b))
        for a in range(lo, hi + 1)
        for b in (*range(1, lo), *range(hi + 1, count + 1))
        if (min(a, b), max(a, b)) not in host.label_edges
    ]
    bad = [
        cut._replace(cut_edges=frozenset(edges[1:])),
        cut._replace(cut_edges=cut.cut_edges | {rng.choice(others)}),
        cut._replace(cut_edges=cut.cut_edges | {(1, count)}),
        cut._replace(cut_edges=frozenset(edges[1:]) | {rng.choice(across)}),
        cut._replace(component_lo=lo + 1) if lo < hi else cut._replace(component_hi=hi + 1),
        cut._replace(component_lo=lo - 1) if lo > 1 else cut._replace(component_hi=hi - 1),
        cut._replace(component_lo=0),
        cut._replace(component_hi=count + 1),
        cut._replace(component_lo=hi + 1, component_hi=hi),
    ]
    return [c for c in bad if c != cut]


def test_broken_cuts_raise_the_oracles_message():
    rng = random.Random(5)
    raised = 0
    for n in range(2, 7):
        for p, n1, kind, variant in _shapes(n, [2]):
            guest = build_guest(n, p)
            host = _labeled(n, n1, kind, variant)
            emb = identity_embedding(guest, host)
            count = host.vertex_count
            for cut in rng.sample(cut_family(host), min(4, len(cut_family(host)))):
                for bad in _broken_cuts(host, cut, rng):
                    try:
                        check_boundary(host.label_edges, count, bad)
                    except ValueError as exc:
                        expected = str(exc)
                    else:
                        # the moved interval happens to have the same boundary
                        assert verify_cut_conditions(guest, host, emb, bad)
                        continue
                    got = _message(verify_cut_conditions, guest, host, emb, bad)
                    assert got == expected, (bad.component_lo, bad.component_hi)
                    raised += 1
    assert raised > 1000


def test_standard_cuts_are_read_off_the_pass():
    # every standard cut's component, or the complement of a prefix one, is
    # a subtree or sibling union the pass recorded, so no cut scans labels
    seen = 0
    for n in range(2, 8):
        for _, n1, kind, variant in _shapes(n, [2]):
            guest = build_guest(n, 2)
            host = _labeled(n, n1, kind, variant)
            squares = _tally(guest, host, identity_embedding(guest, host)).squares
            count = host.vertex_count
            for cut in cut_family(host):
                lo, hi = cut.component_lo, cut.component_hi
                assert (lo, hi) in squares or (lo == 1 and (hi + 1, count) in squares)
                seen += 1
    assert seen > 5000


def test_a_batch_raises_for_its_first_broken_cut():
    guest = build_guest(4, 2)
    host = _labeled(4, 2, "sibling", 1)
    tally = _tally(guest, host, identity_embedding(guest, host))
    cuts = cut_family(host)
    dropped = cuts[3]._replace(cut_edges=frozenset(sorted(cuts[3].cut_edges)[1:]))
    outside = cuts[5]._replace(component_lo=0)
    lo, hi = dropped.component_lo, dropped.component_hi
    for batch, message in (
        ((cuts[0], dropped, cuts[1], outside),
         f"cut edges are not the edge boundary of labels {lo}..{hi}"),
        ((cuts[0], outside, cuts[1], dropped),
         f"cut component 0..{outside.component_hi} is not inside 1..16"),
    ):
        assert _message(_cut_reports, guest, host, tally, batch) == message
    assert all(r.ok for r in _cut_reports(guest, host, tally, cuts))


def test_reversed_cut_edges_give_the_same_results():
    # a cut edge may be written (b, a) for host edge (a, b), as
    # cut_congestion already takes it
    rng = random.Random(11)
    for n, p, n1, kind, variant in [
        (3, 2, 2, "binary", 0), (3, 2, 3, "sibling", 0),
        (4, 2, 2, "sibling", 1), (4, 3, 1, "binary", 0), (5, 2, 3, "sibling", 3),
    ]:
        guest = build_guest(n, p)
        host = _labeled(n, n1, kind, variant)
        for emb in _embeddings(guest, host, rng):
            cuts = cut_family(host)
            flipped = [
                c._replace(cut_edges=frozenset((b, a) for a, b in c.cut_edges))
                for c in cuts
            ]
            for cut, rev in zip(cuts, flipped):
                assert verify_cut_conditions(
                    guest, host, emb, rev
                ) == verify_cut_conditions(guest, host, emb, cut)
                assert cut_congestion(guest, host, emb, rev) == cut_congestion(
                    guest, host, emb, cut
                )
            assert wirelength_via_partition(
                guest, host, emb, tuple(flipped)
            ) == wirelength_via_partition(guest, host, emb, cuts)
    # the error names the pair that is no host edge, not a reversed one
    guest = build_guest(3, 2)
    host = _labeled(3, 2, "binary")
    emb = identity_embedding(guest, host)
    cut = cut_family(host)[0]
    for a, b in host.label_edges:
        bad = cut._replace(cut_edges=frozenset({(b, a), (1, 8)}))
        message = _message(wirelength_via_partition, guest, host, emb, (bad,))
        assert message == "cut edge (1, 8) is not a host edge"
        # an iterator of cuts is read once, and refused the same way
        message = _message(wirelength_via_partition, guest, host, emb, iter((bad,)))
        assert message == "cut edge (1, 8) is not a host edge"
        message = _message(cut_congestion, guest, host, emb, bad)
        assert message == "cut edge (1, 8) is not a host edge"
    # an edge listed twice, once reversed, stands in for no other boundary
    # edge, nor is its load counted twice
    host = _labeled(3, 3, "sibling")
    emb = identity_embedding(guest, host)
    cuts = cut_family(host)
    for place, cut in enumerate(cuts):
        if len(cut.cut_edges) != 2:
            continue
        for a, b in cut.cut_edges:
            bad = cut._replace(cut_edges=frozenset({(a, b), (b, a)}))
            message = _message(verify_cut_conditions, guest, host, emb, bad)
            lo, hi = cut.component_lo, cut.component_hi
            assert message == f"cut edges are not the edge boundary of labels {lo}..{hi}"
            family = cuts[:place] + (bad,) + cuts[place + 1:]
            message = _message(wirelength_via_partition, guest, host, emb, family)
            assert message.endswith("repeats an edge of its cut")
            assert message == _message(
                wirelength_via_partition, guest, host, emb, iter(family)
            )
            message = _message(cut_congestion, guest, host, emb, bad)
            assert message.endswith("repeats an edge of its cut")


@pytest.mark.parametrize("n1, p, kind", [(1, 2, "binary"), (14, 4, "sibling")])
def test_build_report_at_n14(n1, p, kind):
    # 16384 labels, past the CLI's engine cap: a chain of 8192 one-level
    # blocks, and a single sibling tree
    guest = build_guest(14, p)
    host = _labeled(14, n1, kind)
    report = build_report(guest, host, identity_embedding(guest, host))
    assert report.direct == report.via_partition == report.closed_form
    assert report.cut_conditions_ok
