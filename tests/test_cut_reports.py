"""Cut reports read off the subtree pass, against the label-by-label
oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cut_boundary, cut_report, per_goal_tally
from treebed import (
    LAYOUT_VARIANTS,
    EdgeCut,
    Embedding,
    Guest,
    HostTree,
    CutReport,
    build_report,
    congestion_lemma_value,
    cut_congestion,
    cut_family,
    identity_embedding,
    interval_boundary_congestion,
    max_subgraph_edges_closed_form,
    verify_cut_conditions,
    wirelength_via_partition,
)
from treebed import hosts
from treebed.embedding import _leaving, _records, _reports, _tally
from treebed.errors import ConsistencyError


def _host(n, n1, kind, variant=0):
    return HostTree(n1, 1 << (n - n1), kind == "sibling", variant)


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


def _batch(guest, host, tally, cuts):
    """The condition reports of a batch of ``EdgeCut``s, in one call, from
    ``tally``, the instance's ``(partite_at, load)``."""
    return _reports(guest, host, *tally, _records(host, cuts))[1]


def _check_reports(guest, host, emb, cuts):
    """The reports of the batch, and ``verify_cut_conditions`` on each cut
    alone, against the oracle."""
    links = host.links
    load = per_goal_tally(links, emb.assignment, guest.part_count)

    def max_induced(s):
        return max_subgraph_edges_closed_form(guest.part_count, guest.part_size, s)

    got = _batch(guest, host, _tally(guest, host, emb), cuts)
    for cut, report in zip(cuts, got):
        expected = cut_report(
            links, host.links.edges, emb.assignment, guest.part_count, cut,
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
            guest = Guest(n, p)
            host = _host(n, n1, kind, variant)
            for emb in _embeddings(guest, host, rng):
                intervals = _intervals(count, rng, every=n <= 3)
                cuts = cut_family(host) + tuple(
                    EdgeCut("X", None, 1, lo, hi) for lo, hi in intervals
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
    guest = Guest(n, p)
    host = _host(n, n1, kind, variant)
    count = 1 << n
    half = count // 2
    intervals = [(1, half), (half + 1, count), (half // 2 + 1, half // 2 + half),
                 (1, 3), (1, count - 5), (7, count), (count - 2, count)]
    intervals.append(tuple(sorted(rng.sample(range(1, count + 1), 2))))
    cuts = cut_family(host) + tuple(EdgeCut("X", None, 1, lo, hi) for lo, hi in intervals)
    for emb in _embeddings(guest, host, rng):
        _check_reports(guest, host, emb, cuts)


def _message(check, *args):
    with pytest.raises(ValueError) as info:
        check(*args)
    return str(info.value)


def _broken_cuts(host, cut):
    """The cut with its interval moved, and with intervals out of range."""
    count = host.vertex_count
    lo, hi = cut.component_lo, cut.component_hi
    bad = [
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
            guest = Guest(n, p)
            host = _host(n, n1, kind, variant)
            emb = identity_embedding(guest, host)
            count = host.vertex_count
            for cut in rng.sample(cut_family(host), min(4, len(cut_family(host)))):
                for bad in _broken_cuts(host, cut):
                    try:
                        cut_boundary(host.links.edges, count, bad)
                    except ValueError as exc:
                        expected = str(exc)
                    else:
                        # a moved interval inside the host is a cut of its own
                        assert verify_cut_conditions(guest, host, emb, bad)
                        continue
                    got = _message(verify_cut_conditions, guest, host, emb, bad)
                    assert got == expected, (bad.component_lo, bad.component_hi)
                    raised += 1
    assert raised > 1000


def _caller_intervals(count, rng):
    """``1..count``, then two random prefixes, suffixes and interior
    intervals."""
    spans = [(1, count)]
    for _ in range(2):
        x = rng.randrange(1, count)
        spans += [(1, x), (x + 1, count)]
        spans.append(tuple(sorted(rng.sample(range(2, count), 2))))
    return spans


def test_leaving_counts_each_preimage():
    # every standard cut of every n <= 7 shape, kind and variant, and
    # random caller intervals, on the identity and a random embedding:
    # _leaving's count against the guest edges leaving the preimage
    rng = random.Random(27)
    seen = 0
    for n in range(2, 8):
        count = 1 << n
        for p, n1, kind, variant in _shapes(n, range(2, n + 1)):
            guest = Guest(n, p)
            host = _host(n, n1, kind, variant)
            spans = _caller_intervals(count, rng)
            callers = _records(host, [EdgeCut("X", None, 1, lo, hi) for lo, hi in spans])
            shuffled = list(range(1, count + 1))
            rng.shuffle(shuffled)
            for assignment in (range(1, count + 1), shuffled):
                partite_at, vertex_at = [0] * (count + 1), [0] * (count + 1)
                for m, lab in enumerate(assignment, start=1):
                    partite_at[lab], vertex_at[lab] = guest.partite_of(m), m
                cuts = host.cuts + tuple(callers)
                for cut, got in zip(cuts, _leaving(guest, partite_at, cuts)):
                    lo, hi = cut[3:5]
                    assert got == congestion_lemma_value(guest, vertex_at[lo:hi + 1]), cut[:5]
                    seen += 1
    assert seen > 100000


def test_a_batch_raises_for_its_first_broken_cut():
    guest = Guest(4, 2)
    host = _host(4, 2, "sibling", 1)
    tally = _tally(guest, host, identity_embedding(guest, host))
    cuts = cut_family(host)
    above = cuts[3]._replace(component_hi=17)
    outside = cuts[5]._replace(component_lo=0)
    for batch, message in (
        ((cuts[0], above, cuts[1], outside),
         f"cut component {above.component_lo}..17 is not inside 1..16"),
        ((cuts[0], outside, cuts[1], above),
         f"cut component 0..{outside.component_hi} is not inside 1..16"),
    ):
        assert _message(_batch, guest, host, tally, batch) == message
    assert all(r.ok for r in _batch(guest, host, tally, cuts))


def test_build_report_cross_checks_the_standard_family(monkeypatch):
    # one standard cut record with a wrong edge: an edge with neither end
    # in its interval instead of its first edge, its last edge left out,
    # its first edge listed twice in place of its edges (the sibling S
    # record's two edges become one edge twice), or an index past the edges
    guest = Guest(4, 2)
    standard_cuts = hosts._standard_cuts
    for host in (_host(4, 2, "binary"), _host(4, 2, "sibling", 1)):
        emb = identity_embedding(guest, host)
        edges = host.links.edges
        family, j, i, lo, hi, share, indices = standard_cuts(host)[3]
        away = next(x for x, (a, b) in enumerate(edges) if not lo <= a <= hi and not lo <= b <= hi)
        twice = (indices[0], indices[0])
        for wrong in ((away,) + indices[1:], indices[:-1], twice, indices[:-1] + (len(edges) + 3,)):
            def broken(host, wrong=wrong):
                cuts = standard_cuts(host)
                cuts[3] = (family, j, i, lo, hi, share, wrong)
                return cuts

            monkeypatch.setattr(hosts, "_standard_cuts", broken)
            with pytest.raises(ConsistencyError) as err:
                build_report(guest, host, emb)
            assert str(err.value) == f"cut edges are not the edge boundary of labels {lo}..{hi}"
        monkeypatch.undo()
        assert build_report(guest, host, emb).consistent


def _break_family(monkeypatch):
    """Make ``hosts._standard_cuts`` leave out the last edge of its fourth
    record; return the hosts it is then called on."""
    real = hosts._standard_cuts
    built = []

    def broken(host):
        built.append(host)
        cuts = real(host)
        family, j, i, lo, hi, share, indices = cuts[3]
        cuts[3] = (family, j, i, lo, hi, share, indices[:-1])
        return cuts

    monkeypatch.setattr(hosts, "_standard_cuts", broken)
    return built


def test_each_host_checks_its_family_once(monkeypatch):
    # two reports, the cut family and the default partition total on one
    # host share one checked family
    real = hosts._standard_cuts
    checks = []

    def counting(host):
        checks.append(host)
        return real(host)

    monkeypatch.setattr(hosts, "_standard_cuts", counting)
    guest = Guest(4, 2)
    host = _host(4, 2, "sibling", 1)
    emb = identity_embedding(guest, host)
    report = build_report(guest, host, emb)
    assert build_report(guest, host, emb.swapped(1, 16)).direct > report.direct
    assert len(cut_family(host)) == len(report.per_cut)
    assert wirelength_via_partition(guest, host, emb) == report.direct
    assert len(checks) == 1


def test_an_iterator_of_cuts_is_read_once():
    # a family given as an iterator gives the tuple's total, and an
    # interval out of range in it raises the same message
    guest = Guest(3, 2)
    for host in (_host(3, 2, "binary"), _host(3, 3, "sibling")):
        emb = identity_embedding(guest, host).swapped(1, 7)
        cuts = cut_family(host)
        total = wirelength_via_partition(guest, host, emb, cuts)
        assert wirelength_via_partition(guest, host, emb, iter(cuts)) == total
        assert total == wirelength_via_partition(guest, host, emb)
        bad = cuts[:2] + (cuts[2]._replace(component_hi=9),) + cuts[3:]
        message = _message(wirelength_via_partition, guest, host, emb, bad)
        assert message == f"cut component {cuts[2].component_lo}..9 is not inside 1..8"
        assert _message(wirelength_via_partition, guest, host, emb, iter(bad)) == message


@pytest.mark.parametrize("n1, p, kind", [(1, 2, "binary"), (14, 4, "sibling")])
def test_build_report_at_n14(n1, p, kind):
    # 16384 labels, past the CLI's engine cap: a chain of 8192 one-level
    # blocks, and a single sibling tree
    guest = Guest(14, p)
    host = _host(14, n1, kind)
    report = build_report(guest, host, identity_embedding(guest, host))
    assert report.direct == report.via_partition == report.closed_form
    assert report.cut_conditions_ok


def test_a_broken_family_fails_every_reader(monkeypatch):
    # cut_family and the default family of wirelength_via_partition are
    # the checked family build_report reads
    guest = Guest(4, 2)
    for host in (_host(4, 2, "binary"), _host(4, 2, "sibling", 1)):
        lo, hi = hosts._standard_cuts(host)[3][3:5]
        message = f"cut edges are not the edge boundary of labels {lo}..{hi}"
        emb = identity_embedding(guest, host)
        with monkeypatch.context() as patch:
            _break_family(patch)
            for read, args in (
                (cut_family, (host,)),
                (wirelength_via_partition, (guest, host, emb)),
                (build_report, (guest, host, emb)),
            ):
                with pytest.raises(ConsistencyError) as err:
                    read(*args)
                assert str(err.value) == message


def test_a_failed_check_raises_again(monkeypatch):
    # a failed check keeps nothing, so each use builds and checks the
    # family again; a family that passes is kept
    host = _host(4, 2, "sibling", 1)
    built = _break_family(monkeypatch)
    for uses in (1, 2, 3):
        with pytest.raises(ConsistencyError):
            host.cuts
        assert len(built) == uses
    monkeypatch.undo()
    assert host.cuts == tuple(hosts._standard_cuts(host))
    assert host.cuts is host.cuts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_each_standard_cut_accounts_for_the_excess_wirelength(data):
    # a random embedding at n <= 8, on every host kind and variant: each
    # standard cut's congestion is at least the fewest guest edges a set of
    # its size can leave, with equality exactly when its preimages are
    # optimal; and the wirelength's excess over the closed form is the cuts'
    # excesses over those minima, weighted by share, over the coverage
    n = data.draw(st.integers(2, 8))
    p = data.draw(st.integers(2, n))
    n1 = data.draw(st.integers(1, n))
    kind, variant = data.draw(
        st.sampled_from([("binary", 0)] + [("sibling", v) for v in LAYOUT_VARIANTS])
    )
    guest, host = Guest(n, p), _host(n, n1, kind, variant)
    count = host.vertex_count
    if data.draw(st.booleans()):
        emb = Embedding(data.draw(st.permutations(range(1, count + 1))))
    else:  # near the identity, where most cuts stay optimal
        emb = identity_embedding(guest, host)
        label = st.integers(1, count)
        for a, b in data.draw(st.lists(st.tuples(label, label), max_size=3)):
            emb = emb.swapped(a, b) if a != b else emb
    report = build_report(guest, host, emb)
    excess = 0
    for (_, _, _, lo, hi, share, _), cut, conditions in zip(
        host.cuts, report.per_cut, report.cut_conditions
    ):
        least = interval_boundary_congestion(hi - lo + 1, n, p)
        assert cut.ec >= least
        assert (cut.ec == least) == conditions.preimages_optimal, (lo, hi)
        excess += share * (cut.ec - least)
    coverage = 2 if host.sibling else 1
    assert excess == coverage * (report.direct - report.closed_form)
