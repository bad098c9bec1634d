import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from treebed import (
    LAYOUT_VARIANTS,
    HostTree,
    build_guest,
    build_host,
    build_report,
    congestion_lemma_value,
    cut_congestion,
    cut_family,
    identity_embedding,
    inorder_labeling,
    sibling_layout_labeling,
    verify_cut_conditions,
    wirelength_direct,
    wirelength_via_partition,
)
from treebed import cli, embedding, formulas, hosts, search
from treebed.cli import main
from treebed.errors import ConsistencyError

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_wirelength_single_binary(capsys):
    code, data, _ = run_json(capsys, "wirelength", "--n", "3", "--p", "2")
    assert code == 0
    assert data["direct"] == data["via_partition"] == data["closed_form"] == 54
    assert data["host_kind"] == "binary"
    assert data["cut_conditions_ok"] is True
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


def test_wirelength_single_sibling(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2", "--host", "sibling"
    )
    assert code == 0
    assert data["direct"] == 45
    assert data["host_kind"] == "sibling"


def test_wirelength_chain(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2", "--n1", "2"
    )
    assert code == 0
    assert data["direct"] == 60
    assert data["k"] == 2
    assert any(cut["family"] == "ROOT" for cut in data["per_cut"])


def test_wirelength_text_output(capsys):
    code, out, _ = run(
        capsys, "wirelength", "--n", "3", "--p", "2", "--output", "text"
    )
    assert code == 0
    assert "direct        = 54" in out
    assert "cut_conditions_ok = true" in out


def test_wirelength_search_text_bytes(capsys):
    # the text report prints each search result on its own line
    assert run(
        capsys, "wirelength", "--n", "3", "--p", "2", "--exhaustive", "--output", "text"
    ) == (0, (
        "direct        = 54\n"
        "via_partition = 54\n"
        "closed_form   = 54\n"
        "exhaustive    = 54\n"
        "cut_conditions_ok = true\n"
    ), "")
    assert run(
        capsys, "wirelength", "--n", "6", "--p", "2", "--local-search", "1", "--seed", "7",
        "--output", "text",
    ) == (0, (
        "direct        = 9936\n"
        "via_partition = 9936\n"
        "closed_form   = 9936\n"
        "local_search  = 9936\n"
        "cut_conditions_ok = true\n"
    ), "")


def test_n1_outside_one_to_n_is_refused(capsys):
    for command in ("wirelength", "verify"):
        for n1 in ("0", "4"):
            assert run(capsys, command, "--n", "3", "--p", "2", "--n1", n1) == (
                2, "", f"error: need 1 <= n1 <= n, got n1={n1}\n"
            )


def test_wirelength_is_deterministic(capsys):
    first = run(capsys, "wirelength", "--n", "3", "--p", "2", "--host", "sibling")
    second = run(capsys, "wirelength", "--n", "3", "--p", "2", "--host", "sibling")
    assert first == second


def test_wirelength_exhaustive(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2", "--host", "sibling",
        "--exhaustive",
    )
    assert code == 0
    assert data["exhaustive_min"] == 45
    assert list(data)[9] == "exhaustive_min"


def test_wirelength_exhaustive_cap(capsys, monkeypatch):
    # 32 labels in 4 blocks: 4148378852099625 partitions, refused before
    # any distance row is built.
    def unreachable(self, goal):
        pytest.fail("a distance row was built")

    monkeypatch.setattr(hosts.HostLinks, "distances", unreachable)
    code, out, err = run(
        capsys, "wirelength", "--n", "5", "--p", "2", "--exhaustive"
    )
    assert (code, out) == (2, "")
    assert err == "error: 4148378852099625 label partitions exceed the budget of 3000000\n"


def test_wirelength_exhaustive_with_one_partition(capsys):
    # p = n puts one label in each block: one partition at any n.
    code, data, err = run_json(
        capsys, "wirelength", "--n", "4", "--p", "4", "--exhaustive"
    )
    assert (code, err) == (0, "")
    assert data["exhaustive_min"] == data["closed_form"] == data["direct"] == 417


def test_wirelength_budget(capsys):
    code, _, err = run(
        capsys, "wirelength", "--n", "3", "--p", "2", "--exhaustive",
        "--budget", "10",
    )
    assert code == 2
    assert "budget" in err


def test_wirelength_engine_cap(capsys):
    code, _, err = run(capsys, "wirelength", "--n", "9", "--p", "2")
    assert code == 2
    assert "capped" in err


def test_wirelength_local_search(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2",
        "--local-search", "5", "--seed", "0",
    )
    assert code == 0
    assert data["local_search_min"] == 54

    code, _, err = run(
        capsys, "wirelength", "--n", "3", "--p", "2", "--local-search", "5"
    )
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("argv, message", [
    (("--local-search", "1"), "--local-search requires an explicit --seed"),
    (("--local-search", "-1", "--seed", "3"), "iterations must be nonnegative, got -1"),
])
def test_local_search_arguments_are_refused_before_any_search(monkeypatch, capsys, argv,
                                                               message):
    # n = 4, p = 2 has 2 627 625 label partitions, about 5 s of exhaustive
    # search that a refusal must not wait for
    monkeypatch.setattr(search, "exhaustive_min_wirelength", _unreachable)
    code, out, err = run(capsys, "wirelength", "--n", "4", "--p", "2", "--exhaustive", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_wirelength_swap_same_partite_stays_optimal(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2", "--swap", "1", "5"
    )
    assert code == 0
    assert data["direct"] == 54
    assert data["cut_conditions_ok"] is True


def test_wirelength_swap_across_partites_fails(capsys):
    code, data, _ = run_json(
        capsys, "wirelength", "--n", "3", "--p", "2", "--swap", "1", "7"
    )
    assert code == 1
    assert data["direct"] == 58
    assert data["cut_conditions_ok"] is False


def test_wirelength_variant_needs_sibling(capsys):
    code, _, err = run(
        capsys, "wirelength", "--n", "3", "--p", "2", "--variant", "1"
    )
    assert code == 2
    assert "sibling" in err


def test_wirelength_variants_agree(capsys):
    values = set()
    for variant in "0123":
        code, data, _ = run_json(
            capsys, "wirelength", "--n", "3", "--p", "2",
            "--host", "sibling", "--variant", variant,
        )
        assert code == 0
        values.add(data["direct"])
    assert values == {45}


def test_verify_json(capsys):
    code, data, _ = run_json(capsys, "verify", "--n", "3", "--p", "2")
    assert code == 0
    assert data["partition_matches_direct"] is True
    assert data["cut_conditions_ok"] is True
    assert len(data["per_cut"]) == 7
    first = data["per_cut"][0]
    assert first["family"] == "S"
    assert first["ec"] == first["lemma_value"] == 6
    assert first["ok"] is True


def test_verify_corrupted(capsys):
    code, data, _ = run_json(
        capsys, "verify", "--n", "3", "--p", "2", "--swap", "1", "7"
    )
    assert code == 1
    assert data["cut_conditions_ok"] is False
    assert any(row["ok"] is False for row in data["per_cut"])


def test_verify_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--p", "2", "--output", "text"
    )
    assert code == 0
    assert "S(j=1, i=1): ec=6 lemma=6 ok" in out
    assert "direct=54 via_partition=54 -> ok" in out


def _reference_verify(n, p, n1, kind, variant, swaps):
    """``verify``'s rows, flags and exit code, computed cut by cut from the
    public functions as the command did before it was built on
    ``build_report``."""
    guest = build_guest(n, p)
    host = build_host(n1, 1 << (n - n1), sibling=(kind == "sibling"))
    if kind == "sibling":
        host = sibling_layout_labeling(host, variant)
    else:
        host = inorder_labeling(host)
    embedding = identity_embedding(guest, host)
    for a, b in swaps:
        embedding = embedding.swapped(a, b)
    count = guest.vertex_count
    rows = []
    for cut in cut_family(host):
        ec = cut_congestion(guest, host, embedding, cut)
        cond = verify_cut_conditions(guest, host, embedding, cut)
        inside = {
            m
            for m in range(1, count + 1)
            if cut.component_lo <= embedding.label_for(m) <= cut.component_hi
        }
        lemma = congestion_lemma_value(guest, inside)
        rows.append(
            {
                "family": cut.family,
                "j": cut.j,
                "i": cut.i,
                "ec": ec,
                "lemma_value": lemma,
                "inside_avoids_cut": cond.inside_avoids_cut,
                "crossings_cross_once": cond.crossings_cross_once,
                "preimages_optimal": cond.preimages_optimal,
                "ok": cond.ok and ec == lemma,
            }
        )
    cuts_ok = all(r["ok"] for r in rows)
    matches = wirelength_direct(guest, host, embedding) == wirelength_via_partition(
        guest, host, embedding
    )
    return rows, cuts_ok, matches, 0 if cuts_ok and matches else 1


def _verify_cases():
    for n in range(2, 5):
        for p in range(2, n + 1):
            for n1 in range(1, n + 1):
                yield n, p, n1, "binary", 0, []
                for variant in LAYOUT_VARIANTS:
                    yield n, p, n1, "sibling", variant, []
    # cross-partite swaps that break the cut conditions
    yield 3, 2, 3, "binary", 0, [(1, 7)]
    yield 3, 2, 3, "sibling", 2, [(1, 7)]
    yield 4, 2, 2, "binary", 0, [(1, 10)]
    yield 4, 3, 1, "sibling", 1, [(2, 13)]
    yield 4, 2, 1, "binary", 0, [(2, 3), (1, 10)]


def test_verify_matches_per_cut_reference(capsys):
    failing = 0
    for n, p, n1, kind, variant, swaps in _verify_cases():
        argv = ["verify", "--n", str(n), "--p", str(p), "--n1", str(n1),
                "--host", kind, "--variant", str(variant)]
        for a, b in swaps:
            argv += ["--swap", str(a), str(b)]
        code, data, _ = run_json(capsys, *argv)
        rows, cuts_ok, matches, want_code = _reference_verify(
            n, p, n1, kind, variant, swaps
        )
        assert data["per_cut"] == rows, argv
        assert data["cut_conditions_ok"] is cuts_ok, argv
        assert data["partition_matches_direct"] is matches, argv
        assert code == want_code, argv
        if swaps:
            assert want_code == 1, argv
        failing += want_code
    assert failing == 5


def test_verify_text_bytes(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--p", "2", "--swap", "1", "7",
        "--output", "text",
    )
    assert code == 1
    assert out == (
        "S(j=1, i=1): ec=6 lemma=6 ok\n"
        "S(j=1, i=2): ec=6 lemma=6 ok\n"
        "S(j=1, i=3): ec=6 lemma=6 ok\n"
        "S(j=1, i=4): ec=6 lemma=6 ok\n"
        "S(j=2, i=1): ec=14 lemma=14 FAIL\n"
        "S(j=2, i=2): ec=14 lemma=14 FAIL\n"
        "S(j=3, i=1): ec=6 lemma=6 ok\n"
        "direct=58 via_partition=58 -> FAIL\n"
    )


def test_verify_text_bytes_on_a_chained_host(capsys):
    # The chain's ROOT cut has no j, which the text prints as "-".
    code, out, err = run(
        capsys, "verify", "--n", "3", "--p", "2", "--n1", "2", "--swap", "1", "7",
        "--output", "text",
    )
    assert (code, err) == (1, "")
    assert out == (
        "S(j=1, i=1): ec=6 lemma=6 ok\n"
        "S(j=1, i=2): ec=6 lemma=6 ok\n"
        "S(j=1, i=3): ec=6 lemma=6 ok\n"
        "S(j=1, i=4): ec=6 lemma=6 ok\n"
        "S(j=2, i=1): ec=14 lemma=14 FAIL\n"
        "S(j=2, i=2): ec=14 lemma=14 FAIL\n"
        "ROOT(j=-, i=1): ec=14 lemma=14 FAIL\n"
        "direct=66 via_partition=66 -> FAIL\n"
    )


def test_swap_label_out_of_range(capsys):
    for command in ("wirelength", "verify"):
        code, out, err = run(
            capsys, command, "--n", "3", "--p", "2", "--swap", "1", "9"
        )
        assert (code, out, err) == (2, "", "error: label 9 out of range 1..8\n")
        code, _, err = run(
            capsys, command, "--n", "3", "--p", "2", "--swap", "0", "2"
        )
        assert (code, err) == (2, "error: label 0 out of range 1..8\n")


def test_requests_leave_no_cyclic_garbage(capsys):
    # main runs each request with the cyclic collector off and then restores
    # the caller's setting, on or off; no request, the searches included,
    # leaves a reference cycle behind for a later collection
    requests = (
        ("verify", "--n", "4", "--p", "2", "--host", "sibling"),
        ("wirelength", "--n", "4", "--p", "2", "--local-search", "2", "--seed", "7"),
        ("wirelength", "--n", "4", "--p", "4", "--exhaustive"),
        ("sweep", "--n-min", "3", "--n-max", "3", "--exhaustive"),
    )
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv in requests:
                gc.collect()
                assert run(capsys, *argv)[0] == 0
                assert gc.isenabled() is enabled
                assert gc.collect() == 0, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_broken_standard_family_exits_1(capsys, monkeypatch):
    # a standard cut record that is not its interval's edge boundary, or a
    # family that no longer covers every edge, is a failed cross-check
    argv = ("verify", "--n", "4", "--p", "2", "--n1", "2", "--host", "sibling", "--variant", "1")
    standard_cuts = hosts._standard_cuts
    host = HostTree(2, 4, True, 1)
    cuts = standard_cuts(host)
    family, j, i, lo, hi, share, indices = cuts[3]
    assert indices == (3, 16) and (lo, hi) == (5, 5)
    boundary = f"error: cut edges are not the edge boundary of labels {lo}..{hi}\n"
    cases = [
        ((3, 0), boundary),  # edge 0 has neither end in 5..5
        ((3, 16, 16), boundary),
        ((3, len(host.links.edges) + 3), boundary),  # an index past the edges
        # dropping the cut leaves its edge (5, 7) covered once, the rest twice
        (None, "error: cut family does not cover every host edge uniformly: host"
               " edge (5, 7) has coverage 1 but host edge (1, 3) has 2\n"),
    ]
    for wrong, message in cases:
        def broken(host, wrong=wrong):
            cuts = standard_cuts(host)
            if wrong is None:
                del cuts[3]
            else:
                cuts[3] = (family, j, i, lo, hi, share, wrong)
            return cuts

        monkeypatch.setattr(hosts, "_standard_cuts", broken)
        assert run(capsys, *argv) == (1, "", message)
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_swapped_embeddings_pass_every_cross_check(capsys):
    # by the star argument every standard cut's routed congestion is the
    # count of guest edges leaving its preimage, for any embedding; so on
    # an embedding that fails the lemma (labels 1 and 2**n swapped) the
    # partition total still matches direct and both route flags hold
    requests = 0
    for n in range(2, 7):
        for p in range(2, n + 1):
            for n1 in range(1, n + 1):
                for kind, variant in [("binary", 0)] + [("sibling", v) for v in LAYOUT_VARIANTS]:
                    argv = ["verify", "--n", str(n), "--p", str(p), "--n1", str(n1),
                            "--host", kind, "--variant", str(variant),
                            "--swap", "1", str(1 << n)]
                    code, data, _ = run_json(capsys, *argv)
                    assert code in (0, 1) and data["partition_matches_direct"], argv
                    for row in data["per_cut"]:
                        assert row["inside_avoids_cut"] and row["crossings_cross_once"], argv
                    requests += 1
    assert requests == 350


def test_an_uneven_leaving_total_exits_1(capsys, monkeypatch):
    # one share-1 S cut's leaving count one too high makes the sibling
    # host's weighted total odd, against its coverage of 2
    argv = ("verify", "--n", "4", "--p", "2", "--n1", "2", "--host", "sibling", "--variant", "1")
    host = HostTree(2, 4, True, 1)
    guest = build_guest(4, 2)
    report = build_report(guest, host, identity_embedding(guest, host))
    assert host.cuts[3][0] == "S" and host.cuts[3][5] == 1
    leaving = embedding._leaving

    def one_more(guest, partite_at, cuts):
        counts = leaving(guest, partite_at, cuts)
        counts[3] += 1
        return counts

    monkeypatch.setattr(embedding, "_leaving", one_more)
    message = (f"weighted leaving guest edges {2 * report.direct + 1} are not divisible"
               " by coverage 2")
    with pytest.raises(ConsistencyError) as err:
        build_report(guest, host, identity_embedding(guest, host))
    assert str(err.value) == message
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    monkeypatch.undo()
    assert run(capsys, *argv)[0] == 0


def test_the_reported_ec_is_the_routed_load(capsys, monkeypatch):
    # a leaving count two too high on one share-1 S cut of a binary host
    # (coverage 1) moves that cut's lemma_value and the partition total,
    # while its ec stays the routed congestion
    argv = ("verify", "--n", "4", "--p", "2", "--n1", "2", "--output", "text")
    host = HostTree(2, 4, False)
    guest = build_guest(4, 2)
    emb = identity_embedding(guest, host)
    target = host.cuts[9]
    assert target[0] == "S" and target[5] == 1
    ec = cut_congestion(guest, host, emb, cut_family(host)[9])
    direct = wirelength_direct(guest, host, emb)
    code, clean, _ = run(capsys, *argv)
    assert code == 0
    leaving = embedding._leaving

    def two_more(guest, partite_at, cuts):
        counts = leaving(guest, partite_at, cuts)
        for x, cut in enumerate(cuts):
            if cut[:5] == target[:5]:
                counts[x] += 2
        return counts

    monkeypatch.setattr(embedding, "_leaving", two_more)
    report = build_report(guest, host, emb)
    assert report.per_cut[9].ec == ec
    conditions = report.cut_conditions[9]
    assert conditions.lemma_value == ec + 2 and not conditions.crossings_cross_once
    assert report.direct == direct and report.via_partition == direct + 2
    expected = clean.replace(
        f"S(j=2, i=2): ec={ec} lemma={ec} ok\n", f"S(j=2, i=2): ec={ec} lemma={ec + 2} FAIL\n"
    ).replace(f"via_partition={direct} -> ok", f"via_partition={direct + 2} -> FAIL")
    assert expected.count("FAIL") == 2
    assert run(capsys, *argv) == (1, expected, "")


def test_guest_json(capsys):
    code, data, _ = run_json(capsys, "guest", "--n", "3", "--p", "2")
    assert code == 0
    assert data["vertex_count"] == 8
    assert data["edge_count"] == 24
    assert data["degree"] == 6
    assert data["partites"] == [[1, 5], [2, 6], [3, 7], [4, 8]]


def test_guest_text_bytes(capsys):
    assert run(capsys, "guest", "--n", "3", "--p", "2", "--output", "text") == (0, (
        "guest: 2^3 vertices in 2^2 partite sets\n"
        "  vertex_count = 8\n"
        "  edge_count = 24\n"
        "  part_count = 4\n"
        "  part_size = 2\n"
        "  degree = 6\n"
    ), "")


def test_guest_at_max_scale(capsys):
    code, data, _ = run_json(capsys, "guest", "--n", "20", "--p", "2")
    assert code == 0
    assert data["vertex_count"] == 1 << 20
    assert data["edge_count"] == (1 << 20) * ((1 << 20) - (1 << 18)) // 2
    assert "partites" not in data
    code, _, err = run(capsys, "guest", "--n", "21", "--p", "2")
    assert code == 2
    assert "maximum of 20" in err


def test_host_json(capsys):
    code, data, _ = run_json(
        capsys, "host", "--n1", "2", "--k", "2", "--host", "sibling"
    )
    assert code == 0
    assert data["vertex_count"] == 8
    assert data["edge_count"] == 9
    assert data["sibling_edge_count"] == 2
    assert data["level_counts"] == {"0": 2, "1": 2, "2": 4}
    assert data["label_of"]["4"] == 4


def test_host_json_bytes(capsys):
    code, out, err = run(
        capsys, "host", "--n1", "2", "--k", "2", "--host", "sibling", "--variant", "3"
    )
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "schema": 1,\n'
        '  "n1": 2,\n'
        '  "k": 2,\n'
        '  "kind": "sibling",\n'
        '  "vertex_count": 8,\n'
        '  "edge_count": 9,\n'
        '  "sibling_edge_count": 2,\n'
        '  "level_counts": {\n'
        '    "0": 2,\n'
        '    "1": 2,\n'
        '    "2": 4\n'
        "  },\n"
        '  "label_of": {\n'
        '    "1": 1,\n'
        '    "2": 3,\n'
        '    "3": 2,\n'
        '    "4": 4,\n'
        '    "5": 5,\n'
        '    "6": 7,\n'
        '    "7": 6,\n'
        '    "8": 8\n'
        "  }\n"
        "}\n"
    )


# SHA-256 of stdout, exit code and byte count for JSON outputs, so that
# a whitespace or ordering change in the report writer fails here even
# where the parsed fields stay equal.
JSON_PINS = [
    ("wirelength --n 4 --p 2", 0, 1350,
     "513ac531b2da8584a207d549e5975e86e4982a57cc2824960261d6a74ca6c598"),
    ("wirelength --n 3 --p 2 --exhaustive", 0, 750,
     "a21999281691ac563996a4ed71f0dc60580af9d965f0b888ded047e7e2df97cc"),
    ("wirelength --n 6 --p 2 --local-search 1 --seed 7", 0, 5137,
     "73041f238930aba56afde04672d555aa3bf697f9e8e636ef5389730c81efd9c8"),
    ("verify --n 5 --p 2 --n1 2 --host sibling --variant 1", 0, 10721,
     "cd833c265561af31ef184e0b251dc1a0193eb99414d2259adb20fe1c3ca46571"),
    ("verify --n 3 --p 2 --swap 1 7", 1, 1756,
     "b0fdaa3ffdc0fe2501217e42f09d404e307821065199c36316064f86fd3001fb"),
    ("guest --n 3 --p 2", 0, 271,
     "3d4bfa0c4d2df6a683ed9bf7bd145c8ae3ec600bdc28f3adc8c71dad6286a4f1"),
    ("sweep --n-min 2 --n-max 3 --output json", 0, 5157,
     "c087ba21d1b1cba32ed2dca90640bf68bbd825ec274acec882851b253a26a5f7"),
]


@pytest.mark.parametrize("argv, exit_code, size, digest", JSON_PINS)
def test_json_output_bytes(capsys, argv, exit_code, size, digest):
    code, out, err = run(capsys, *argv.split())
    data = out.encode()
    assert (code, err) == (exit_code, "")
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_large_host_prints_counts_without_building(capsys):
    # Above 256 vertices only counts are printed, and they come from the
    # shape: 2**20 vertices in well under a megabyte.
    tracemalloc.start()
    try:
        code, data, err = run_json(capsys, "host", "--n1", "20")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert data == {
        "schema": 1, "n1": 20, "k": 1, "kind": "binary",
        "vertex_count": 1 << 20, "edge_count": (1 << 20) - 1, "sibling_edge_count": 0,
        "level_counts": {"0": 1, **{str(lvl): 1 << (lvl - 1) for lvl in range(1, 21)}},
    }
    assert peak < 1 << 20
    code, out, err = run(capsys, "host", "--n1", "19", "--k", "2", "--host", "sibling",
                         "--output", "text")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "  vertex_count = 1048576", "  edge_count = 1572861", "  sibling_edge_count = 524286",
    ]
    code, out, err = run(capsys, "host", "--n1", "20", "--variant", "1")
    assert (code, out, err) == (2, "", "error: --variant applies to sibling hosts only\n")


def test_sweep_small_grid(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n-min", "2", "--n-max", "3", "--exhaustive"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,p,n1,k,host,closed_form")
    assert len(lines) == 1 + 16
    assert lines[1] == "2,2,1,2,binary,10,10,10,10,true,true,true,true"
    assert all(",false" not in line for line in lines[1:])


# SHA-256 of stdout for whole sweeps: the three perfbench/reference.json
# pins and the engine sweep up to n = 8, with their line counts.
SWEEP_PINS = [
    ("sweep --n-min 2 --n-max 6", 141,
     "98538e52520139050b01352bc3386b5dc1341ed931b436a2cc932f407716b810"),
    ("sweep --n-min 3 --n-max 3 --exhaustive", 13,
     "0917bc8076191de76b4eade512120e5ba8edcdc2f28b90319122dafdd129f3ff"),
    ("sweep --n-min 2 --n-max 16 --engine off", 2721,
     "e350cf27ff84ea0ca9857142af86192b7167fec0359364e91a9732f465c3cda8"),
    ("sweep --n-min 2 --n-max 8", 337,
     "2ab3957a20ff26e6f28b27f2931f2fca35867ca85e9a634557d1d55efce700e9"),
]


@pytest.mark.parametrize("argv, lines, digest", SWEEP_PINS)
def test_whole_sweep_bytes(capsys, argv, lines, digest):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_builds_each_host_once(capsys, monkeypatch):
    # every p of an n runs on one host: 2 + 3 + 4 block heights, two kinds
    built = []
    real = cli._build_labeled

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_build_labeled", counting)
    code, out, err = run(capsys, "sweep", "--n-min", "2", "--n-max", "4")
    assert (code, err, out.count("\n")) == (0, "", 1 + 40)
    assert len(built) == len(set(built)) == 18


def test_sweep_fixed_p_binary_only(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n-min", "2", "--n-max", "4",
        "--p", "2", "--host", "binary",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 9


def test_sweep_empty_range(capsys):
    # A selection with no instance is a usage error, not an empty table.
    for bounds in (
        ("--n-min", "3", "--n-max", "2"),
        ("--n-min", "5", "--n-max", "3"),
        ("--n-min", "2", "--n-max", "3", "--p", "9"),
        ("--n-min", "0", "--n-max", "1"),
        ("--n-min", "2", "--n-max", "3", "--n1", "4", "--output", "json"),
        ("--n-min", "2", "--n-max", "3", "--p", "1"),
        ("--n-min", "2", "--n-max", "3", "--n1", "0"),
        ("--n-min", "2", "--n-max", "1000000000000", "--p", "1", "--engine", "off"),
    ):
        code, out, err = run(capsys, "sweep", *bounds)
        assert (code, out) == (2, ""), bounds
        assert err.startswith("error: the sweep selects no instance"), bounds


def test_sweep_json_output(capsys):
    code, data, _ = run_json(
        capsys, "sweep", "--n-min", "2", "--n-max", "2", "--output", "json"
    )
    assert code == 0
    # two n1 values times two host kinds
    assert len(data) == 4
    by_key = {(row["n1"], row["host"]): row for row in data}
    assert by_key[(2, "binary")]["closed_form"] == 9
    assert by_key[(2, "sibling")]["closed_form"] == 8
    assert all(row["exhaustive_min"] is None for row in data)


def test_sweep_formula_only_scales(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n-min", "12", "--n-max", "12",
        "--p", "2", "--n1", "6", "--engine", "off",
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[:5] == ["12", "2", "6", "64", "binary"]
    assert int(row[5]) > 0
    assert row[6] == ""


def test_sweep_starts_at_the_smallest_guest(capsys):
    # no guest has n < 2, so an n-min far below 2 prints what n-min 2 does
    # without counting up to it
    want = run(capsys, "sweep", "--n-min", "2", "--n-max", "2", "--engine", "off")
    got = run(
        capsys, "sweep", "--n-min", "-1000000000000", "--n-max", "2", "--engine", "off"
    )
    assert got == want and want[0] == 0


def test_sweep_caps(capsys, monkeypatch):
    # The guest check refuses the whole selection before any row is built.
    monkeypatch.setattr(formulas, "closed_form_wirelength", _unreachable)
    for argv in (("--n-max", "21"), ("--n-max", "21", "--engine", "off"),
                 ("--n-max", "1000000000000", "--engine", "off")):
        code, out, err = run(capsys, "sweep", "--n-min", "2", *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: n={argv[1]} exceeds the supported maximum of 20\n", argv
    # The engine runs when n <= 8 unless turned off; there is no "on".
    code, _, err = run(
        capsys, "sweep", "--n-min", "2", "--n-max", "9", "--engine", "on"
    )
    assert code == 2 and "invalid choice" in err


def _unreachable(*args, **kwargs):
    pytest.fail("the request did work before checking its arguments")


@pytest.mark.parametrize("argv, message", [
    # n = 5, p = 2 alone is over the default budget: without the check up
    # front the n = 4 rows before it would take about 70 s.
    (("--n-min", "2", "--n-max", "5"),
     "n=5, p=2: 4148378852099625 label partitions exceed the budget of 3000000"),
    (("--n-min", "4", "--n-max", "4", "--budget", "2627624"),
     "n=4, p=2: 2627625 label partitions exceed the budget of 2627624"),
    # Every shape up to n = 9 fits this budget, but n = 9 is past the
    # engine, so its rows would carry no exhaustive value.
    (("--n-min", "2", "--n-max", "9", "--budget", "1" + "0" * 1200),
     "--exhaustive needs the engine (--engine auto, n <= 8)"),
], ids=["budget", "budget-by-one", "engine-reach"])
def test_sweep_checks_its_whole_selection_first(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "build_report", _unreachable)
    monkeypatch.setattr(formulas, "closed_form_wirelength", _unreachable)
    code, out, err = run(capsys, "sweep", *argv, "--exhaustive")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_budget_admits_its_own_count(capsys):
    # n = 3, p = 2 has exactly 105 label partitions.
    code, out, err = run(
        capsys, "sweep", "--n-min", "3", "--n-max", "3", "--p", "2", "--n1", "3",
        "--host", "binary", "--exhaustive", "--budget", "105",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "3,2,3,1,binary,54,54,54,54,true,true,true,true"


def test_sweep_exhaustive_needs_engine(capsys):
    # without the engine no guest is built, so there is nothing to search
    code, out, err = run(
        capsys, "sweep", "--n-min", "2", "--n-max", "3", "--exhaustive",
        "--engine", "off",
    )
    assert code == 2
    assert out == ""
    assert "--exhaustive needs the engine" in err


SWEEP_HEADER = (
    "n", "p", "n1", "k", "host", "closed_form", "direct", "via_partition",
    "exhaustive_min", "formula_matches_direct", "partition_matches_direct",
    "exhaustive_matches_closed_form", "cut_conditions_ok",
)


@pytest.mark.parametrize("target, change, line, row", [
    ("report", {"direct": 11, "via_partition": 11},
     "2,2,1,2,sibling,10,11,11,10,false,true,true,true",
     (2, 2, 1, 2, "sibling", 10, 11, 11, 10, False, True, True, True)),
    ("report", {"via_partition": 11},
     "2,2,1,2,sibling,10,10,11,10,true,false,true,true",
     (2, 2, 1, 2, "sibling", 10, 10, 11, 10, True, False, True, True)),
    ("search", {"best_value": 9},
     "2,2,1,2,sibling,10,10,10,9,true,true,false,true",
     (2, 2, 1, 2, "sibling", 10, 10, 10, 9, True, True, False, True)),
    ("report", {"cut_conditions_ok": False},
     "2,2,1,2,sibling,10,10,10,10,true,true,true,false",
     (2, 2, 1, 2, "sibling", 10, 10, 10, 10, True, True, True, False)),
], ids=["formula", "partition", "exhaustive", "cut_conditions"])
def test_sweep_exits_1_on_any_failed_check(capsys, monkeypatch, target, change, line, row):
    # Each check column in turn reads false, for the sibling row alone.
    from treebed import search

    module, name = (cli, "build_report") if target == "report" else (
        search, "exhaustive_min_wirelength")
    real = getattr(module, name)

    def broken(guest, host, *args, **kwargs):
        result = real(guest, host, *args, **kwargs)
        return result._replace(**change) if host.sibling else result

    monkeypatch.setattr(module, name, broken)
    argv = ["sweep", "--n-min", "2", "--n-max", "2", "--p", "2", "--n1", "1", "--exhaustive"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == (
        ",".join(SWEEP_HEADER) + "\n"
        "2,2,1,2,binary,10,10,10,10,true,true,true,true\n"
        f"{line}\n"
    )
    code, out, err = run(capsys, *argv, "--output", "json")
    assert (code, err) == (1, "")
    good = (2, 2, 1, 2, "binary", 10, 10, 10, 10, True, True, True, True)
    want = [dict(zip(SWEEP_HEADER, good)), dict(zip(SWEEP_HEADER, row))]
    assert out == json.dumps(want, indent=2) + "\n"


def test_export_dot_host(capsys):
    code, out, _ = run(
        capsys, "export-dot", "host", "--n1", "3", "--host", "sibling"
    )
    assert code == 0
    assert out.startswith("graph host {")
    assert out.count("[style=dashed]") == 3
    assert out.count("rank=same") == 4


def test_export_dot_chain_is_bold(capsys):
    code, out, _ = run(capsys, "export-dot", "host", "--n1", "2", "--k", "2")
    assert code == 0
    assert out.count("[style=bold]") == 1
    assert "4 -- 8 [style=bold];" in out


def test_export_dot_host_bytes(capsys):
    code, out, err = run(capsys, "export-dot", "host", "--n1", "2", "--k", "2")
    assert (code, err) == (0, "")
    assert out == (
        "graph host {\n"
        "  node [shape=circle];\n"
        "  { rank=same; 4; 8; }\n"
        "  { rank=same; 2; 6; }\n"
        "  { rank=same; 1; 3; 5; 7; }\n"
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "  2 -- 4;\n"
        "  4 -- 8 [style=bold];\n"
        "  5 -- 6;\n"
        "  6 -- 7;\n"
        "  6 -- 8;\n"
        "}\n"
    )


def test_export_dot_sibling_host_bytes(capsys):
    code, out, err = run(
        capsys, "export-dot", "host", "--n1", "3", "--host", "sibling", "--variant", "1"
    )
    assert (code, err) == (0, "")
    assert out == (
        "graph host {\n"
        "  node [shape=circle];\n"
        "  { rank=same; 8; }\n"
        "  { rank=same; 7; }\n"
        "  { rank=same; 3; 6; }\n"
        "  { rank=same; 1; 2; 4; 5; }\n"
        "  1 -- 2 [style=dashed];\n"
        "  1 -- 3;\n"
        "  2 -- 3;\n"
        "  3 -- 6 [style=dashed];\n"
        "  3 -- 7;\n"
        "  4 -- 5 [style=dashed];\n"
        "  4 -- 6;\n"
        "  5 -- 6;\n"
        "  6 -- 7;\n"
        "  7 -- 8;\n"
        "}\n"
    )


def test_export_dot_guest(capsys):
    code, out, err = run(capsys, "export-dot", "guest", "--n", "3", "--p", "2")
    assert (code, err) == (0, "")
    assert out.count("subgraph cluster_") == 4
    assert sum(1 for line in out.split("\n") if " -- " in line) == 24
    assert out == (
        "graph guest {\n"
        "  node [shape=circle];\n"
        '  subgraph cluster_1 { label="partite 1"; 1; 5; }\n'
        '  subgraph cluster_2 { label="partite 2"; 2; 6; }\n'
        '  subgraph cluster_3 { label="partite 3"; 3; 7; }\n'
        '  subgraph cluster_4 { label="partite 4"; 4; 8; }\n'
        "  1 -- 2;\n"
        "  1 -- 3;\n"
        "  1 -- 4;\n"
        "  1 -- 6;\n"
        "  1 -- 7;\n"
        "  1 -- 8;\n"
        "  2 -- 3;\n"
        "  2 -- 4;\n"
        "  2 -- 5;\n"
        "  2 -- 7;\n"
        "  2 -- 8;\n"
        "  3 -- 4;\n"
        "  3 -- 5;\n"
        "  3 -- 6;\n"
        "  3 -- 8;\n"
        "  4 -- 5;\n"
        "  4 -- 6;\n"
        "  4 -- 7;\n"
        "  5 -- 6;\n"
        "  5 -- 7;\n"
        "  5 -- 8;\n"
        "  6 -- 7;\n"
        "  6 -- 8;\n"
        "  7 -- 8;\n"
        "}\n"
    )


def test_export_dot_to_file(tmp_path, capsys):
    target = tmp_path / "host.dot"
    code, out, _ = run(
        capsys, "export-dot", "host", "--n1", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    code, direct, _ = run(capsys, "export-dot", "host", "--n1", "2")
    assert target.read_text(encoding="utf-8") == direct


def treebed_process(*argv):
    """Run ``argv`` through ``treebed.cli.main`` in a fresh interpreter, as
    the console script does, so it exits through a normal shutdown."""
    entry = "import sys; from treebed.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", entry, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
    )


def test_export_dot_out_in_a_fresh_process(tmp_path):
    argv = ("export-dot", "host", "--n1", "3", "--host", "sibling", "--variant", "1")
    shown = treebed_process(*argv)
    assert (shown.returncode, shown.stderr) == (0, b"")
    assert shown.stdout.startswith(b"graph host {")
    target = tmp_path / "h.dot"
    written = treebed_process(*argv, "--out", str(target))
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert target.read_bytes() == shown.stdout
    missing = treebed_process(*argv, "--out", str(tmp_path / "missing" / "h.dot"))
    assert (missing.returncode, missing.stdout) == (1, b"")
    assert missing.stderr.startswith(b"error: ")
    assert not (tmp_path / "missing").exists()


def test_export_dot_validation(capsys):
    code, _, err = run(capsys, "export-dot", "guest", "--n", "9", "--p", "2")
    assert code == 2 and "capped" in err
    code, _, err = run(capsys, "export-dot", "guest")
    assert code == 2
    assert run(capsys, "export-dot", "host") == (2, "", "error: host export needs --n1\n")
    code, _, err = run(capsys, "export-dot", "host", "--n1", "11")
    assert code == 2 and "1024" in err
    # n1 is checked before the vertex cap computes 2**n1.
    code, out, err = run(capsys, "export-dot", "host", "--n1", "-1")
    assert (code, out, err) == (2, "", "error: n1 must be at least 1, got -1\n")


def test_huge_n1_is_refused_before_sizing(capsys):
    # n1 is bounded before 2**n1 is computed, so both refusals stay small.
    tracemalloc.start()
    try:
        host = run(capsys, "host", "--n1", "400000000")
        dot = run(capsys, "export-dot", "host", "--n1", "400000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert host == (
        2, "", "error: host with k=1, n1=400000000 exceeds the supported 2**20 vertices\n"
    )
    assert dot == (2, "", "error: host export is capped at 1024 vertices\n")
    assert peak < 1 << 20


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "wirelength", "--n", "3")[0] == 2
