"""One traced request: the CLI's call sequence with a span around each layer.

Usage: python3 perfbench/traced.py <treebed argv...>

Parses argv with treebed's own parser, then calls the package's public
functions in the order ``cmd_wirelength``, ``cmd_verify`` and
``_sweep_rows`` call them, recording one span per call and the work each
call did.  Spans and counts stay in memory and are written out at the end
as one JSON object on stdout, together with the text the command would
have printed and its exit code, so the parent can check them against the
untraced CLI.  Handles the ``wirelength``, ``verify`` and ``sweep`` (CSV)
forms the workloads use.

Span names are ``<module>.<layer>``.  ``embedding.route`` is the first
``wirelength_direct`` of an instance, which routes every guest edge; later
calls in that instance read the routes it cached.
"""

import csv
import io
import json
import resource
import sys
import time
from collections import Counter

from treebed.cli import ENGINE_MAX_N, SWEEP_COLUMNS, build_parser
from treebed.embedding import (
    CutReport,
    WirelengthReport,
    congestion_lemma_value,
    cut_congestion,
    identity_embedding,
    verify_cut_conditions,
    wirelength_direct,
    wirelength_via_partition,
)
from treebed.formulas import closed_form_wirelength
from treebed.graphs import build_guest
from treebed.hosts import build_host, cut_family, inorder_labeling, sibling_layout_labeling
from treebed.search import exhaustive_min_wirelength, local_search_min


class Tracer:
    """Spans as ``[name, start, end, parent index]``, plus work counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.monotonic(), None, parent])
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.monotonic()


def _guest(tr, n, p):
    guest = tr.call("graphs.build_guest", build_guest, n, p)
    tr.counts["graphs.guest_edges"] += guest.graph.edge_count
    return guest


def _host(tr, n, n1, kind, variant):
    def build():
        host = build_host(n1, 1 << (n - n1), sibling=(kind == "sibling"))
        if kind == "sibling":
            return sibling_layout_labeling(host, variant)
        return inorder_labeling(host)

    return tr.call("hosts.build", build)


def _cuts(tr, host):
    cuts = tr.call("hosts.cut_family", cut_family, host)
    tr.counts["hosts.cuts"] += len(cuts)
    return cuts


def _route(tr, guest, host, embedding):
    direct = tr.call("embedding.route", wirelength_direct, guest, host, embedding)
    tr.counts["embedding.routed_edges"] += guest.graph.edge_count
    tr.counts["embedding.route_steps"] += direct
    return direct


def _conditions(tr, guest, host, embedding, cut):
    tr.counts["embedding.cut_checks"] += 1
    return tr.call("embedding.cut_conditions", verify_cut_conditions, guest, host, embedding, cut)


def _closed_form(tr, n, p, n1, sibling):
    tr.counts["formulas.calls"] += 1
    return tr.call("formulas.closed_form", closed_form_wirelength, n, p, n1=n1, sibling=sibling)


def _exhaustive(tr, guest, host, budget):
    result = tr.call("search.exhaustive", exhaustive_min_wirelength, guest, host, budget=budget)
    tr.counts["search.exhaustive_explored"] += result.explored
    return result.best_value


def _report(tr, guest, host, embedding, exhaustive_min=None, local_min=None):
    """``build_report``, one span per call, routing first."""
    direct = _route(tr, guest, host, embedding)
    cuts = _cuts(tr, host)
    per_cut = tuple(
        CutReport(c.family, c.j, c.i,
                  tr.call("embedding.congestion", cut_congestion, guest, host, embedding, c))
        for c in cuts
    )
    conditions_ok = all(_conditions(tr, guest, host, embedding, c).ok for c in cuts)
    partition = tr.call("embedding.congestion", wirelength_via_partition,
                        guest, host, embedding, cuts)
    return WirelengthReport(
        n=guest.n, p=guest.p, n1=host.n1, k=host.k, host_kind=host.kind,
        direct=direct, via_partition=partition,
        closed_form=_closed_form(tr, guest.n, guest.p, host.n1, host.sibling),
        exhaustive_min=exhaustive_min, cut_conditions_ok=conditions_ok,
        per_cut=per_cut, local_search_min=local_min,
    )


def _instance(tr, args):
    guest = _guest(tr, args.n, args.p)
    n1 = args.n1 if args.n1 is not None else args.n
    host = _host(tr, args.n, n1, args.host, args.variant)
    embedding = identity_embedding(guest, host)
    for a, b in args.swap or ():
        embedding = embedding.swapped(a, b)
    return guest, host, embedding


# Each command returns (stdout text, exit code, sweep RSS growth in MB or None).


def wirelength(tr, args):
    guest, host, embedding = _instance(tr, args)
    exhaustive = _exhaustive(tr, guest, host, args.budget) if args.exhaustive else None
    local = None
    if args.local_search is not None:
        result = tr.call("search.local", local_search_min, guest, host,
                         seed=args.seed, iterations=args.local_search)
        tr.counts["search.local_explored"] += result.explored
        local = result.best_value
    report = _report(tr, guest, host, embedding, exhaustive, local)
    text = tr.call("cli.emit", lambda: json.dumps(report.to_dict(), indent=2) + "\n")
    return text, 0 if report.consistent else 1, None


def verify(tr, args):
    guest, host, embedding = _instance(tr, args)
    direct = _route(tr, guest, host, embedding)
    count = guest.graph.vertex_count
    rows = []
    all_ok = True
    for cut in _cuts(tr, host):
        ec = tr.call("embedding.congestion", cut_congestion, guest, host, embedding, cut)
        cond = _conditions(tr, guest, host, embedding, cut)
        inside = {
            m for m in range(1, count + 1)
            if cut.component_lo <= embedding.label_for(m) <= cut.component_hi
        }
        lemma = tr.call("embedding.congestion", congestion_lemma_value, guest, inside)
        ok = cond.ok and ec == lemma
        all_ok = all_ok and ok
        rows.append({
            "family": cut.family, "j": cut.j, "i": cut.i, "ec": ec, "lemma_value": lemma,
            "inside_avoids_cut": cond.inside_avoids_cut,
            "crossings_cross_once": cond.crossings_cross_once,
            "preimages_optimal": cond.preimages_optimal,
            "ok": ok,
        })
    partition = tr.call("embedding.congestion", wirelength_via_partition, guest, host, embedding)
    all_ok = all_ok and direct == partition
    result = {
        "schema": 1, "n": args.n, "p": args.p, "n1": host.n1, "k": host.k,
        "host_kind": host.kind, "direct": direct, "via_partition": partition,
        "partition_matches_direct": direct == partition,
        "cut_conditions_ok": all(r["ok"] for r in rows),
        "per_cut": rows,
    }
    text = tr.call("cli.emit", lambda: json.dumps(result, indent=2) + "\n")
    return text, 0 if all_ok else 1, None


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep(tr, args):
    """``_sweep_rows`` and the CSV branch of ``cmd_sweep``."""
    kinds = ["binary", "sibling"] if args.host == "both" else [args.host]
    rows = []
    rss_after_first_n6 = None
    for n in range(args.n_min, args.n_max + 1):
        p_values = [args.p] if args.p is not None else list(range(2, n + 1))
        n1_values = [args.n1] if args.n1 is not None else list(range(1, n + 1))
        for p in p_values:
            if not 2 <= p <= n:
                continue
            engine = n <= ENGINE_MAX_N and args.engine != "off"
            guest = _guest(tr, n, p) if engine else None
            for n1 in n1_values:
                if not 1 <= n1 <= n:
                    continue
                for kind in kinds:
                    row = dict.fromkeys(SWEEP_COLUMNS, "")
                    row.update(n=n, p=p, n1=n1, k=1 << (n - n1), host=kind)
                    closed = _closed_form(tr, n, p, n1, kind == "sibling")
                    row["closed_form"] = closed
                    if guest is not None:
                        host = _host(tr, n, n1, kind, 0)
                        report = _report(tr, guest, host, identity_embedding(guest, host))
                        row["direct"] = report.direct
                        row["via_partition"] = report.via_partition
                        row["formula_matches_direct"] = report.direct == closed
                        row["partition_matches_direct"] = report.via_partition == report.direct
                        row["cut_conditions_ok"] = report.cut_conditions_ok
                        if args.exhaustive:
                            best = _exhaustive(tr, guest, host, args.budget)
                            row["exhaustive_min"] = best
                            row["exhaustive_matches_closed_form"] = best == closed
                        if n == 6 and rss_after_first_n6 is None:
                            rss_after_first_n6 = _max_rss_mb()
                    rows.append(row)
    rss_growth = None if rss_after_first_n6 is None else _max_rss_mb() - rss_after_first_n6
    failed = any(
        row[col] is False
        for row in rows
        for col in ("formula_matches_direct", "partition_matches_direct",
                    "exhaustive_matches_closed_form", "cut_conditions_ok")
    )

    def emit():
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                str(row[col]).lower() if isinstance(row[col], bool) else row[col]
                for col in SWEEP_COLUMNS
            ])
        return buf.getvalue()

    return tr.call("cli.emit", emit), 1 if failed else 0, rss_growth


COMMANDS = {"wirelength": wirelength, "verify": verify, "sweep": sweep}


def run(argv):
    ready = time.monotonic()
    args = build_parser().parse_args(argv)
    tr = Tracer()
    text, code, rss_growth = tr.call("cli.command", COMMANDS[args.command], tr, args)
    done = time.monotonic()
    json.dump({
        "stdout": text, "code": code, "ready": ready, "done": done,
        "spans": tr.spans, "counts": tr.counts, "rss_growth_mb": rss_growth,
    }, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    run(sys.argv[1:])
