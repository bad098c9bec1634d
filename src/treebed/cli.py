"""Command-line front end.

Subcommands build the pieces (``guest``, ``host``), run and cross-check the
wirelength computations (``wirelength``, ``verify``, ``sweep``), and export
Graphviz drawings (``export-dot``).  Exit codes: 0 success, 1 failed
verification or write failure, 2 usage error (including out-of-scale
requests and exceeded budgets).
"""

from __future__ import annotations

import gc
import sys
from itertools import combinations, product
from types import SimpleNamespace
from typing import TYPE_CHECKING

from treebed import formulas
from treebed.embedding import Embedding, build_report, identity_embedding
from treebed.errors import (
    DEFAULT_PARTITION_BUDGET, BudgetExceededError, ConsistencyError, CoverageError,
)
from treebed.graphs import Guest, check_guest_shape
from treebed.hosts import (
    LAYOUT_VARIANTS,
    HostTree,
    check_host_shape,
)

if TYPE_CHECKING:
    import argparse

ENGINE_MAX_N = 8  # routed-path engine: 2**8 = 256 vertices


def _build_labeled(n1: int, k: int, kind: str, variant: int) -> HostTree:
    if kind == "sibling":
        return HostTree(n1, k, True, variant)
    host = HostTree(n1, k, False)
    if variant != 0:
        raise ValueError("--variant applies to sibling hosts only")
    return host


def _instance(args) -> tuple[Guest, HostTree, Embedding]:
    """The guest, the host, and the identity embedding after ``--swap``."""
    n, p = args.n, args.p
    if n > ENGINE_MAX_N:
        raise ValueError(f"engine runs are capped at n <= {ENGINE_MAX_N}")
    guest = Guest(n, p)
    n1 = args.n1 if args.n1 is not None else n
    if not 1 <= n1 <= n:
        raise ValueError(f"need 1 <= n1 <= n, got n1={n1}")
    host = _build_labeled(n1, 1 << (n - n1), args.host, args.variant)
    embedding = identity_embedding(guest, host)
    for a, b in args.swap or ():
        embedding = embedding.swapped(a, b)
    return guest, host, embedding


def _json(value, indent: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, for the values
    reports hold: dicts with ``str`` keys, lists, ``int``, ``bool``,
    ``None``, and strings of printable ASCII without ``"`` or ``\\``, which
    JSON writes unescaped.  Raises ``TypeError`` on anything else.
    ``indent`` is the line break and indentation before the value's closing
    bracket.
    """
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return _JSON_CONSTANTS[value]
    if kind is str:
        return f'"{_unescaped(value)}"'
    inner = indent + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        _unescaped("".join(value))  # every key at once; join raises on a non-str
        items = []
        for key, item in value.items():
            # Report rows are mostly ints, bools and None: write those here.
            item_kind = type(item)
            if item_kind is int:
                text = repr(item)
            elif item_kind is bool or item is None:
                text = _JSON_CONSTANTS[item]
            else:
                text = _json(item, inner)
            items.append(f'"{key}": {text}')
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    raise TypeError(f"reports hold no {kind.__name__} value: {value!r}")


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _unescaped(text: str) -> str:
    """``text``, after checking that JSON writes it without escapes."""
    if not (text.isascii() and text.isprintable()) or '"' in text or "\\" in text:
        raise TypeError(f"report text {text!r} would need escaping")
    return text


GUEST_FIELDS = ("vertex_count", "edge_count", "part_count", "part_size", "degree")
HOST_FIELDS = ("vertex_count", "edge_count", "sibling_edge_count")


def cmd_guest(args) -> int:
    guest = Guest(args.n, args.p)
    info = {"schema": 1, "n": guest.n, "p": guest.p}
    info.update((key, getattr(guest, key)) for key in GUEST_FIELDS)
    if args.n <= ENGINE_MAX_N:
        info["partites"] = [sorted(part) for part in guest.partites]
    if args.output == "json":
        print(_json(info))
    else:
        print(f"guest: 2^{args.n} vertices in 2^{args.p} partite sets")
        for key in GUEST_FIELDS:
            print(f"  {key} = {info[key]}")
    return 0


def cmd_host(args) -> int:
    host = _build_labeled(args.n1, args.k, args.host, args.variant)
    info = {"schema": 1, "n1": args.n1, "k": args.k, "kind": args.host}
    info.update((key, getattr(host, key)) for key in HOST_FIELDS)
    info["level_counts"] = {str(lvl): c for lvl, c in host.level_counts.items()}
    # Larger hosts print only their counts, so their labels are never built.
    if host.vertex_count <= 256:
        info["label_of"] = {str(v): host.label_of[v] for v in sorted(host.label_of)}
    if args.output == "json":
        print(_json(info))
    else:
        print(f"host: {args.host}, {args.k} block(s) of height {args.n1}")
        for key in HOST_FIELDS:
            print(f"  {key} = {info[key]}")
    return 0


def cmd_wirelength(args) -> int:
    guest, host, embedding = _instance(args)
    if args.local_search is not None:  # refused on its arguments before either search
        if args.seed is None:
            raise ValueError("--local-search requires an explicit --seed")
        from treebed.search import _check_local_args

        _check_local_args(args.seed, args.local_search)
    exhaustive_min = None
    if args.exhaustive:  # refused on --budget before any distance row is built
        from treebed.search import exhaustive_min_wirelength

        exhaustive_min = exhaustive_min_wirelength(guest, host, budget=args.budget).best_value
    heuristic = None
    if args.local_search is not None:
        from treebed.search import local_search_min

        heuristic = local_search_min(
            guest, host, seed=args.seed, iterations=args.local_search
        ).best_value
    report = build_report(
        guest, host, embedding,
        exhaustive_min=exhaustive_min,
        local_search_min=heuristic,
    )
    if args.output == "json":
        print(_json(report.to_dict()))
    else:
        print(f"direct        = {report.direct}")
        print(f"via_partition = {report.via_partition}")
        print(f"closed_form   = {report.closed_form}")
        if report.exhaustive_min is not None:
            print(f"exhaustive    = {report.exhaustive_min}")
        if report.local_search_min is not None:
            print(f"local_search  = {report.local_search_min}")
        print(f"cut_conditions_ok = {str(report.cut_conditions_ok).lower()}")
    return 0 if report.consistent else 1


VERIFY_COLUMNS = (
    "family", "j", "i", "ec", "lemma_value", "inside_avoids_cut",
    "crossings_cross_once", "preimages_optimal", "ok",
)


def cmd_verify(args) -> int:
    guest, host, embedding = _instance(args)
    report = build_report(guest, host, embedding)
    rows = [
        (cut.family, cut.j, cut.i, cut.ec, cond.lemma_value, cond.inside_avoids_cut,
         cond.crossings_cross_once, cond.preimages_optimal, cond.ok)
        for cut, cond in zip(report.per_cut, report.cut_conditions)
    ]
    direct, partition = report.direct, report.via_partition
    all_ok = report.cut_conditions_ok and direct == partition
    result = {
        "schema": 1,
        "n": args.n,
        "p": args.p,
        "n1": host.n1,
        "k": host.k,
        "host_kind": host.kind,
        "direct": direct,
        "via_partition": partition,
        "partition_matches_direct": direct == partition,
        "cut_conditions_ok": report.cut_conditions_ok,
        "per_cut": [dict(zip(VERIFY_COLUMNS, row)) for row in rows],
    }
    if args.output == "json":
        print(_json(result))
    else:
        for family, j, i, ec, lemma, *_, ok in rows:
            j = "-" if j is None else j
            print(f"{family}(j={j}, i={i}): ec={ec} lemma={lemma} {'ok' if ok else 'FAIL'}")
        print(f"direct={direct} via_partition={partition} -> "
              f"{'ok' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


# The last four columns are the checks, and the only ones holding booleans.
SWEEP_COLUMNS = [
    "n",
    "p",
    "n1",
    "k",
    "host",
    "closed_form",
    "direct",
    "via_partition",
    "exhaustive_min",
    "formula_matches_direct",
    "partition_matches_direct",
    "exhaustive_matches_closed_form",
    "cut_conditions_ok",
]


def _sweep_selection(args) -> list[tuple[int, list[int], list[int]]]:
    """``(n, p values, n1 values)`` for each n the sweep selects, once all of
    it is checked: it is not empty, every (n, p) is a guest shape, and with
    ``--exhaustive`` every n runs the engine and every (n, p) fits ``--budget``."""
    # The selected n are one interval: each needs n >= p >= 2 and n >= n1 >= 1.
    p_low = 2 if args.p is None else args.p
    n1_low = 1 if args.n1 is None else args.n1
    ns = range(max(args.n_min, p_low, n1_low), args.n_max + 1)
    if not ns or p_low < 2 or n1_low < 1:
        raise ValueError("the sweep selects no instance: it needs some n in "
                         f"{args.n_min}..{args.n_max} with 2 <= p <= n and 1 <= n1 <= n")
    # The guest check bounds n alone, and (largest n, p_low) is selected.
    check_guest_shape(ns[-1], p_low)
    selection = [(n, list(range(2, n + 1)) if args.p is None else [args.p],
                  list(range(1, n + 1)) if args.n1 is None else [args.n1]) for n in ns]
    if args.exhaustive:
        if args.engine == "off" or ns[-1] > ENGINE_MAX_N:
            raise ValueError(f"--exhaustive needs the engine (--engine auto, n <= {ENGINE_MAX_N})")
        from treebed.search import _check_budget

        for n, p_values, _ in selection:
            for p in p_values:
                _check_budget(1 << n, 1 << p, args.budget, prefix=f"n={n}, p={p}: ")
    return selection


def _sweep_rows(args, selection):
    """One tuple per instance of ``selection`` in ``SWEEP_COLUMNS`` order,
    with ``None`` for each column the run does not compute.  The engine
    columns of each n are computed host by host, every p on one host, so
    one host is alive at a time; the rows then come out p-major."""
    kinds = ["binary", "sibling"] if args.host == "both" else [args.host]
    for n, p_values, n1_values in selection:
        engine = n <= ENGINE_MAX_N and args.engine != "off"
        guests = [Guest(n, p) for p in p_values] if engine else []
        columns = {}  # (p, n1, kind) -> direct, via_partition, best, cut_conditions_ok
        for n1, kind in product(n1_values, kinds) if guests else ():
            host = _build_labeled(n1, 1 << (n - n1), kind, 0)
            for guest in guests:
                report = build_report(guest, host, identity_embedding(guest, host))
                best = None
                if args.exhaustive:
                    from treebed.search import exhaustive_min_wirelength

                    best = exhaustive_min_wirelength(guest, host, budget=args.budget).best_value
                columns[guest.p, n1, kind] = (
                    report.direct, report.via_partition, best, report.cut_conditions_ok
                )
        for p, n1, kind in product(p_values, n1_values, kinds):
            closed = formulas.closed_form_wirelength(n, p, n1=n1, sibling=(kind == "sibling"))
            row = (n, p, n1, 1 << (n - n1), kind, closed)
            if not engine:
                yield (*row, *[None] * 7)
                continue
            direct, partition, best, cut_ok = columns[p, n1, kind]
            matches = None if best is None else best == closed
            yield (*row, direct, partition, best,
                   direct == closed, partition == direct, matches, cut_ok)


def cmd_sweep(args) -> int:
    rows = list(_sweep_rows(args, _sweep_selection(args)))
    failed = any(value is False for row in rows for value in row[9:])
    if args.output == "json":
        print(_json([dict(zip(SWEEP_COLUMNS, row)) for row in rows]))
    else:
        # No field holds a comma, quote or newline: integers, host kinds,
        # true/false or empty.
        lines = [",".join(SWEEP_COLUMNS)]
        lines.extend(
            ",".join("" if value is None else str(value).lower() for value in row)
            for row in rows
        )
        sys.stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def _host_dot(host: HostTree) -> str:
    block = 1 << host.n1
    # Heap index h sits at level h.bit_length(), pendants at level 0.
    by_level: list[list[int]] = [[] for _ in range(host.n1 + 1)]
    for base in range(0, host.vertex_count, block):
        for lab, h in enumerate(host.layout, start=base + 1):
            by_level[h.bit_length()].append(lab)
        by_level[0].append(base + block)
    lines = ["graph host {", "  node [shape=circle];"]
    for level in by_level:
        members = " ".join(f"{lab};" for lab in sorted(level))
        lines.append(f"  {{ rank=same; {members} }}")
    sib = host.links.sib
    for a, b in sorted(host.links.edges):
        if sib[a] == b:
            lines.append(f"  {a} -- {b} [style=dashed];")
        elif not (a % block or b % block):  # chain links join two pendants
            lines.append(f"  {a} -- {b} [style=bold];")
        else:
            lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _guest_dot(guest: Guest) -> str:
    lines = ["graph guest {", "  node [shape=circle];"]
    for idx, part in enumerate(guest.partites, start=1):
        members = " ".join(f"{v};" for v in sorted(part))
        lines.append(
            f'  subgraph cluster_{idx} {{ label="partite {idx}"; {members} }}'
        )
    parts = guest.part_count
    # u and v share a partite set exactly when parts divides v - u.
    pairs = combinations(range(1, guest.vertex_count + 1), 2)
    lines.extend(f"  {u} -- {v};" for u, v in pairs if (v - u) % parts)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args) -> int:
    if args.target == "guest":
        if args.n is None or args.p is None:
            raise ValueError("guest export needs --n and --p")
        if args.n > ENGINE_MAX_N:
            raise ValueError(f"guest export is capped at n <= {ENGINE_MAX_N}")
        text = _guest_dot(Guest(args.n, args.p))
    else:
        if args.n1 is None:
            raise ValueError("host export needs --n1")
        check_host_shape(args.n1, args.k)
        if args.n1 > 10 or args.k * (1 << args.n1) > 1024:
            raise ValueError("host export is capped at 1024 vertices")
        text = _host_dot(_build_labeled(args.n1, args.k, args.host, args.variant))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Every subcommand, as (help line, command function, options), declared
# once.  Each option maps its name to the keyword arguments ``build_parser``
# hands ``add_argument``; ``_read_argv`` reads the same entries: ``type``
# (``int``, else the text is the value), ``choices``, ``default``,
# ``required``, the ``store_true`` flag and ``--swap``'s two appended
# values.  The one positional is export-dot's ``target``.
_OUTPUT_TEXT = {"choices": ["json", "text"], "default": "json"}
_BUDGET = {"type": int, "default": DEFAULT_PARTITION_BUDGET,
           "help": "bound on label partitions each exhaustive run may evaluate "
           f"(default: {DEFAULT_PARTITION_BUDGET}, about 6 s)"}
_INSTANCE_OPTIONS = {
    "--n": {"type": int, "required": True, "help": "guest has 2**n vertices"},
    "--p": {"type": int, "required": True, "help": "2**p partite sets"},
    "--n1": {"type": int, "default": None,
             "help": "host block height (default: n, a single tree)"},
    "--host": {"choices": ["binary", "sibling"], "default": "binary",
               "help": "host kind (default: binary)"},
    "--variant": {"type": int, "default": 0, "choices": LAYOUT_VARIANTS,
                  "help": "sibling layout variant (default: 0)"},
    "--swap": {"type": int, "nargs": 2, "action": "append", "metavar": ("A", "B"),
               "help": "swap labels A and B in the embedding; repeatable"},
}
SUBCOMMANDS = {
    "guest": ("describe a guest graph", cmd_guest, {
        "--n": {"type": int, "required": True},
        "--p": {"type": int, "required": True},
        "--output": _OUTPUT_TEXT,
    }),
    "host": ("describe a labeled host tree", cmd_host, {
        "--n1": {"type": int, "required": True, "help": "block height"},
        "--k": {"type": int, "default": 1, "help": "number of blocks (default: 1)"},
        "--host": {"choices": ["binary", "sibling"], "default": "binary"},
        "--variant": {"type": int, "default": 0, "choices": LAYOUT_VARIANTS},
        "--output": _OUTPUT_TEXT,
    }),
    "wirelength": ("compute and cross-check wirelengths", cmd_wirelength, {
        **_INSTANCE_OPTIONS,
        "--exhaustive": {"action": "store_true",
                         "help": "also take the exact minimum over all embeddings "
                         "(needs at most --budget label partitions)"},
        "--budget": _BUDGET,
        "--local-search": {"type": int, "default": None, "metavar": "ITERS",
                           "help": "also run 2-swap local search for ITERS restarts; "
                           "reported as an upper bound and requires --seed"},
        "--seed": {"type": int, "default": None,
                   "help": "explicit seed for --local-search (no wall-clock seeding)"},
        "--output": _OUTPUT_TEXT,
    }),
    "verify": ("check cut conditions cut by cut", cmd_verify, {
        **_INSTANCE_OPTIONS,
        "--output": _OUTPUT_TEXT,
    }),
    "sweep": ("tabulate instances as CSV or JSON", cmd_sweep, {
        "--n-min": {"type": int, "required": True},
        "--n-max": {"type": int, "required": True},
        "--p": {"type": int, "default": None,
                "help": "fix p (default: all 2..n per row)"},
        "--n1": {"type": int, "default": None,
                 "help": "fix n1 (default: all 1..n per row)"},
        "--host": {"choices": ["binary", "sibling", "both"], "default": "both"},
        "--engine": {"choices": ["auto", "off"], "default": "auto",
                     "help": "auto runs the engine when n <= 8 (default)"},
        "--exhaustive": {"action": "store_true",
                         "help": "add exhaustive minima (needs the engine on every row, "
                         "and at most --budget label partitions per shape)"},
        "--budget": _BUDGET,
        "--output": {"choices": ["csv", "json"], "default": "csv"},
    }),
    "export-dot": ("emit a Graphviz drawing", cmd_export_dot, {
        "target": {"choices": ["host", "guest"]},
        "--n": {"type": int, "default": None},
        "--p": {"type": int, "default": None},
        "--n1": {"type": int, "default": None},
        "--k": {"type": int, "default": 1},
        "--host": {"choices": ["binary", "sibling"], "default": "binary"},
        "--variant": {"type": int, "default": 0, "choices": LAYOUT_VARIANTS},
        "--out": {"default": None, "help": "write to a file instead of stdout"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for ``SUBCOMMANDS``; it writes every help text
    and usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="treebed",
        description="Wirelength laboratory: complete multipartite guests "
        "into chained binary and sibling trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, options) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, spec in options.items():
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv) -> SimpleNamespace | None:
    """``argv`` read straight off ``SUBCOMMANDS`` when it is spelled the
    canonical way, else ``None``.

    The canonical way is the subcommand first, then ``--name value``
    (``--swap A B``, a bare ``--exhaustive``) and export-dot's target, in any
    order; a repeated option keeps its last value, as in argparse.  Values
    are converted and checked against the table and missing options take
    their defaults, so the result has the attributes, and the values,
    ``build_parser().parse_args(argv)`` gives.  Anything else is ``None``
    and left to argparse: help, ``--name=value``, abbreviations, unknown or
    missing options, bad values, and values starting with ``-`` other than
    negative decimal integers.
    """
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, func, options = SUBCOMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("--") and token in options:
            name, spec = token, options[token]
            if spec.get("action") == "store_true":
                given[name] = True
                continue
            texts = [next(tokens, None) for _ in range(spec.get("nargs", 1))]
        elif "target" in options and "target" not in given:
            name, spec, texts = "target", options["target"], [token]
        else:
            return None
        values = [_read_value(spec, text) for text in texts]
        if None in values:
            return None
        if spec.get("action") == "append":
            given.setdefault(name, []).append(values)
        else:
            given[name] = values[0]
    args = {"command": argv[0], "func": func}
    for name, spec in options.items():
        if name in given:
            value = given[name]
        elif spec.get("required") or not name.startswith("--"):
            return None
        elif spec.get("action") == "store_true":
            value = False
        else:
            value = spec.get("default")
        args[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**args)


def _read_value(spec: dict, text: str | None):
    """``text`` converted and checked as argparse would, or ``None`` where
    argparse would not read it as this value."""
    if text is None:
        return None
    if text[:1] == "-" and not text[1:].isdecimal():
        return None
    kind = spec.get("type")
    if kind is not None:
        try:
            text = kind(text)
        except ValueError:
            return None
    choices = spec.get("choices")
    return None if choices is not None and text not in choices else text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    # A request makes no reference cycles, so the collector would only traverse its tables.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ConsistencyError, CoverageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


# Everything alive now (the interpreter's, ``site``'s and the package's
# objects) outlives any request, so move it to the collector's permanent
# generation: neither a request's collections nor the ones at interpreter
# exit traverse it again.  Objects made later are collected as before.  Not
# in ``main``, which would freeze each in-process call's leftovers.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
