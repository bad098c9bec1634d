"""Mutants of the package that the tests must kill, as a table.

Each row is ``(file, old text, new text, reason)``: replacing the old
text, which occurs exactly once in the file (relative to the repository
root), by the new text gives a program the tests should fail.  Rows in
``EQUIVALENT`` give programs that behave the same as the package, so no
test can kill them; their reason is the argument.  No runner applies the
rows yet; ``test_mutants.py`` keeps both tables in step with the code.
"""

HOSTS = "src/treebed/hosts.py"
EMBEDDING = "src/treebed/embedding.py"
CLI = "src/treebed/cli.py"

MUTANTS = (
    (
        HOSTS,
        "len(listed) != len(indices) or ",
        "",
        "a record that lists one boundary edge twice passes the boundary check",
    ),
    (
        HOSTS,
        "listed != span.symmetric_difference(kept[lo])",
        "listed != span",
        "the boundary check compares against the edges spanning gap hi alone",
    ),
    (
        HOSTS,
        "if g + 1 in kept:\n            kept[g + 1] = tuple(span)",
        "if g in kept:\n            kept[g] = tuple(span)",
        "the boundary check keeps its left snapshot at gap lo, not lo - 1",
    ),
    (
        HOSTS,
        "ends.setdefault(hi, [])",
        "ends.setdefault(hi - 1, [])",
        "the boundary check compares each cut at gap hi - 1, not hi",
    ),
    (
        EMBEDDING,
        "    _check_boundaries(host.links, host.vertex_count, cuts)\n",
        "",
        "build_report no longer cross-checks the standard family",
    ),
    (
        EMBEDDING,
        "interval_boundary_congestion(side, guest.n, guest.p)",
        "interval_boundary_congestion(side + 1, guest.n, guest.p)",
        "a cut's preimages are judged against the minimum for one more label",
    ),
    (
        EMBEDDING,
        "x = next(x for x, c in enumerate(coverage) if c != k_mult)",
        "x = 0",
        "the coverage error names the first host edge, not the first that differs",
    ),
    (
        HOSTS,
        "EdgeCut(*cut[:6])",
        "EdgeCut(*cut[:5])",
        "cut_family drops each cut's multiplicity share, so every share is 1",
    ),
    (
        CLI,
        "except (OSError, ConsistencyError, CoverageError) as exc:",
        "except OSError as exc:",
        "a failed internal cross-check escapes cli.main instead of exiting 1",
    ),
)

EQUIVALENT = (
    (
        EMBEDDING,
        "optimal = leaving == least[side]",
        "optimal = leaving <= least[side]",
        "no set of a size leaves fewer guest edges than the least for that size,"
        " so leaving is never below least[side]",
    ),
)
