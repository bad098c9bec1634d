"""Mutants of the package that the tests must kill, as a table.

Each row is ``(file, old text, new text, reason)``: replacing the old
text, which occurs exactly once in the file (relative to the repository
root), by the new text gives a program the tests should fail.  No runner
applies the rows yet; ``test_mutants.py`` keeps the table in step with
the code.
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
        CLI,
        "except (OSError, ConsistencyError, CoverageError) as exc:",
        "except OSError as exc:",
        "a failed internal cross-check escapes cli.main instead of exiting 1",
    ),
)
