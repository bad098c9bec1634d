"""Mutants of the package that the tests must kill, as a table.

Each row is ``(file, old text, new text, reason)``: replacing the old
text, which occurs exactly once in the file (relative to the repository
root), by the new text gives a program the tests should fail.  Rows in
``EQUIVALENT`` give programs that behave the same as the package, so no
test can kill them; their reason is the argument.  ``run_mutants.py``
applies each row to a copy of the checkout and runs the tests there;
``test_mutants.py`` keeps both tables in step with the code.
"""

HOSTS = "src/treebed/hosts.py"
EMBEDDING = "src/treebed/embedding.py"
CLI = "src/treebed/cli.py"
SEARCH = "src/treebed/search.py"
FORMULAS = "src/treebed/formulas.py"

MUTANTS = (
    (
        HOSTS,
        "len(indices) != len(boundary) or boundary != set(indices)",
        "boundary != set(indices)",
        "the host's cut check compares edge sets alone, so a record that lists"
        " one boundary edge twice passes",
    ),
    (
        HOSTS,
        "if base:  # the first pendant",
        "if True:  # the first pendant",
        "the top of the host, which hangs from nothing, joins the links' order",
    ),
    (
        HOSTS,
        "set(spans[lo - 1]).symmetric_difference(spans[hi])",
        "set(spans[hi])",
        "the boundary reader takes the edges spanning gap hi alone",
    ),
    (
        HOSTS,
        "set(spans[lo - 1])",
        "set(spans[lo])",
        "the boundary reader takes its left gap at lo, not lo - 1",
    ),
    (
        HOSTS,
        ".symmetric_difference(spans[hi])\n",
        ".symmetric_difference(spans[hi - 1])\n",
        "the boundary reader takes its right gap at hi - 1, not hi",
    ),
    (
        HOSTS,
        "for _, _, _, lo, hi, _, indices in cuts:",
        "for _, _, _, lo, hi, _, indices in ():",
        "the host no longer checks its standard family against the cut intervals",
    ),
    (
        HOSTS,
        "    @cached_property\n    def cuts(self)",
        "    @property\n    def cuts(self)",
        "each read of a host's cut family builds and checks it again",
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
    (
        CLI,
        "return 1 if failed else 0",
        "return 0",
        "sweep exits 0 even when a check column reads false",
    ),
    (
        CLI,
        "            for guest in guests:\n",
        "            for guest in guests:\n"
        "                host = _build_labeled(n1, 1 << (n - n1), kind, 0)\n",
        "sweep builds a host for every p, not one per block height and kind",
    ),
    (
        SEARCH,
        "if count > budget:",
        "if count < budget:",
        "the budget refuses the shapes within it and runs the ones over it",
    ),
    (
        SEARCH,
        "if count > budget:",
        "if count >= budget:",
        "the budget refuses a shape whose partition count equals it",
    ),
    (
        SEARCH,
        "            break\n",
        "            pass\n",
        "a count past 256 labels runs to its end after it passes the budget",
    ),
    (
        SEARCH,
        "if nv > _EXACT_LABELS:  #",
        "if nv >= _EXACT_LABELS:  #",
        "a refusal at 256 labels prints the order of magnitude, not the exact count",
    ),
    (
        SEARCH,
        "steps = ((left - size + 1 + i, i)",
        "steps = ((left - size + i, i)",
        "the partition count's factors start one label low",
    ),
    (
        CLI,
        'args.engine == "off" or ns[-1] > ENGINE_MAX_N',
        'args.engine == "off"',
        "an exhaustive sweep past the engine runs, its rows carrying no exhaustive value",
    ),
    (
        CLI,
        "check_guest_shape(ns[-1], p_low)",
        "check_guest_shape(ns[0], p_low)",
        "sweep checks only its smallest guest shape, so it builds rows past graphs.MAX_N",
    ),
    (
        CLI,
        "if not ns or p_low < 2 or n1_low < 1:",
        "if not ns:",
        "a fixed p below 2 or n1 below 1 is not taken for an empty selection",
    ),
    (
        SEARCH,
        "range(len(seq) - 1, 0, -1)",
        "range(len(seq) - 1, 1, -1)",
        "the shuffle never swaps the first two places",
    ),
    (
        CLI,
        '"-" if j is None else j',
        "j",
        "verify's text prints None for the j of a chain cut",
    ),
    (
        EMBEDDING,
        "load = [0] * len(links.edges)",
        "load = [0] * (len(links.edges) + 1)",
        "the routed load keeps one slot past the host's last edge",
    ),
    (
        CLI,
        "            gc.enable()\n",
        "            pass\n",
        "a CLI request leaves the cyclic collector off",
    ),
    (
        CLI,
        "        if collecting:\n",
        "        if True:\n",
        "a CLI request turns the cyclic collector on though its caller had it off",
    ),
    (
        SEARCH,
        "    del place  #",
        "    #",
        "the exhaustive search leaves its recursive closure in a reference cycle",
    ),
    (
        EMBEDDING,
        "leaving[s] = len(members) - totals[partite_at[s]]",
        "leaving[s] = len(members) - totals[partite_at[s]] + (s == 1)",
        "the routed load adds one guest edge leaving label 1 on every link above it",
    ),
    (
        EMBEDDING,
        "CutReport(family, j, i, congestion)",
        "CutReport(family, j, i, leaving)",
        "each cut's ec is its counted leaving guest edges, not its routed congestion",
    ),
    (
        HOSTS,
        "dist[sib[t]] = dist[t] + 1",
        "dist[sib[t]] = dist[t] + 2",
        "the distance rows count a spine label's sibling two steps from it, not one",
    ),
    (
        EMBEDDING,
        "sib[t] if sib[t] in height else up[t]",
        "up[t]",
        "a route never steps across to a sibling on the goal's spine",
    ),
    (
        HOSTS,
        "self.k * ((1 << (self.n1 - 1)) - 1) if self.sibling",
        "self.k * (1 << (self.n1 - 1)) if self.sibling",
        "a sibling host counts one sibling edge per block too many",
    ),
    (
        EMBEDDING,
        "if edges[x] == (lo, hi)",
        "if True",
        "edge_congestion takes any edge at the smaller label for a pair that no"
        " edge joins",
    ),
    (
        SEARCH,
        "        if iterations:\n",
        "        if True:\n",
        "local search with iterations=0 descends from the seed embedding instead"
        " of reporting it",
    ),
    (
        SEARCH,
        "    if size == 1:\n",
        "    if False:\n",
        "p = n runs the recursion, a stack frame per label, past the interpreter's"
        " limit at n = 10",
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
    (
        FORMULAS,
        "if m >= parts:",
        "if m > parts:",
        "at m == parts both branches add parts * k * (k - 1) * (k - 2) / 3:"
        " c = 1 gives parts * (s2 - s1), and rounds = k, period = 1 give the same",
    ),
)
