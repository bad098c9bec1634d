"""Wirelength laboratory for embedding complete multipartite graphs into trees.

The package builds balanced complete multipartite guest graphs, chains of
rooted complete binary trees (optionally with sibling edges) as hosts, and
computes minimum wirelengths three independent ways: routed shortest paths,
cut-congestion accounting, and closed formulas, with exhaustive search as
the ground truth on small instances.
"""

from treebed.embedding import (
    CutConditionReport,
    CutReport,
    Embedding,
    WirelengthReport,
    build_report,
    congestion_lemma_value,
    cut_congestion,
    edge_congestion,
    identity_embedding,
    route,
    verify_cut_conditions,
    wirelength_direct,
    wirelength_via_partition,
)
from treebed.errors import (
    BudgetExceededError,
    ConsistencyError,
    CoverageError,
)
from treebed.formulas import (
    closed_form_wirelength,
    interval_boundary_congestion,
    max_subgraph_edges_closed_form,
)
from treebed.graphs import Guest, build_guest
from treebed.hosts import (
    LAYOUT_VARIANTS,
    EdgeCut,
    HostTree,
    build_host,
    cut_edges,
    cut_family,
    inorder_labeling,
    sibling_layout_labeling,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConsistencyError",
    "CoverageError",
    "CutConditionReport",
    "CutReport",
    "EdgeCut",
    "Embedding",
    "Guest",
    "HostTree",
    "LAYOUT_VARIANTS",
    "SearchResult",
    "WirelengthReport",
    "build_guest",
    "build_host",
    "build_report",
    "closed_form_wirelength",
    "congestion_lemma_value",
    "cut_congestion",
    "cut_edges",
    "cut_family",
    "edge_congestion",
    "exhaustive_min_wirelength",
    "identity_embedding",
    "inorder_labeling",
    "interval_boundary_congestion",
    "local_search_min",
    "max_subgraph_edges_closed_form",
    "route",
    "sibling_layout_labeling",
    "verify_cut_conditions",
    "wirelength_direct",
    "wirelength_via_partition",
]

# The search names load ``treebed.search`` on first use, so that importing
# the package (or the CLI) for a plain wirelength check does not.
_SEARCH_NAMES = ("SearchResult", "exhaustive_min_wirelength", "local_search_min")


def __getattr__(name: str):
    if name in _SEARCH_NAMES:
        from treebed import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SEARCH_NAMES})
