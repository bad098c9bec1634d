"""Closed-form minimum wirelengths and the cut congestions behind them.

Everything here is exact integer arithmetic on the parameters

    n  : the guest has 2**n vertices,
    p  : split into 2**p equal partite sets (2 <= p <= n),
    n1 : block height of the host, so the host chains k = 2**(n - n1) blocks.

The minimum wirelength of an instance is the coverage-weighted sum of the
minimum congestions of its cut family.  Each cut isolates a label interval;
the interval's length determines its minimum congestion, which is what the
helpers below compute.  They rest on the edge-isoperimetric profile of the
guest, ``max_subgraph_edges_closed_form``, the largest edge count any
vertex set of a given size induces.  Single-tree forms are the chain forms
at n1 = n.
"""

from __future__ import annotations

from treebed.errors import ConsistencyError
from treebed.graphs import MAX_N, check_guest_shape

__all__ = [
    "max_subgraph_edges_closed_form",
    "interval_boundary_congestion",
    "branch_cut_congestion",
    "pair_cut_congestion",
    "chain_cut_congestion",
    "wl_binary",
    "wl_binary_chain",
    "wl_sibling",
    "wl_sibling_chain",
    "closed_form_wirelength",
]


def max_subgraph_edges_closed_form(p_parts: int, r: int, k: int) -> int:
    """Largest edge count induced by k vertices of ``K_{r,...,r}``.

    ``p_parts`` is the number of partite sets, each of size ``r``.  Writing
    ``k = q * p_parts + j`` with ``0 <= j < p_parts``, an optimal subset has
    ``j`` partite sets contributing ``q + 1`` vertices and the rest ``q``:

        q^2 * C(p_parts, 2) + j*q*(p_parts - 1) + C(j, 2)

    The expression collapses to ``C(k, 2)`` while ``k < p_parts`` (no pair
    shares a partite set yet) and to ``q^2 * C(p_parts, 2)`` at multiples.
    """
    if p_parts < 2:
        raise ValueError(f"need at least two partite sets, got {p_parts}")
    if r < 1:
        raise ValueError(f"partite set size must be positive, got {r}")
    if not 0 <= k <= p_parts * r:
        raise ValueError(f"k={k} out of range 0..{p_parts * r}")
    q, j = divmod(k, p_parts)
    return q * q * p_parts * (p_parts - 1) // 2 + j * q * (p_parts - 1) + j * (j - 1) // 2


def _check_chain(n: int, n1: int, p: int) -> None:
    check_guest_shape(n, p)
    if not 1 <= n1 <= n:
        raise ValueError(f"need 1 <= n1 <= n, got n1={n1}, n={n}")


def interval_boundary_congestion(size: int, n: int, p: int) -> int:
    """Guest edges leaving an optimal vertex set of the given size.

    Any ``size`` consecutive guest labels form such a set, so this is the
    minimum congestion of a cut isolating ``size`` labels.
    """
    check_guest_shape(n, p)
    if not 0 <= size <= 1 << n:
        raise ValueError(f"size={size} out of range 0..{1 << n}")
    degree = (1 << (n - p)) * ((1 << p) - 1)
    return size * degree - 2 * max_subgraph_edges_closed_form(
        1 << p, 1 << (n - p), size
    )


def branch_cut_congestion(j: int, n: int, p: int) -> int:
    """Minimum congestion of a cut isolating one height-j subtree (2**j - 1 labels).

    While the subtree is smaller than one partite set round (j <= p) every
    pair inside it can be adjacent; past that the partite sets saturate and
    the count grows linearly per level.
    """
    check_guest_shape(n, p)
    if not 1 <= j <= n:
        raise ValueError(f"need 1 <= j <= n, got j={j}")
    if j <= p:
        return ((1 << j) - 1) * ((1 << (n - p)) * ((1 << p) - 1) - ((1 << j) - 2))
    return ((1 << p) - 1) * (
        (1 << (n - p)) * ((1 << j) - 1) - (1 << (j - p)) * ((1 << j) - 2)
    )


def pair_cut_congestion(j: int, n: int, p: int) -> int:
    """Minimum congestion of a cut isolating two height-j subtrees together.

    These are the cuts around a sibling pair; the component holds
    ``2**(j+1) - 2`` labels.
    """
    check_guest_shape(n, p)
    if not 1 <= j <= n - 1:
        raise ValueError(f"need 1 <= j <= n - 1, got j={j}")
    if j + 1 <= p:
        return ((1 << (j + 1)) - 2) * (
            (1 << (n - p)) * ((1 << p) - 1) - ((1 << (j + 1)) - 3)
        )
    return ((1 << p) - 1) * (
        (1 << (n - p)) * ((1 << (j + 1)) - 2) - (1 << (j - p + 2)) * ((1 << j) - 2)
    ) - 2


def chain_cut_congestion(i: int, n1: int, n: int, p: int) -> int:
    """Minimum congestion of the chain cut after block ``i`` (labels 1..i * 2**n1).

    This is the interval boundary at size ``i * 2**n1``; unlike the branch
    and pair cases the interval need not line up with partite set rounds,
    so no simpler split into cases covers every (i, n1, p).
    """
    _check_chain(n, n1, p)
    k = 1 << (n - n1)
    if not 1 <= i <= k - 1:
        raise ValueError(f"need 1 <= i <= {k - 1}, got i={i}")
    return interval_boundary_congestion(i << n1, n, p)


def wl_binary(n: int, p: int) -> int:
    """Minimum wirelength into the single plain binary host (k = 1)."""
    return wl_binary_chain(n, n, p)


def wl_binary_chain(n: int, n1: int, p: int) -> int:
    """Minimum wirelength into the k-block plain binary host.

    Each host edge lies in exactly one cut: 2**(n1 - j) branch cuts per
    block at each height j, plus k - 1 chain cuts.
    """
    _check_chain(n, n1, p)
    k = 1 << (n - n1)
    per_block = sum(
        (1 << (n1 - j)) * branch_cut_congestion(j, n, p) for j in range(1, n1 + 1)
    )
    chain = sum(chain_cut_congestion(i, n1, n, p) for i in range(1, k))
    return k * per_block + chain


def wl_sibling(n: int, p: int) -> int:
    """Minimum wirelength into the single sibling host (k = 1)."""
    return wl_sibling_chain(n, n, p)


def wl_sibling_chain(n: int, n1: int, p: int) -> int:
    """Minimum wirelength into the k-block sibling host.

    The sibling cut family covers every host edge exactly twice: branch
    cuts (now two edges each), pair cuts around each sibling pair, one
    extra pendant cut per block, and doubled chain cuts.  Dividing the
    congestion total by two must come out exact.
    """
    _check_chain(n, n1, p)
    k = 1 << (n - n1)
    per_block = (
        sum((1 << (n1 - j)) * branch_cut_congestion(j, n, p) for j in range(1, n1 + 1))
        + sum(
            (1 << (n1 - j - 1)) * pair_cut_congestion(j, n, p)
            for j in range(1, n1)
        )
        + branch_cut_congestion(n1, n, p)
    )
    chain = sum(chain_cut_congestion(i, n1, n, p) for i in range(1, k))
    total = k * per_block + 2 * chain
    if total % 2:
        raise ConsistencyError(f"sibling congestion total {total} is odd")
    return total // 2


def closed_form_wirelength(
    n: int, p: int, n1: int | None = None, sibling: bool = False
) -> int:
    """Dispatch to the closed form for the requested host shape.

    ``n1=None`` means the single-block host (n1 = n).
    """
    if n1 is None:
        n1 = n
    if sibling:
        return wl_sibling_chain(n, n1, p)
    return wl_binary_chain(n, n1, p)
