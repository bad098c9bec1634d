"""Closed-form minimum wirelengths.

Everything here is exact integer arithmetic on the parameters

    n  : the guest has 2**n vertices,
    p  : split into 2**p equal partite sets (2 <= p <= n),
    n1 : block height of the host, so the host chains k = 2**(n - n1) blocks.

The minimum wirelength of an instance is the coverage-weighted sum of the
minimum congestions of its cut family.  Each cut isolates a label interval,
and the interval's length alone gives its minimum congestion,
``interval_boundary_congestion``.  That rests on the edge-isoperimetric
profile of the guest, ``max_subgraph_edges_closed_form``, the largest edge
count any vertex set of a given size induces.
"""

from __future__ import annotations

from treebed.errors import ConsistencyError
from treebed.graphs import check_guest_shape

__all__ = [
    "max_subgraph_edges_closed_form",
    "interval_boundary_congestion",
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
    if not (isinstance(p_parts, int) and p_parts >= 2):
        raise ValueError(f"need at least two partite sets, got {p_parts}")
    if not (isinstance(r, int) and r >= 1):
        raise ValueError(f"partite set size must be positive, got {r}")
    if not (isinstance(k, int) and 0 <= k <= p_parts * r):
        raise ValueError(f"k={k} out of range 0..{p_parts * r}")
    q, j = divmod(k, p_parts)
    return q * q * p_parts * (p_parts - 1) // 2 + j * q * (p_parts - 1) + j * (j - 1) // 2


def interval_boundary_congestion(size: int, n: int, p: int) -> int:
    """Guest edges leaving an optimal vertex set of the given size.

    Any ``size`` consecutive guest labels form such a set, so this is the
    minimum congestion of a cut isolating ``size`` labels.
    """
    check_guest_shape(n, p)
    if not (isinstance(size, int) and 0 <= size <= 1 << n):
        raise ValueError(f"size={size} out of range 0..{1 << n}")
    degree = (1 << (n - p)) * ((1 << p) - 1)
    return size * degree - 2 * max_subgraph_edges_closed_form(
        1 << p, 1 << (n - p), size
    )


def _chain_sum(n: int, n1: int, p: int) -> int:
    """``interval_boundary_congestion(i * 2**n1, n, p)`` summed over the
    chain cuts ``i = 1..k-1``, in O(1) big-integer operations.

    With ``P = 2**p`` partite sets and ``s = q*P + j``, ``0 <= j < P``, the
    summand is ``s*(deg + 1 - s) + P*q*(q - 1) + 2*j*q``.  The first term is
    a polynomial in ``i``.  When ``2**n1 >= P`` every ``s`` is a multiple of
    ``P``, so ``j = 0`` and ``q = i * 2**n1 / P``.  Otherwise ``i = a*L + b``
    with ``L = P / 2**n1`` and ``0 <= b < L``, so ``q = a`` and ``j = b *
    2**n1``, and ``a`` and ``b`` run over full ranges (``L`` divides k).
    """
    m, k, parts = 1 << n1, 1 << (n - n1), 1 << p
    s1 = k * (k - 1) // 2  # sum of i, and of i**2 below, over i < k
    s2 = s1 * (2 * k - 1) // 3
    total = m * ((1 << n) - (1 << (n - p)) + 1) * s1 - m * m * s2
    if m >= parts:
        c = m // parts
        return total + parts * (c * c * s2 - c * s1)
    rounds, period = 1 << (n - p), parts // m  # the ranges of a and b
    return (
        total
        + period * parts * rounds * (rounds - 1) * (rounds - 2) // 3
        + m * rounds * (rounds - 1) * period * (period - 1) // 2
    )


def closed_form_wirelength(
    n: int, p: int, n1: int | None = None, sibling: bool = False
) -> int:
    """Minimum wirelength into the k-block binary or sibling host.

    ``n1=None`` means the single-block host (n1 = n).  Each block has
    ``2**(n1 - j)`` subtree cuts of ``2**j - 1`` labels per height j, and
    the k - 1 chain cuts follow the blocks; on a plain host every edge lies
    in exactly one cut.  A sibling host's family covers every edge twice:
    its subtree cuts take the sibling edge too, and each block adds
    ``2**(n1 - j - 1)`` cuts of ``2**(j + 1) - 2`` labels around its
    sibling pairs of height j and one more pendant cut, with the chain cuts
    counted twice.  Dividing the congestion total by the coverage must come
    out exact.
    """
    if n1 is None:
        n1 = n
    check_guest_shape(n, p)
    if not (isinstance(n1, int) and 1 <= n1 <= n):
        raise ValueError(f"need 1 <= n1 <= n, got n1={n1}, n={n}")
    per_block = sum(
        (1 << (n1 - j)) * interval_boundary_congestion((1 << j) - 1, n, p)
        for j in range(1, n1 + 1)
    )
    coverage = 2 if sibling else 1
    if sibling:
        per_block += interval_boundary_congestion((1 << n1) - 1, n, p) + sum(
            (1 << (n1 - j - 1)) * interval_boundary_congestion((2 << j) - 2, n, p)
            for j in range(1, n1)
        )
    total = (1 << (n - n1)) * per_block + coverage * _chain_sum(n, n1, p)
    if total % coverage:
        raise ConsistencyError(
            f"congestion total {total} is not divisible by coverage {coverage}"
        )
    return total // coverage
