"""Check that the compiled enumeration kernels agree with the pure ones.

Usage: python3 perfbench/kernel_check.py

Runs the 8! bijection search and the 16-vertex subset sweep through
``treebed._kernels`` and ``treebed._kernels_py`` and exits 1, naming the
case, when any result differs.  The benchmark calls it for the ``search``
workload when the extension is built.
"""

import sys

from treebed import _kernels as compiled
from treebed import _kernels_py, build_guest, build_host, inorder_labeling
from treebed.search import _instance_tables


def cases():
    guest = build_guest(3, 2)
    tables = _instance_tables(guest, inorder_labeling(build_host(3, 1)))
    yield "bijections n=3 p=2", lambda impl: impl.min_wirelength_bijections(*tables, None)

    graph = build_guest(4, 2).graph
    nv = graph.vertex_count
    masks = [0] * nv
    for a, b in graph.edges:
        masks[a - 1] |= 1 << (b - 1)
        masks[b - 1] |= 1 << (a - 1)
    yield "subsets n=4 p=2", lambda impl: [
        impl.max_induced_edges(nv, masks, k) for k in range(nv + 1)
    ]


def main() -> int:
    bad = [name for name, run in cases() if run(compiled) != run(_kernels_py)]
    if bad:
        print("kernel mismatch: " + ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
