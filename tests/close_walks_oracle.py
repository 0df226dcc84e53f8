"""``close_walks`` through ``UnionFind`` method calls, kept as the oracle for
the inlined slot union-find in ``trigroup.complexes``.  The class now lives
in ``union_find``, a test helper, since no kernel of the package uses it.
Unchanged from that version apart from its imports."""

from __future__ import annotations

from typing import Iterable

from trigroup.complexes import Walk, ref_edge
from union_find import UnionFind


def close_walks(edge_count: int, walks: Iterable[Walk]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex structure forced by requiring every walk to be a closed path.

    Endpoint slots 2e (tail) and 2e+1 (head) are merged wherever consecutive
    walk steps must share a vertex; unconstrained endpoints stay distinct.
    """
    uf = UnionFind(2 * edge_count)

    def tail_slot(ref: int) -> int:
        e = ref_edge(ref)
        return 2 * e if ref > 0 else 2 * e + 1

    def head_slot(ref: int) -> int:
        e = ref_edge(ref)
        return 2 * e + 1 if ref > 0 else 2 * e

    for walk in walks:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            uf.union(head_slot(a), tail_slot(b))
    names: dict[int, int] = {}
    edges = []
    for e in range(edge_count):
        t = names.setdefault(uf.find(2 * e), len(names))
        h = names.setdefault(uf.find(2 * e + 1), len(names))
        edges.append((t, h))
    return len(names), tuple(edges)
