"""The dict-row fold, kept as the oracle for the flat-row one.

``build_ball`` here is the fold ``trigroup.cayley`` ran before its rows moved
into the flat slot layout of ``BallGraph.adj``: one dict per union-find id,
keyed by letter, and a breadth-first renumbering at emission.  Apart from
the radius cap, which both folds dropped, it is unchanged from that version,
``_relator_variants`` included.
"""

from __future__ import annotations

from typing import Sequence

from trigroup.cayley import DEFAULT_VERTEX_BUDGET, BallGraph
from trigroup.presentation import TriangularPresentation
from trigroup.seeding import make_rng
from trigroup.words import Word, all_letters, invert_word, rotations
from union_find import UnionFind


def _relator_variants(relators: Sequence[Word]) -> list[Word]:
    seen: list[Word] = []
    for r in relators:
        for w in (r, invert_word(r)):
            for rot in rotations(w):
                if rot not in seen:
                    seen.append(rot)
    return seen


def build_ball(
    p: TriangularPresentation,
    R: int,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
    _order_seed: int | None = None,
) -> BallGraph:
    """Radius-R ball of the Cayley graph, folded to a relator fixed point.

    ``_order_seed`` shuffles the order in which relator cycles are processed;
    the result must not depend on it (folding is confluent), which the tests
    assert rather than assume.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    letters = all_letters(p.m)
    variants = _relator_variants(p.relators)

    uf = UnionFind(1)
    find, parent = uf.find, uf.parent
    adj: list[dict[int, int]] = [{}]

    def alive() -> list[int]:
        return [v for v in range(len(adj)) if parent[v] == v]

    pending: list[tuple[int, int]] = []

    def merge_all() -> None:
        """Merge the pending pairs, moving each absorbed root's edges onto
        the kept root; edges that collide there queue a further merge."""
        while pending:
            gone = uf.union(*pending.pop())
            if gone < 0:
                continue
            keep = find(gone)
            for letter, tgt in adj[gone].items():
                have = adj[keep].get(letter)
                if have is None:
                    adj[keep][letter] = tgt
                else:
                    pending.append((find(have), find(tgt)))
            adj[gone] = {}

    def add_edge(v: int, letter: int, w: int) -> bool:
        v, w = find(v), find(w)
        have = adj[v].get(letter)
        if have is not None:
            if find(have) != w:
                pending.append((find(have), w))
                merge_all()
            return False
        adj[v][letter] = w
        back = adj[w].get(-letter)
        if back is None:
            adj[w][-letter] = v
        elif find(back) != v:
            pending.append((find(back), v))
            merge_all()
        return True

    def bfs_distances() -> dict[int, int]:
        dist = {find(0): 0}
        frontier = [find(0)]
        while frontier:
            nxt = []
            for v in frontier:
                for letter in letters:
                    w = adj[v].get(letter)
                    if w is None:
                        continue
                    if parent[w] != w:
                        w = find(w)
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    rng = make_rng(_order_seed, "fold") if _order_seed is not None else None
    guard = 0
    while True:
        guard += 1
        if guard > 10_000:
            raise ArithmeticError("folding failed to stabilize")
        changed = False
        dist = bfs_distances()
        # expansion: everything within R gets its full star (frontier at R+1)
        for v in sorted(dist, key=dist.get):
            if dist[v] > R or parent[v] != v:
                continue
            for letter in letters:
                if find(v) != v or letter in adj[v]:
                    continue
                if len(adj) >= max_vertices:
                    raise ValueError(
                        f"vertex budget {max_vertices} exceeded at radius {R}"
                    )
                adj.append({})
                add_edge(v, letter, uf.add())
                changed = True
        # closure: complete or fold every relator cycle based inside R
        dist = bfs_distances()
        scan = [v for v in alive() if dist.get(v, R + 2) <= R]
        if rng is not None:
            rng.shuffle(scan)
        for v in scan:
            for word in variants:
                v0 = find(v)
                x = adj[v0].get(word[0])
                if x is None:
                    continue
                x = find(x)
                y = adj[x].get(word[1])
                if y is None:
                    continue
                y = find(y)
                z = adj[y].get(word[2])
                if z is None:
                    if add_edge(y, word[2], v0):
                        changed = True
                elif find(z) != v0:
                    pending.append((find(z), v0))
                    merge_all()
                    changed = True
        if not changed:
            break

    # canonical emission: breadth-first renumbering in letter order
    dist = bfs_distances()
    root = find(0)
    order = [root]
    new_id = {root: 0}
    for v in order:
        for letter in letters:
            w = adj[v].get(letter)
            if w is None:
                continue
            w = find(w)
            if dist[w] <= R and w not in new_id:
                new_id[w] = len(order)
                order.append(w)
    distances = tuple(dist[v] for v in order)
    flat: list[int] = []
    closed = []
    for v in order:
        nbrs = adj[v]
        row = []
        for letter in letters:
            w = nbrs.get(letter)
            row.append(-1 if w is None else new_id.get(find(w), -1))
        flat.extend(row)
        closed.append(-1 not in row)
    return BallGraph(
        presentation=p,
        radius=R,
        distances=distances,
        closed=tuple(closed),
        adj=tuple(flat),
    )
