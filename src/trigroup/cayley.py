"""Bounded Cayley balls, slimness probing, and the parallel-geodesics demo.

A ball is grown to radius R+1 by a worklist fold in the style of Felsch
coset enumeration: vertices within R are expanded in the order they were
defined, and every new edge or merge is a deduction that rescans only the
relator cycles it can complete, in two scans, one with the edge first in the
cycle and one with it second, completing a missing edge or folding two
vertices together, until nothing is left to deduce.  Each vertex carries a
depth, an upper bound on its distance from the origin; the breadth-first
search that numbers the emitted ball corrects the depths it finds too large
and resumes the fold if that brings a vertex within R.  The emitted graph
keeps the radius-R part with exact distances.  A vertex is ``closed`` when
its whole star of 2m edges lands inside the emitted ball; slimness probing
draws triangle corners from closed vertices only, so frontier truncation can
never fake a geodesic.

Adjacency is one flat tuple ``adj`` of ``V * 2m`` vertex ids: slot ``s`` of
vertex ``v`` sits at ``v * 2m + s``, slots follow ``words.all_letters(m)``
(a, A, b, B, ...), so the inverse of slot ``s`` is ``s ^ 1``, and -1 marks a
missing edge.  The fold, emission, the loader and the slimness probe share
this one layout: the fold keeps a row of 2m slots per union-find id, and
emission copies the rows within R through the breadth-first numbering.  A
vertex one step beyond R whose only edge is the one that made it is a leaf:
its slot holds ``LEAF`` and it has no id or row until the fold reads it as
a vertex, which most of them never are.
``ballgraph_chunks`` renders a ball's JSON report straight from ``adj``,
in the bytes of the indented ``json.dumps`` of ``ball_to_json_dict``,
which stays as its test oracle.

``ball_from_json_dict`` checks a ballgraph's links and distances in its one
pass over the vertices, by a tally taken at each edge's second end, the slot
whose target was numbered earlier.  The whole-ball scans ``_check_links`` and
``_check_distances``, which reads the slimness probe's ``_search`` from
vertex 0, run only when the tally cannot accept, to word the refusal;
``build_ball`` runs ``_check_links`` on every ball it emits.

Slimness probing is local: the geodesics between two corners come from
breadth-first balls grown around both corners until they meet, which span
the shortest paths between them, and a side's distance to the other two
sides comes from one multi-source search that stops once every point of the
side is reached.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .complexes import VanKampenDiagram, close_walks
from .presentation import (
    TriangularPresentation,
    density_from_str,
    json_count,
    json_int,
    json_list,
    json_require,
)
from .seeding import make_rng
from .words import (
    Word,
    all_letters,
    rotations,
    invert_word,
    word_to_json,
    word_from_json,
    word_to_str,
    word_from_str,
)

DEFAULT_VERTEX_BUDGET = 200_000
# the loader refuses a ballgraph whose adjacency would need more slots
# (V * 2m) than this, rather than allocate it: about 130 MB of references.
# The fold stops before the vertices it makes, leaves included, would need
# more slots at 2m each, though a leaf takes a row only once it gets an id,
# so it writes no ball the loader refuses
MAX_ADJACENCY_SLOTS = 1 << 24
# a fold row's slot that leads to a leaf: a vertex beyond R whose only edge
# is this one, which has no id until the fold reads it (see build_ball)
LEAF = -2
# the slimness estimate tries up to SIDE_CAP geodesics per side of a
# triangle and up to COMBO_CAP choices of its three sides
SIDE_CAP = 16
COMBO_CAP = 1024

# one relator ab^2: the group is free on b, with a identified to b^-2
STRIP_PRESENTATION = TriangularPresentation(
    m=2, density=Fraction(1, 5), seed=None, relators=((1, 2, 2),)
)


def _slot(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (letter < 0)


class BallGraph:
    __slots__ = ("presentation", "radius", "distances", "closed", "adj")

    def __init__(
        self,
        presentation: TriangularPresentation,
        radius: int,
        distances: tuple[int, ...],
        closed: tuple[bool, ...],
        adj: tuple[int, ...],  # V * 2m targets, slot order of words.all_letters; -1 for no edge
    ) -> None:
        self.presentation = presentation
        self.radius = radius
        self.distances = distances
        self.closed = closed
        self.adj = adj
        if not distances:
            raise ValueError("'vertices' is empty: a ball holds at least its origin")
        if distances[0] != 0:
            raise ValueError("origin must sit at distance 0")
        n, k = self.vertex_count, self.stride
        if len(closed) != n or len(adj) != n * k:
            raise ValueError(
                f"'edges' hold {len(adj)} slots and 'closed' {len(closed)}"
                f" flags for {n} vertices of {k} slots each"
            )

    def __eq__(self, other: object) -> bool:
        return type(other) is BallGraph and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    @property
    def vertex_count(self) -> int:
        return len(self.distances)

    @property
    def stride(self) -> int:
        """Slots per vertex: one per letter, 2m."""
        return 2 * self.presentation.m

    def step(self, v: int, letter: int) -> int | None:
        if not 0 < abs(letter) <= self.presentation.m:
            return None
        w = self.adj[v * self.stride + _slot(letter)]
        return None if w < 0 else w

    def neighbours(self, v: int) -> list[int]:
        k = self.stride
        return [w for w in self.adj[v * k : v * k + k] if w >= 0]

    def closed_vertices(self) -> list[int]:
        return [v for v in range(self.vertex_count) if self.closed[v]]


def _check_links(g: BallGraph) -> None:
    """Refuse an edge that points to no vertex, and one whose inverse slot
    at its target does not lead back."""
    adj, n, k = g.adj, g.vertex_count, g.stride
    for i, w in enumerate(adj):
        if w == -1:
            continue
        v, s = divmod(i, k)
        if not 0 <= w < n:
            raise ValueError(f"'edges' of vertex {v} point to {w}, not a vertex")
        if adj[w * k + (s ^ 1)] != v:
            raise ValueError(
                f"'edges' of vertex {v}: edge labels must be consistent under inversion"
            )


def _relator_variants(relators: Sequence[Word]) -> list[Word]:
    """Every rotation of every relator and of its inverse, each once, in order
    of first appearance."""
    return list(
        dict.fromkeys(rot for r in relators for w in (r, invert_word(r)) for rot in rotations(w))
    )


def build_ball(
    p: TriangularPresentation,
    R: int,
    max_vertices: int = DEFAULT_VERTEX_BUDGET,
    _order_seed: int | None = None,
) -> BallGraph:
    """Radius-R ball of the Cayley graph, folded to a relator fixed point.

    The fold is a worklist in the style of Felsch coset enumeration, over one
    flat row of 2m slots per union-find id in the slot order of
    ``BallGraph.adj``.  Ids within R are expanded in the order they were
    defined, and expanding one gives each of its missing slots a fresh id,
    or a leaf (below) where that id would sit at R+1.
    Every fill or merge pushes its edges onto a deduction stack.  A cycle
    whose first two edges exist gets its third edge filled in, or its end
    folded onto its base, and each entry, an edge u -s-> h, rescans only the
    cycles it can complete, with bases within R, in two scans that start
    from what the edge gives: first, the cycle is based at u and walks on
    from h; second, the base sits one inverse slot behind u.  The scans keep
    their tables' walk-back slots inverted.  A fresh id, which has one edge,
    deduces only the cycles that use the new edge second or start with the
    fresh id's edge.  The stack is drained before the next fresh id.

    No scan takes the edge last.  In a cycle b -s0-> x -s1-> u -s2-> b
    with b within R and its first two edges present, the later of the two
    was pushed when it appeared, by a fill, a fresh id or a merge, which
    pushes the kept root's slots; if b came within R after that, a merge
    or emission pushed b's slots.  That edge's scan, first position for
    b's edge and second for x's, checks the same depth on b and completes
    u -s2-> b by a fill or a merge, and later merges join colliding slots,
    so the cycle stays closed.  A scan from the last edge, u -s2-> h, would
    find h apart from b only while the scan that joins them is on the stack.

    A merge moves the absorbed row onto the kept root and pushes every
    filled slot of the root.  A merge in the middle of a scan may absorb u
    or h, which leaves the scan's ids stale, so the scan stops there and
    pushes its edge again.  If u was absorbed, the kept root's pushed slots
    hold the edge's image; otherwise the edge's own entry scans again on the
    current roots.  Either way every cycle the rest of the scan would have
    checked is checked again, so stopping loses no deduction.

    Each id carries a depth, an upper bound on its distance from the origin:
    its parent's depth + 1 when defined, the smaller of the two at a merge.
    The breadth-first search that numbers the emitted ball checks every
    depth.  A vertex it reaches at a smaller distance has its depth
    corrected; if it was never expanded, it goes back on the queue with its
    edges pushed, since deductions skipped the cycles based at it, and the
    fold resumes.  There are no rounds: every step fills a slot, merges two
    ids, names a leaf or makes a vertex, and making stops at
    ``max_vertices``, so the fold terminates.  It also stops where the
    vertices it makes, at 2m slots each, would need more than
    ``MAX_ADJACENCY_SLOTS`` slots, the limit at which the loader refuses a
    ball, so a fold at large m refuses before its rows outgrow memory.

    Leaves.  A fresh vertex w at R+1 has one edge, v -s-> w, and cycles are
    reduced, so the only cycles through it that can complete are
    b -s0-> v -s-> w -s2-> b with b within R; those starting with w's edge
    are based beyond R.  Where no such base exists, slot s of v holds
    ``LEAF`` instead of an id, and nothing is pushed.  The leaf gets an id at
    R+1, not expanded, with a row holding its edge back to v, the first time
    the fold would read it as a vertex: a merge that meets it on a filled
    slot (one that moves it onto an empty slot moves ``LEAF`` as it is, its
    edge leading back to the kept root); ``complete`` finding it at either
    end; a rescan of its edge whose second scan finds a base within R; a
    first scan that walks onto it; emission reaching it from a vertex that a
    depth correction brought within R-1.  A leaf never stands as a base,
    being beyond R.  A leaf is the fresh id that the old eager fold made,
    named later: until it is read, that id's row would hold only its back
    edge, so every scan that skips a leaf is one the eager fold skipped too,
    by the base's depth or at a missing slot, and every deduction is made on
    the same edges.  Only ids and the schedule's order change, and folding
    is confluent.  Most leaves are never read: at R=6 on the ball below,
    43,855 of the 160,887 vertices the fold makes take an id and a row.

    ``max_vertices`` counts every vertex the fold makes, absorbed vertices
    and leaves included, not only emitted vertices: the 1,265-vertex ball of
    ``sample_presentation(4, 1/6, 1)`` at R=4 makes 6,365, the vertex count
    of its R=5 ball.  A leaf counts when it is made, not when it gets an id.

    ``_order_seed`` shuffles the order of the relator cycles and the order in
    which ids leave the queue; the result must not depend on it (folding is
    confluent), which the tests assert rather than assume.  A shuffled queue
    overshoots depths, so it also drives the correction at emission.
    """
    if R < 0:
        raise ValueError("radius must be nonnegative")
    k = 2 * p.m
    # every vertex the fold makes may take a row of k slots, so the loader's
    # limit on a ball's slots also caps the vertices the fold may make
    slot_cap = MAX_ADJACENCY_SLOTS // k
    too_wide = (
        f"the radius-{R} ball at m={p.m} needs more than {slot_cap} vertices of"
        f" {k} adjacency slots each, above the limit of {MAX_ADJACENCY_SLOTS} slots"
    )
    if slot_cap < 1:
        raise ValueError(too_wide)
    cap = min(max_vertices, slot_cap)
    blank = [-1] * k
    cycles = [tuple(_slot(c) for c in w) for w in _relator_variants(p.relators)]
    rng = make_rng(_order_seed, "fold") if _order_seed is not None else None
    if rng is not None:
        rng.shuffle(cycles)
    # the cycles whose first or second edge has slot s, each with the two
    # slots its scan reads: first walks on from the edge's head; second
    # steps back from u to the base, so the slot it walks back through is
    # stored inverted.  No cycle is scanned from its last edge (see above)
    first = [[(s1, s2) for s0, s1, s2 in cycles if s0 == s] for s in range(k)]
    second = [[(s0 ^ 1, s2) for s0, s1, s2 in cycles if s1 == s] for s in range(k)]

    # a union-find over the ids, with path halving; a merge keeps the smaller
    # root.  parent[x] == x exactly when x is a root, which hot loops test
    # before calling find
    parent = [0]
    rows = blank[:]  # slot s of id v at v * k + s; -1 for no edge, LEAF for a leaf
    depth = [0]  # an upper bound on the distance from the origin
    done = bytearray(1)  # expanded within R: a full star, its cycles deduced
    queue = [0]
    deduced: list[int] = []  # slots v * k + s whose edge is new to root v
    made = 1  # vertices made, leaves included: what max_vertices counts

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def materialize(v: int, s: int) -> int:
        """Give the leaf in slot s of v an id at depth R+1, not expanded,
        with a row that holds only its edge back to v."""
        w = len(parent)
        parent.append(w)
        rows.extend(blank)
        depth.append(R + 1)
        done.append(0)
        rows[v * k + s] = w
        rows[w * k + (s ^ 1)] = v
        return w

    def based(v: int, s: int) -> bool:
        """Whether a cycle b -s0-> v -s-> w -s2-> b has its base b within R,
        for a vertex w beyond R whose only edge is v -s-> w: the cycles
        through w that can complete (those starting with w's edge are based
        beyond R, and any other needs a second edge at w)."""
        vb = v * k
        for t0, _ in second[s]:
            b = rows[vb + t0]
            if b >= 0:
                if parent[b] != b:
                    b = find(b)
                if depth[b] <= R:
                    return True
        return False

    def merge(a: int, b: int) -> None:
        """Join two ids, moving each absorbed root's row onto the kept root;
        slots that collide there are joined in turn."""
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            keep, gone = find(a), find(b)
            if keep == gone:
                continue
            if gone < keep:
                keep, gone = gone, keep
            parent[gone] = keep
            kb, gb = keep * k, gone * k
            for s in range(k):
                tgt = rows[gb + s]
                if tgt == -1:
                    continue
                have = rows[kb + s]
                if have == -1:
                    rows[kb + s] = tgt  # a leaf moves as it is: its edge leads back to keep
                    continue
                if tgt == LEAF:
                    tgt = materialize(gone, s)
                if have == LEAF:
                    have = materialize(keep, s)
                pending.append((have, tgt))
            if done[gone]:
                done[keep] = 1
            if depth[gone] < depth[keep]:
                depth[keep] = depth[gone]
            deduced.extend(i for i in range(kb, kb + k) if rows[i] != -1)

    def complete(y: int, s2: int, b: int) -> bool:
        """Make slot s2 of root y lead to root b: fill it and its inverse,
        or fold its target onto b.  True when two ids merged."""
        i = y * k + s2
        z = rows[i]
        if z != -1:
            if z == LEAF:
                z = materialize(y, s2)
            elif z == b or find(z) == b:
                return False
            merge(z, b)
            return True
        rows[i] = b
        deduced.append(i)
        i = b * k + (s2 ^ 1)
        back = rows[i]
        if back == -1:
            rows[i] = y
            deduced.append(i)
            return False
        # back is not y's: every edge's inverse exists, so y's slot would
        # have been filled
        if back == LEAF:
            back = materialize(b, s2 ^ 1)
        merge(back, y)
        return True

    def rescan(u: int, i: int) -> None:
        """Rescan the cycles that use slot i of root u, the edge u -s-> h,
        first or second, with bases within R; a merge stops the scan and
        pushes the edge again."""
        ub = u * k
        s = i - ub
        h = rows[i]
        if h == LEAF:
            # no first-scan cycle walks on from a leaf, its one edge being
            # this one; it takes an id only where a second scan can complete
            if not based(u, s):
                return
            h = materialize(u, s)
        elif parent[h] != h:
            h = find(h)
        hb = h * k
        if depth[u] <= R:
            # u -s-> h -s1-> y -s2-> u
            for s1, s2 in first[s]:
                y = rows[hb + s1]
                if y == -1:
                    continue
                if y == LEAF:
                    y = materialize(h, s1)
                elif parent[y] != y:
                    y = find(y)
                if rows[y * k + s2] != u and complete(y, s2, u):
                    deduced.append(i)
                    return
        # b -s0-> u -s-> h -s2-> b; a leaf b lies beyond R
        for t0, s2 in second[s]:
            b = rows[ub + t0]
            if b < 0:
                continue
            if parent[b] != b:
                b = find(b)
            if depth[b] <= R and rows[hb + s2] != b and complete(h, s2, b):
                deduced.append(i)
                return

    def drain() -> None:
        """Rescan the cycles through each deduced edge."""
        while deduced:
            i = deduced.pop()
            u = i // k
            if parent[u] == u:  # else its merge pushed the kept root's slots
                rescan(u, i)

    def expand(v: int) -> None:
        """Give each missing slot of v a fresh id, or a leaf beyond R."""
        nonlocal made
        vb = v * k
        d = depth[v] + 1  # the fresh ids' depth
        for s in range(k):
            if rows[vb + s] != -1:
                continue
            if made >= cap:
                if cap == slot_cap:
                    raise ValueError(too_wide)
                raise ValueError(
                    f"vertex budget {max_vertices} exceeded at radius {R}"
                )
            made += 1
            if d > R and not based(v, s):
                # the scans below would deduce nothing from w
                rows[vb + s] = LEAF
                continue
            w = len(parent)
            parent.append(w)
            rows.extend(blank)
            depth.append(d)
            done.append(0)
            if d <= R:
                queue.append(w)
            wb = w * k
            rows[vb + s] = w
            rows[wb + (s ^ 1)] = v
            # w has one edge and cycles are reduced, so only the cycles that
            # use the new edge second, b -s0-> v -s-> w -s2-> b, or start
            # with w's edge, w -s^1-> v -s1-> y -s2-> w, can complete.  A
            # merge stops the scans and pushes both ends' slots again.  The
            # scans stay inline: pushing the two new slots through drain and
            # rescan made build_ball 13-37% slower on the bench ball
            for t0, s2 in second[s]:
                b = rows[vb + t0]
                if b < 0:
                    continue
                if parent[b] != b:
                    b = find(b)
                if depth[b] <= R and rows[wb + s2] != b and complete(w, s2, b):
                    deduced.extend((vb + s, wb + (s ^ 1)))
                    break
            else:
                if d <= R:
                    for s1, s2 in first[s ^ 1]:
                        y = rows[vb + s1]
                        if y == -1:
                            continue
                        if y == LEAF:
                            y = materialize(v, s1)
                        elif parent[y] != y:
                            y = find(y)
                        if rows[y * k + s2] != w and complete(y, s2, w):
                            deduced.append(wb + (s ^ 1))
                            break
            if deduced:
                drain()
                if parent[v] != v:
                    return  # absorbed: its row went to the kept root
                d = depth[v] + 1  # a merge may have lowered it
        done[v] = 1

    head = 0
    while True:
        while head < len(queue):
            if rng is not None:
                j = rng.randrange(head, len(queue))
                queue[head], queue[j] = queue[j], queue[head]
            v = queue[head]
            head += 1
            if parent[v] == v and not done[v]:
                expand(v)
        # emission search: breadth-first from the origin in slot order, which
        # numbers the ball; a depth above the distance found is corrected.
        # num[x] is root x's number in the ball, -1 until it is reached
        root = find(0)
        num = [-1] * len(parent)
        num[root] = 0
        order, dist = [root], [0]
        for j, v in enumerate(order):
            d = dist[j]
            if d < depth[v]:
                depth[v] = d
            vb = v * k
            if not done[v]:
                # never expanded: deductions may have skipped its cycles
                queue.append(v)
                deduced.extend(i for i in range(vb, vb + k) if rows[i] != -1)
            if d == R:
                continue
            for s, w in enumerate(rows[vb : vb + k]):
                if w < 0:
                    if w == -1:
                        continue
                    # v was expanded at depth R and lies nearer: its leaf
                    # is within R
                    w = materialize(v, s)
                    num.append(-1)
                elif parent[w] != w:
                    w = find(w)
                if num[w] < 0:
                    num[w] = len(order)
                    order.append(w)
                    dist.append(d + 1)
        if head == len(queue):
            break
        drain()

    # A merge keeps the smaller root and path halving keeps parent[x] <= x,
    # so one ascending pass gives every id its root's number, already
    # resolved; -1 off the ball.  Every emitted vertex was expanded, so its
    # row has no missing slot, but one at R may hold leaves: the two extra
    # entries map a leaf, LEAF, and a missing slot, -1, to -1
    for x, r in enumerate(parent):
        num[x] = num[r]
    num += (-1, -1)
    flat = [num[w] for v in order for w in rows[v * k : v * k + k]]
    g = BallGraph(
        presentation=p,
        radius=R,
        distances=tuple(dist),
        closed=tuple([-1 not in flat[j : j + k] for j in range(0, len(flat), k)]),
        adj=tuple(flat),
    )
    _check_links(g)
    return g


def _letter_key(c: int, m: int) -> str:
    # JSON object keys must be strings; letters only exist for m <= 26.
    if m <= 26:
        return word_to_str((c,))
    return str(c)


def _key_slot(key: object, m: int) -> int:
    """Slot named by an edge key, spelled as a letter or as its integer code."""
    c = 0
    if isinstance(key, str) and key.isascii():
        digits = key[1:] if key.startswith("-") else key
        if len(key) == 1 and key.isalpha():
            c = word_from_str(key)[0]
        elif digits.isdigit() and len(digits) <= len(str(m)) and str(int(key)) == key:
            c = int(key)
    if not 0 < abs(c) <= m:
        raise ValueError(f"'edges' key {key!r} names no letter of rank {m}")
    return _slot(c)


def _ballgraph_header(g: BallGraph) -> dict:
    """Every ballgraph field but ``vertices``."""
    p = g.presentation
    return {
        "format": "ballgraph",
        "m": p.m,
        "density": str(p.density),
        "seed": p.seed,
        "relators": [word_to_json(r, p.m) for r in p.relators],
        "radius": g.radius,
    }


def ball_to_json_dict(g: BallGraph) -> dict:
    m, k = g.presentation.m, g.stride
    keys = [_letter_key(c, m) for c in all_letters(m)]
    adj = g.adj
    return {
        **_ballgraph_header(g),
        "vertices": [
            {
                "distance": g.distances[v],
                "closed": g.closed[v],
                "edges": {
                    keys[s]: w for s, w in enumerate(adj[v * k : v * k + k]) if w >= 0
                },
            }
            for v in range(g.vertex_count)
        ],
    }


_CHUNK_VERTICES = 4096


def ballgraph_chunks(g: BallGraph, meta: dict) -> Iterator[str]:
    """The text of ``json.dumps({**ball_to_json_dict(g), "meta": meta},
    indent=2, sort_keys=True) + "\\n"``, in chunks of ``_CHUNK_VERTICES`` vertices.

    Only the fields other than ``vertices`` go through ``json.dumps``;
    ``vertices`` sorts after all of them, so its array is spliced in before
    the closing brace, each vertex rendered straight from ``adj`` with one
    pre-built key fragment per slot, in sorted-key order.
    """
    m, k = g.presentation.m, g.stride
    head = json.dumps({**_ballgraph_header(g), "meta": meta}, indent=2, sort_keys=True)
    yield head[: -len("\n}")] + ',\n  "vertices": ['
    keys = [_letter_key(c, m) for c in all_letters(m)]
    fragments = [(s, f'\n        "{keys[s]}": ') for s in sorted(range(k), key=keys.__getitem__)]
    adj, distances, closed = g.adj, g.distances, g.closed

    def vertex(v: int) -> str:
        row = adj[v * k : v * k + k]
        body = ",".join([frag + str(row[s]) for s, frag in fragments if row[s] >= 0])
        edges = "{" + body + "\n      }" if body else "{}"
        return (
            f'\n    {{\n      "closed": {"true" if closed[v] else "false"},'
            f'\n      "distance": {distances[v]},\n      "edges": {edges}\n    }}'
        )

    n = g.vertex_count
    for start in range(0, n, _CHUNK_VERTICES):
        rows = map(vertex, range(start, min(start + _CHUNK_VERTICES, n)))
        yield ("," if start else "") + ",".join(rows)
    yield "\n  ]\n}\n"


def ball_from_json_dict(data: dict) -> BallGraph:
    """The ball in a ``ballgraph`` JSON object, or a ValueError naming the
    field that keeps it from being one.

    One pass over the vertices checks each vertex's fields and fills
    ``adj``.  It also tallies the links: slot ``s`` of vertex ``v`` with a
    target ``w < v`` is its edge's second end, read after the whole row of
    ``w``, so the pass checks there that slot ``s ^ 1`` of ``w`` leads back
    to ``v``, that the two distances differ by at most one, and which end,
    if either, has a neighbour one step nearer vertex 0.  The ball is
    accepted without further scans when every such check held, the second
    ends are half of all edge slots, every vertex but 0 has a nearer
    neighbour and no distance exceeds ``radius``.  Equal halves make the
    second ends' partners all of the first ends, so every edge's inverse
    leads back (a self-loop has no second end, and takes the slow path);
    and distances that start at 0, move by at most one along each edge and
    fall by one towards vertex 0 from every other vertex are exactly those
    of a breadth-first search.  Otherwise ``_check_links`` and
    ``_check_distances`` scan the whole ball, to word the refusal; an input
    that passes both is accepted all the same.
    """
    if data.get("format") != "ballgraph":
        raise ValueError("not a ball graph file (missing format tag)")
    json_require(data, ("m", "density", "relators", "radius", "vertices"))
    m = json_int(data["m"], "'m'")
    relators = json_list(data["relators"], "'relators'")
    try:
        words = tuple(word_from_json(w) for w in relators)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'relators': {exc}") from None
    # null is the seed of a presentation that was not sampled
    seed = data.get("seed")
    if seed is not None:
        json_int(seed, "'seed'")
    try:
        density = density_from_str(data["density"])
    except ValueError as exc:
        raise ValueError(f"'density': {exc}") from None
    p = TriangularPresentation(m=m, density=density, seed=seed, relators=words)
    vertices = json_list(data["vertices"], "'vertices'")
    n, k = len(vertices), 2 * m
    if n * k > MAX_ADJACENCY_SLOTS:
        raise ValueError(
            f"'m' = {m} with {n} vertices needs {n * k} adjacency slots,"
            f" above the limit {MAX_ADJACENCY_SLOTS}"
        )
    adj = [-1] * (n * k)
    distances: list[int] = []
    closed_flags: list[bool] = []
    nearer = bytearray(n)  # 1 once a neighbour one step nearer vertex 0 is seen
    linked = True  # every second end checked so far leads back, within one step
    ends = second_ends = 0
    slots: dict[str, int] = {}
    for v, vertex in enumerate(vertices):
        if not isinstance(vertex, dict):
            raise ValueError(f"'vertices' entry {v} is not a JSON object")
        try:
            edges, distance, closed = vertex["edges"], vertex["distance"], vertex["closed"]
        except KeyError as exc:
            raise ValueError(f"'vertices' entry {v}: missing field {exc.args[0]!r}") from None
        if not isinstance(edges, dict):
            raise ValueError(f"'edges' of vertex {v} is not a JSON object")
        # json_count, inlined for large balls
        if type(distance) is not int or distance < 0:
            raise ValueError(
                f"'distance' of vertex {v} = {distance!r}: expected an integer >= 0"
            )
        base = v * k
        for key, w in edges.items():
            s = slots.get(key)
            if s is None:
                s = slots[key] = _key_slot(key, m)
            if type(w) is not int or not 0 <= w < n:
                raise ValueError(f"'edges' of vertex {v} point to {w!r}, not a vertex")
            if adj[base + s] != -1:
                raise ValueError(f"'edges' of vertex {v} name letter {key!r} twice")
            adj[base + s] = w
            if w < v:
                second_ends += 1
                dw = distances[w]
                if adj[w * k + (s ^ 1)] != v or not dw - 1 <= distance <= dw + 1:
                    linked = False
                elif distance > dw:
                    nearer[v] = 1
                elif distance < dw:
                    nearer[w] = 1
        if closed is not (len(edges) == k):
            raise ValueError(
                f"'closed' of vertex {v} is {closed!r} with {len(edges)} of its {k} edges"
            )
        ends += len(edges)
        distances.append(distance)
        closed_flags.append(closed)
    g = BallGraph(
        presentation=p,
        radius=json_count(data["radius"], "'radius'"),
        distances=tuple(distances),
        closed=tuple(closed_flags),
        adj=tuple(adj),
    )
    # the constructor has refused an empty ball and a distance of vertex 0
    # other than 0, so nearer[0] stays 0
    if not (
        linked
        and ends == 2 * second_ends
        and nearer.count(0) == 1
        and g.radius >= max(distances)
    ):
        _check_links(g)
        _check_distances(g)
    return g


def _check_distances(g: BallGraph) -> None:
    """Refuse stored distances that one breadth-first search from vertex 0
    does not reproduce, and a radius below the largest of them."""
    reached = _search(g, [0], range(g.vertex_count))
    dist = [reached.get(v, -1) for v in range(g.vertex_count)]
    if dist != list(g.distances):
        v, found = next((v, d) for v, d in enumerate(dist) if d != g.distances[v])
        actual = "unreachable" if found < 0 else f"at distance {found}"
        raise ValueError(
            f"'distance' of vertex {v} = {g.distances[v]}, but it is {actual}"
            " from vertex 0"
        )
    if g.radius < max(dist):
        raise ValueError(f"'radius' = {g.radius}: below the largest distance {max(dist)}")


# ---------------------------------------------------------------------------
# slimness estimation


def _expand(g: BallGraph, frontier: list[int], dist: dict[int, int], level: int) -> list[int]:
    """Label the unlabelled neighbours of ``frontier`` with ``level``."""
    adj, k = g.adj, g.stride
    nxt = []
    for v in frontier:
        for w in adj[v * k : v * k + k]:
            if w >= 0 and w not in dist:
                dist[w] = level
                nxt.append(w)
    return nxt


def _search(g: BallGraph, sources: Iterable[int], targets: Iterable[int]) -> dict[int, int]:
    """Distance to the nearest source for every vertex of the levels up to
    the one that completes the last reachable target."""
    dist = dict.fromkeys(sources, 0)
    missing = [t for t in targets if t not in dist]
    frontier = list(dist)
    level = 0
    while missing and frontier:
        level += 1
        frontier = _expand(g, frontier, dist, level)
        missing = [t for t in missing if t not in dist]
    return dist


def _interval(g: BallGraph, x: int, y: int) -> dict[int, int]:
    """``d(w, y)`` for every vertex w on a shortest x-y path; empty when y
    is out of reach.

    Balls around both ends grow a level at a time, the smaller frontier
    first, until they meet at distance d = rx + ry; the shortest paths are
    then traced from the meeting level back through both balls.  The search
    covers two balls of radius about d/2 instead of one of radius d; a
    one-sided ``_search`` from x made the slimness estimate 7-14x slower.
    """
    if x == y:
        return {x: 0}
    dist, frontier, radius = [{x: 0}, {y: 0}], [[x], [y]], [0, 0]
    while True:
        s = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if not frontier[s]:
            return {}
        radius[s] += 1
        frontier[s] = _expand(g, frontier[s], dist[s], radius[s])
        meet = [w for w in frontier[s] if w in dist[1 - s]]
        if meet:
            break
    to_x, to_y = dist
    rx, d = radius[0], radius[0] + radius[1]

    def around(layer: list[int]) -> set[int]:
        return {w for v in layer for w in g.neighbours(v)}

    # level i holds the path vertices at distance i from x and d - i from y;
    # meet is level rx, and a neighbour of level i lies in level i - 1 when
    # it sits at distance i - 1 from x, in level i + 1 at d - i - 1 from y
    out = dict.fromkeys(meet, d - rx)
    layer = meet
    for i in range(rx - 1, -1, -1):
        layer = [w for w in around(layer) if to_x.get(w) == i]
        out.update(dict.fromkeys(layer, d - i))
    layer = meet
    for i in range(rx + 1, d + 1):
        layer = [w for w in around(layer) if to_y.get(w) == d - i]
        out.update(dict.fromkeys(layer, d - i))
    return out


def _geodesics(g: BallGraph, x: int, y: int, cap: int) -> list[tuple[int, ...]]:
    """Up to ``cap`` shortest x-y paths, in deterministic order."""
    to_y = _interval(g, x, y)
    if x not in to_y:
        return []
    out: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        if len(out) >= cap:
            return
        u = path[-1]
        if u == y:
            out.append(tuple(path))
            return
        for w in sorted(set(g.neighbours(u))):
            if to_y.get(w) == to_y[u] - 1:
                walk(path + [w])
                if len(out) >= cap:
                    return

    walk([x])
    return out


def _farthest(g: BallGraph, points: Sequence[int], sources: Sequence[int]) -> int:
    """Largest distance from a point of ``points`` to its nearest source."""
    dist = _search(g, sources, points)
    return max(dist[pnt] for pnt in points)


def _slimness_defect(g: BallGraph, sides: Sequence[tuple[int, ...]]) -> int:
    return max(
        _farthest(g, side, sides[(i + 1) % 3] + sides[(i + 2) % 3])
        for i, side in enumerate(sides)
    )


def slim_delta_estimate(g: BallGraph, samples: int, seed: int) -> int:
    """Largest slimness defect seen over sampled closed-vertex triangles.

    For each corner triple the defect is minimized over jointly chosen
    geodesic realizations (up to ``SIDE_CAP`` and ``COMBO_CAP``): a triangle
    is slim as soon as some choice of sides is.  Sampling makes the estimate
    a lower bound for the ball's slimness constant.
    """
    closed = g.closed_vertices()
    if len(closed) < 3:
        raise ValueError("insufficient closed region: need at least 3 closed vertices")
    if samples < 1:
        raise ValueError("samples must be positive")

    total = len(closed) * (len(closed) - 1) * (len(closed) - 2) // 6
    if total <= samples:
        triples = itertools.combinations(closed, 3)
    else:
        rng = make_rng(seed, "slim", g.radius)
        triples = (tuple(rng.sample(closed, 3)) for _ in range(samples))

    estimate = 0
    for x, y, z in triples:
        sides = [_geodesics(g, a, b, SIDE_CAP) for a, b in ((x, y), (y, z), (z, x))]
        best: int | None = None
        for realization in itertools.islice(itertools.product(*sides), COMBO_CAP):
            defect = _slimness_defect(g, realization)
            best = defect if best is None else min(best, defect)
            if best == 0:
                break
        if best is not None:
            estimate = max(estimate, best)
    return estimate


# ---------------------------------------------------------------------------
# the parallel-geodesics strip


def strip_diagram(t: int) -> VanKampenDiagram:
    """Ladder of 2t triangles between the geodesics a^t and its b-translate.

    Top and bottom rails carry the letter a, rungs and diagonals the letter
    b; every face spells ab^2.  Interior edges number 2t-1.
    """
    if t < 1:
        raise ValueError("strip needs at least one rung pair")
    # edge ids: tops 1..t, bottoms t+1..2t, rungs 2t+1..3t+1, diagonals 3t+2..4t+1
    top = lambda i: 1 + i
    bot = lambda i: t + 1 + i
    rung = lambda i: 2 * t + 1 + i
    diag = lambda i: 3 * t + 2 + i
    letters = [0] * (4 * t + 1)
    for i in range(t):
        letters[top(i) - 1] = 1
        letters[bot(i) - 1] = 1
        letters[diag(i) - 1] = 2
    for i in range(t + 1):
        letters[rung(i) - 1] = 2
    faces = []
    for i in range(t):
        faces.append((top(i), diag(i), rung(i)))
        faces.append((bot(i), rung(i + 1), diag(i)))
    boundary = (
        tuple(top(i) for i in range(t))
        + (-rung(t),)
        + tuple(-bot(i) for i in reversed(range(t)))
        + (rung(0),)
    )
    vertex_count, edges = close_walks(len(letters), faces)
    return VanKampenDiagram(
        vertex_count=vertex_count,
        edges=edges,
        faces=tuple(faces),
        labels=(1,) * (2 * t),
        letters=tuple(letters),
        presentation=STRIP_PRESENTATION,
        boundary=boundary,
    )


def _path_is_geodesic(g: BallGraph, points: Sequence[int]) -> bool:
    base = _search(g, points[:1], points)
    return all(base.get(pnt) == i for i, pnt in enumerate(points))


def fig1_demo() -> dict:
    """Parallel geodesics a^i and b^-1 a^i in the one-relator ab^2 ball,
    plus the strips of triangles realizing the parallelism."""
    from .complexes import cancel, is_reduced_diagram
    from .enumeration import euler_check

    g = build_ball(STRIP_PRESENTATION, 8)
    span = 6

    def walk(start, letter, steps):
        pts = [start]
        for _ in range(steps):
            pts.append(None if pts[-1] is None else g.step(pts[-1], letter))
        return pts

    gamma = walk(0, 1, span)
    translate = walk(g.step(0, -2), 1, span)
    ok_points = all(v is not None for v in gamma + translate)

    geodesic_gamma = ok_points and _path_is_geodesic(g, gamma)
    geodesic_translate = ok_points and _path_is_geodesic(g, translate)
    disjoint = ok_points and not set(gamma) & set(translate)

    hausdorff = None
    if ok_points:
        hausdorff = max(_farthest(g, gamma, translate), _farthest(g, translate, gamma))

    strips = []
    strips_ok = True
    for t in range(1, 5):
        D = strip_diagram(t)
        expected = 2 * t - 1
        row = {
            "t": t,
            "faces": D.area,
            "cancel": cancel(D),
            "expected_cancel": expected,
            "reduced": is_reduced_diagram(D),
            "euler": euler_check(D),
            "boundary_length": D.boundary_length,
        }
        row["ok"] = (
            row["cancel"] == expected and row["reduced"] and row["euler"]
        )
        strips_ok = strips_ok and row["ok"]
        strips.append(row)

    checks = {
        "gamma_geodesic": geodesic_gamma,
        "translate_geodesic": geodesic_translate,
        "disjoint": disjoint,
        "hausdorff_distance_one": hausdorff == 1,
        "strips_ok": strips_ok,
    }
    return {
        "ball_vertices": g.vertex_count,
        "gamma_distances": [g.distances[v] for v in gamma] if ok_points else None,
        "translate": translate if ok_points else None,
        "hausdorff_distance": hausdorff,
        "strips": strips,
        "checks": checks,
        "all_checks_pass": all(checks.values()),
    }
