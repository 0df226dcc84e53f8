"""Bounded Cayley balls, slimness probing, and the parallel-geodesics demo.

A ball is grown breadth-first to radius R+1 while relator cycles are closed
by edge completion and vertex folding, iterated to a fixed point; the emitted
graph keeps the radius-R part with exact distances.  A vertex is ``closed``
when its whole star of 2m edges lands inside the emitted ball; slimness
probing draws triangle corners from closed vertices only, so frontier
truncation can never fake a geodesic.

Adjacency is one flat tuple ``adj`` of ``V * 2m`` vertex ids: slot ``s`` of
vertex ``v`` sits at ``v * 2m + s``, slots follow ``words.all_letters(m)``
(a, A, b, B, ...), so the inverse of slot ``s`` is ``s ^ 1``, and -1 marks a
missing edge.

Slimness probing is local: the geodesics between two corners come from
breadth-first balls grown around both corners until they meet, which span
the shortest paths between them, and a side's distance to the other two
sides comes from one multi-source search that stops once every point of the
side is reached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .complexes import UnionFind, VanKampenDiagram, close_walks
from .presentation import (
    TriangularPresentation,
    density_from_str,
    json_count,
    json_int,
    json_list,
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

DEFAULT_RADIUS_CAP = 12
DEFAULT_VERTEX_BUDGET = 200_000
# the loader refuses a ballgraph whose adjacency would need more slots
# (V * 2m) than this, rather than allocate it: about 130 MB of references
MAX_ADJACENCY_SLOTS = 1 << 24

# one relator ab^2: the group is free on b, with a identified to b^-2
STRIP_PRESENTATION = TriangularPresentation(
    m=2, density=Fraction(1, 5), seed=None, relators=((1, 2, 2),)
)


def _slot(letter: int) -> int:
    return 2 * (abs(letter) - 1) + (letter < 0)


@dataclass(frozen=True)
class BallGraph:
    presentation: TriangularPresentation
    radius: int
    distances: tuple[int, ...]
    closed: tuple[bool, ...]
    # V * 2m targets, slot order of words.all_letters; -1 for no edge
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.distances:
            raise ValueError("'vertices' is empty: a ball holds at least its origin")
        if self.distances[0] != 0:
            raise ValueError("origin must sit at distance 0")
        n, k = self.vertex_count, self.stride
        if len(self.closed) != n or len(self.adj) != n * k:
            raise ValueError(
                f"'edges' hold {len(self.adj)} slots and 'closed' {len(self.closed)}"
                f" flags for {n} vertices of {k} slots each"
            )
        adj = self.adj
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
    radius_cap: int = DEFAULT_RADIUS_CAP,
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
    if R > radius_cap:
        raise ValueError(
            f"radius {R} above the cap {radius_cap}; raise radius_cap explicitly"
        )
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


def ball_to_json_dict(g: BallGraph) -> dict:
    m, k = g.presentation.m, g.stride
    keys = [_letter_key(c, m) for c in all_letters(m)]
    adj = g.adj
    return {
        "format": "ballgraph",
        "m": m,
        "density": str(g.presentation.density),
        "seed": g.presentation.seed,
        "relators": [word_to_json(r, m) for r in g.presentation.relators],
        "radius": g.radius,
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


def ball_from_json_dict(data: dict) -> BallGraph:
    if data.get("format") != "ballgraph":
        raise ValueError("not a ball graph file (missing format tag)")
    m = json_int(data["m"], "'m'")
    relators = json_list(data["relators"], "'relators'")
    try:
        words = tuple(word_from_json(w) for w in relators)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'relators': {exc}") from None
    p = TriangularPresentation(
        m=m, density=density_from_str(data["density"]), seed=data.get("seed"), relators=words
    )
    vertices = json_list(data["vertices"], "'vertices'")
    n, k = len(vertices), 2 * m
    if n * k > MAX_ADJACENCY_SLOTS:
        raise ValueError(
            f"'m' = {m} with {n} vertices needs {n * k} adjacency slots,"
            f" above the limit {MAX_ADJACENCY_SLOTS}"
        )
    adj = [-1] * (n * k)
    slots: dict[str, int] = {}
    for v, vertex in enumerate(vertices):
        if not isinstance(vertex, dict):
            raise ValueError(f"'vertices' entry {v} is not a JSON object")
        edges = vertex["edges"]
        if not isinstance(edges, dict):
            raise ValueError(f"'edges' of vertex {v} is not a JSON object")
        distance = vertex["distance"]  # json_count, inlined for large balls
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
        closed = vertex["closed"]
        if closed is not (len(edges) == k):
            raise ValueError(
                f"'closed' of vertex {v} is {closed!r} with {len(edges)} of its {k} edges"
            )
    return BallGraph(
        presentation=p,
        radius=json_count(data["radius"], "'radius'"),
        distances=tuple(vertex["distance"] for vertex in vertices),
        closed=tuple(vertex["closed"] for vertex in vertices),
        adj=tuple(adj),
    )


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
    covers two balls of radius about d/2 instead of one of radius d.
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


def slim_delta_estimate(
    g: BallGraph,
    samples: int,
    seed: int,
    side_cap: int = 16,
    combo_cap: int = 1024,
) -> int:
    """Largest slimness defect seen over sampled closed-vertex triangles.

    For each corner triple the defect is minimized over jointly chosen
    geodesic realizations (up to the caps): a triangle is slim as soon as
    some choice of sides is.  Sampling makes the estimate a lower bound for
    the ball's slimness constant.
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
        sides = [_geodesics(g, a, b, side_cap) for a, b in ((x, y), (y, z), (z, x))]
        best: int | None = None
        for realization in itertools.islice(itertools.product(*sides), combo_cap):
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
