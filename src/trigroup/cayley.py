"""Bounded Cayley balls, slimness probing, and the parallel-geodesics demo.

A ball is grown breadth-first to radius R+1 while relator cycles are closed
by edge completion and vertex folding, iterated to a fixed point; the emitted
graph keeps the radius-R part with exact distances.  A vertex is ``closed``
when its whole star of 2m edges lands inside the emitted ball; slimness
probing draws triangle corners from closed vertices only, so frontier
truncation can never fake a geodesic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .complexes import VanKampenDiagram, close_walks
from .presentation import TriangularPresentation, density_from_str
from .seeding import make_rng
from .words import (
    Word,
    rotations,
    invert_word,
    word_to_json,
    word_from_json,
    word_to_str,
    word_from_str,
)

DEFAULT_RADIUS_CAP = 12
DEFAULT_VERTEX_BUDGET = 200_000

# one relator ab^2: the group is free on b, with a identified to b^-2
STRIP_PRESENTATION = TriangularPresentation(
    m=2, density=Fraction(1, 5), seed=None, relators=((1, 2, 2),)
)


def _letter_order(m: int) -> list[int]:
    out = []
    for i in range(1, m + 1):
        out.extend((i, -i))
    return out


@dataclass(frozen=True)
class BallGraph:
    presentation: TriangularPresentation
    radius: int
    distances: tuple[int, ...]
    closed: tuple[bool, ...]
    # per vertex: ((letter, target), ...) sorted in letter order
    edges: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if not self.distances:
            raise ValueError("'vertices' is empty: a ball holds at least its origin")
        if self.distances[0] != 0:
            raise ValueError("origin must sit at distance 0")
        for v, nbrs in enumerate(self.edges):
            for letter, w in nbrs:
                if not 0 <= w < len(self.edges):
                    raise ValueError(f"'edges' of vertex {v} point to {w}, not a vertex")
                if self.step(w, -letter) != v:
                    raise ValueError("edge labels must be consistent under inversion")

    @property
    def vertex_count(self) -> int:
        return len(self.distances)

    def step(self, v: int, letter: int) -> int | None:
        for c, w in self.edges[v]:
            if c == letter:
                return w
        return None

    def neighbours(self, v: int) -> Iterator[int]:
        for _, w in self.edges[v]:
            yield w

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
    letters = _letter_order(p.m)
    variants = _relator_variants(p.relators)

    parent = [0]
    adj: list[dict[int, int]] = [{}]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def alive() -> list[int]:
        return [v for v in range(len(parent)) if parent[v] == v]

    pending: list[tuple[int, int]] = []

    def merge_all() -> bool:
        did = False
        while pending:
            x, y = pending.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            keep, gone = min(rx, ry), max(rx, ry)
            parent[gone] = keep
            did = True
            for letter, tgt in adj[gone].items():
                have = adj[keep].get(letter)
                if have is None:
                    adj[keep][letter] = tgt
                else:
                    pending.append((find(have), find(tgt)))
            adj[gone] = {}
        return did

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
                if len(parent) >= max_vertices:
                    raise ValueError(
                        f"vertex budget {max_vertices} exceeded at radius {R}"
                    )
                w = len(parent)
                parent.append(w)
                adj.append({})
                add_edge(v, letter, w)
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
    edges = []
    closed = []
    for v in order:
        nbrs = []
        complete = True
        for letter in letters:
            w = adj[v].get(letter)
            w = find(w) if w is not None else None
            if w is not None and w in new_id:
                nbrs.append((letter, new_id[w]))
            else:
                complete = False
        edges.append(tuple(nbrs))
        closed.append(complete)
    return BallGraph(
        presentation=p,
        radius=R,
        distances=distances,
        closed=tuple(closed),
        edges=tuple(edges),
    )


def _letter_key(c: int, m: int) -> str:
    # JSON object keys must be strings; letters only exist for m <= 26.
    if m <= 26:
        return word_to_str((c,))
    return str(c)


def _key_letter(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        return word_from_str(key)[0]


def ball_to_json_dict(g: BallGraph) -> dict:
    m = g.presentation.m
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
                "edges": {_letter_key(c, m): w for c, w in g.edges[v]},
            }
            for v in range(g.vertex_count)
        ],
    }


def ball_from_json_dict(data: dict) -> BallGraph:
    if data.get("format") != "ballgraph":
        raise ValueError("not a ball graph file (missing format tag)")
    p = TriangularPresentation(
        m=data["m"],
        density=density_from_str(data["density"]),
        seed=data.get("seed"),
        relators=tuple(word_from_json(w) for w in data["relators"]),
    )
    vertices = data["vertices"]
    return BallGraph(
        presentation=p,
        radius=data["radius"],
        distances=tuple(v["distance"] for v in vertices),
        closed=tuple(bool(v["closed"]) for v in vertices),
        edges=tuple(
            tuple(
                sorted(
                    ((_key_letter(c), w) for c, w in v["edges"].items()),
                    key=lambda cw: (abs(cw[0]), cw[0] < 0),
                )
            )
            for v in vertices
        ),
    )


# ---------------------------------------------------------------------------
# slimness estimation


def _distances_from(g: BallGraph, start: int) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbours(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


class _DistCache:
    """Per-source BFS maps, computed on demand (the ball is undirected)."""

    def __init__(self, g: BallGraph) -> None:
        self.g = g
        self.maps: dict[int, list[int]] = {}

    def __getitem__(self, v: int) -> list[int]:
        if v not in self.maps:
            self.maps[v] = _distances_from(self.g, v)
        return self.maps[v]


def _geodesics(g: BallGraph, dist_maps, x: int, y: int, cap: int) -> list[tuple[int, ...]]:
    """Up to ``cap`` shortest x-y paths, in deterministic order."""
    to_y = dist_maps[y]
    if to_y[x] < 0:
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
            if to_y[w] == to_y[u] - 1:
                walk(path + [w])
                if len(out) >= cap:
                    return

    walk([x])
    return out


def _slimness_defect(sides, dist_maps) -> int:
    worst = 0
    for i, side in enumerate(sides):
        others = set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3])
        for pnt in side:
            nearest = min(dist_maps[pnt][q] for q in others)
            worst = max(worst, nearest)
    return worst


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
    dist_maps = _DistCache(g)

    total = len(closed) * (len(closed) - 1) * (len(closed) - 2) // 6
    if total <= samples:
        triples = itertools.combinations(closed, 3)
    else:
        rng = make_rng(seed, "slim", g.radius)
        triples = (tuple(rng.sample(closed, 3)) for _ in range(samples))

    estimate = 0
    for x, y, z in triples:
        best: int | None = None
        combos = 0
        for gxy in _geodesics(g, dist_maps, x, y, side_cap):
            for gyz in _geodesics(g, dist_maps, y, z, side_cap):
                for gzx in _geodesics(g, dist_maps, z, x, side_cap):
                    defect = _slimness_defect((gxy, gyz, gzx), dist_maps)
                    best = defect if best is None else min(best, defect)
                    combos += 1
                    if best == 0 or combos >= combo_cap:
                        break
                if best == 0 or combos >= combo_cap:
                    break
            if best == 0 or combos >= combo_cap:
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
    base = _distances_from(g, points[0])
    return all(base[pnt] == i for i, pnt in enumerate(points))


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
        hausdorff = 0
        for a_side, b_side in ((gamma, translate), (translate, gamma)):
            for pnt in a_side:
                dmap = _distances_from(g, pnt)
                hausdorff = max(hausdorff, min(dmap[q] for q in b_side))

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
