"""The whole-ball slimness estimator, kept as the oracle for the local probe.

``slim_delta_estimate`` here is the estimator ``trigroup.cayley`` used before
its probe became local: one full-ball breadth-first search per corner and per
side point, with the maps cached by source.  It reads the adjacency in the
pair form ``((letter, target), ...)`` per vertex, in letter order, which
``pair_edges`` derives from a ``BallGraph``'s flat slots.
"""

from __future__ import annotations

import itertools

from trigroup.cayley import BallGraph
from trigroup.seeding import make_rng
from trigroup.words import all_letters


def pair_edges(g: BallGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    k = g.stride
    letters = all_letters(g.presentation.m)
    return tuple(
        tuple((c, w) for c, w in zip(letters, g.adj[v * k : v * k + k]) if w >= 0)
        for v in range(g.vertex_count)
    )


class PairGraph:
    """The slice of the old ``BallGraph`` interface the estimator reads."""

    def __init__(self, g: BallGraph) -> None:
        self.radius = g.radius
        self.closed = g.closed
        self.edges = pair_edges(g)

    @property
    def vertex_count(self) -> int:
        return len(self.edges)

    def neighbours(self, v):
        for _, w in self.edges[v]:
            yield w

    def closed_vertices(self) -> list[int]:
        return [v for v in range(self.vertex_count) if self.closed[v]]


def _distances_from(g, start: int) -> list[int]:
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

    def __init__(self, g) -> None:
        self.g = g
        self.maps: dict[int, list[int]] = {}

    def __getitem__(self, v: int) -> list[int]:
        if v not in self.maps:
            self.maps[v] = _distances_from(self.g, v)
        return self.maps[v]


def _geodesics(g, dist_maps, x: int, y: int, cap: int) -> list[tuple[int, ...]]:
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
    g = PairGraph(g)
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
