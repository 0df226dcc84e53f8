"""The two-scan ballgraph loader, kept as the oracle for the one-pass one.

``ball_from_json_dict`` here is the loader ``trigroup.cayley`` ran before the
link and distance checks moved into its per-vertex pass: that pass, then a
scan of every adjacency slot for a target outside the ball or an inverse that
does not lead back (the check ``BallGraph``'s constructor made), then one
breadth-first search from vertex 0 against the stored distances and radius.
Every message and its precedence are those of that version.
"""

from __future__ import annotations

from trigroup.cayley import MAX_ADJACENCY_SLOTS, BallGraph, _key_slot
from trigroup.presentation import (
    TriangularPresentation,
    density_from_str,
    json_count,
    json_int,
    json_list,
    json_require,
)
from trigroup.words import word_from_json


def ball_from_json_dict(data: dict) -> BallGraph:
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
        if closed is not (len(edges) == k):
            raise ValueError(
                f"'closed' of vertex {v} is {closed!r} with {len(edges)} of its {k} edges"
            )
    g = BallGraph(
        presentation=p,
        radius=json_count(data["radius"], "'radius'"),
        distances=tuple(vertex["distance"] for vertex in vertices),
        closed=tuple(vertex["closed"] for vertex in vertices),
        adj=tuple(adj),
    )
    _check_links(g)
    _check_distances(g)
    return g


def _check_links(g: BallGraph) -> None:
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


def _check_distances(g: BallGraph) -> None:
    adj, k = g.adj, g.stride
    dist = [-1] * g.vertex_count
    dist[0] = 0
    frontier = [0]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for w in adj[v * k : v * k + k]:
                if w >= 0 and dist[w] < 0:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    if dist != list(g.distances):
        v, found = next((v, d) for v, d in enumerate(dist) if d != g.distances[v])
        actual = "unreachable" if found < 0 else f"at distance {found}"
        raise ValueError(
            f"'distance' of vertex {v} = {g.distances[v]}, but it is {actual}"
            " from vertex 0"
        )
    if g.radius < level - 1:
        raise ValueError(f"'radius' = {g.radius}: below the largest distance {level - 1}")
