"""Tests for Cayley ball construction, slimness probing, and the strip demo."""

import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import ball_loader_oracle
import fold_oracle
import slim_oracle
from union_find import UnionFind
from trigroup import cayley
from trigroup.cayley import (
    SIDE_CAP,
    STRIP_PRESENTATION,
    BallGraph,
    build_ball,
    ball_to_json_dict,
    ball_from_json_dict,
    ball_from_json_text,
    ballgraph_chunks,
    slim_delta_estimate,
    _check_links,
    _geodesics,
    _interval,
    _relator_variants,
    _slimness_defect,
    strip_diagram,
    fig1_demo,
)
from trigroup.cli import main
from trigroup.complexes import cancel, is_reduced_diagram
from trigroup.enumeration import DiagramBudget, enumerate_reduced_diagrams, euler_check
from trigroup.presentation import TriangularPresentation, sample_presentation
from trigroup.thresholds import delta_hyp
from trigroup.words import all_letters, invert_word, word_to_str


def free_presentation(m):
    return TriangularPresentation(m=m, density=Fraction(1, 5), seed=None, relators=())


@pytest.fixture(scope="module")
def ab2_ball():
    return build_ball(STRIP_PRESENTATION, 4)


class TestBuildBall:
    def test_free_ball_counts(self):
        # no relators: the ball of the free group is a tree, 1 + 4 + 12
        g = build_ball(free_presentation(2), 2)
        assert g.vertex_count == 17
        assert sum(g.closed) == 5  # distance <= 1 keeps its full star

    def test_distances_nondecreasing_bfs_order(self):
        g = build_ball(free_presentation(2), 2)
        assert list(g.distances) == sorted(g.distances)
        hist = {}
        for d in g.distances:
            hist[d] = hist.get(d, 0) + 1
        assert hist == {0: 1, 1: 4, 2: 12}

    def test_radius_zero(self):
        g = build_ball(free_presentation(2), 0)
        assert g.vertex_count == 1
        assert g.adj == (-1,) * g.stride
        assert g.closed == (False,)

    def test_ab2_identifies_a_with_b_inverse_squared(self, ab2_ball):
        g = ab2_ball
        assert g.step(0, 1) == g.step(g.step(0, -2), -2)
        # and b^2 with a^-1
        assert g.step(g.step(0, 2), 2) == g.step(0, -1)

    def test_ab2_ball_is_a_line(self, ab2_ball):
        # the group is infinite cyclic; d(origin, n) = ceil(|n| / 2)
        g = ab2_ball
        assert g.vertex_count == 17
        hist = {}
        for d in g.distances:
            hist[d] = hist.get(d, 0) + 1
        assert hist == {0: 1, 1: 4, 2: 4, 3: 4, 4: 4}
        assert sum(g.closed) == 13
        assert all(g.distances[v] <= 3 for v in g.closed_vertices())

    def test_order_of_a_cubed(self):
        p = TriangularPresentation(
            m=2, density=Fraction(1, 5), seed=None, relators=((1, 1, 1),)
        )
        g = build_ball(p, 2)
        assert g.step(g.step(0, 1), 1) == g.step(0, -1)

    def test_deterministic(self, ab2_ball):
        assert build_ball(STRIP_PRESENTATION, 4) == ab2_ball

    def test_fold_order_confluence(self, ab2_ball):
        # shuffled closure order must not change the emitted graph
        for seed in (1, 2, 41):
            assert build_ball(STRIP_PRESENTATION, 4, _order_seed=seed) == ab2_ball

    def test_confluence_on_sampled_presentation(self):
        p = sample_presentation(3, Fraction(1, 3), 11)
        a = build_ball(p, 2, _order_seed=5)
        b = build_ball(p, 2, _order_seed=6)
        assert a == b == build_ball(p, 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_ball(free_presentation(2), -1)

    def test_large_radius_within_budget(self):
        # the vertex budget is the one cost guard; radius alone refuses nothing
        g = build_ball(STRIP_PRESENTATION, 13)
        assert (g.radius, g.vertex_count) == (13, 53)

    def test_vertex_budget(self):
        with pytest.raises(ValueError, match="vertex budget"):
            build_ball(free_presentation(2), 2, max_vertices=10)

    def test_vertex_budget_counts_every_allocated_id(self):
        # the 1,265-vertex ball at R=4 allocates 6,365 ids, absorbed vertices
        # and the frontier at R+1 included: the vertex count of its R=5 ball
        p = sample_presentation(4, Fraction(1, 6), 1)
        assert build_ball(p, 4, max_vertices=6_365).vertex_count == 1_265
        with pytest.raises(ValueError, match="vertex budget"):
            build_ball(p, 4, max_vertices=6_364)

    def test_adjacency_limit_caps_allocation(self, monkeypatch):
        # the free group's R=1 fold allocates the 17 ids of its R=2 ball, each
        # with a row of 2m = 4 slots: a limit of 68 slots builds it, 67 refuses
        # whatever the vertex budget
        p = free_presentation(2)
        monkeypatch.setattr(cayley, "MAX_ADJACENCY_SLOTS", 68)
        g = build_ball(p, 1)
        assert g.vertex_count == 5
        assert ball_from_json_dict(ball_to_json_dict(g)) == g
        monkeypatch.setattr(cayley, "MAX_ADJACENCY_SLOTS", 67)
        with pytest.raises(ValueError) as exc:
            build_ball(p, 1, max_vertices=10**9)
        assert str(exc.value) == (
            "the radius-1 ball at m=2 needs more than 16 vertices of 4 adjacency"
            " slots each, above the limit of 67 slots"
        )
        # a smaller vertex budget fires first, with its own message
        with pytest.raises(ValueError, match="vertex budget 10 exceeded"):
            build_ball(p, 1, max_vertices=10)

    def test_adjacency_limit_before_the_origin_row(self, monkeypatch):
        # one row of 2m = 10,000 slots passes a limit of 9,999: the fold
        # refuses before it allocates that row or its per-slot cycle tables
        monkeypatch.setattr(cayley, "MAX_ADJACENCY_SLOTS", 9_999)
        p = free_presentation(5_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                "more than 0 vertices of 10000 adjacency slots each,"
                " above the limit of 9999 slots"
            )):
                build_ball(p, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10_000  # less than one row of references

    @pytest.mark.parametrize("m, d, seed", [
        (2, Fraction(1, 5), 0), (2, Fraction(1, 5), 2), (4, Fraction(1, 6), 1),
    ])
    def test_allocates_one_id_per_vertex_of_the_next_ball(self, m, d, seed):
        # these folds meet no coincidence from R=1 on: every allocated id is
        # a distinct vertex within R+1, so the next ball's size is the budget
        p = sample_presentation(m, d, seed)
        for R in range(1, 5):
            budget = build_ball(p, R + 1).vertex_count
            assert build_ball(p, R, max_vertices=budget).vertex_count < budget
            with pytest.raises(ValueError, match="vertex budget"):
                build_ball(p, R, max_vertices=budget - 1)

    @pytest.mark.parametrize("seed, order_seed, allocated", [(5, 2, 1_468), (7, 5, 1_471)])
    def test_collision_merge_saves_ids(self, seed, order_seed, allocated):
        # a merge whose two roots fill the same slot joins the two targets;
        # skipping that leaves the ball unchanged but makes 2 more vertices
        # here, because expansion rebuilds the side still reachable
        p = sample_presentation(4, Fraction(1, 5), seed)
        build_ball(p, 5, max_vertices=allocated, _order_seed=order_seed)

    def test_frontier_leaves_take_no_rows(self):
        # 4,632 of the 6,365 vertices the fold makes stay leaves, with one
        # edge and no id or row; an id and a row for every one of them
        # peaks at 1.03 MB
        p = sample_presentation(4, Fraction(1, 6), 1)
        tracemalloc.start()
        try:
            g = build_ball(p, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.vertex_count == 1_265
        assert peak < 750_000

    def test_step_missing_letter(self):
        g = build_ball(free_presentation(2), 1)
        rim = g.vertex_count - 1
        assert g.distances[rim] == 1
        # rim vertices keep only the edge back toward the origin
        assert g.step(rim, 1) is None or g.step(rim, 1) == 0


class TestBallGraphValidation:
    def test_origin_distance(self):
        with pytest.raises(ValueError, match="distance 0"):
            BallGraph(
                presentation=free_presentation(1),
                radius=0,
                distances=(1,),
                closed=(False,),
                adj=(-1, -1),
            )

    # the constructor makes only the cheap checks; _check_links scans the
    # links, on every ball build_ball emits and on a ballgraph the loader's
    # tally cannot accept
    def test_inverse_consistency(self):
        with pytest.raises(ValueError, match="consistent under inversion"):
            _check_links(BallGraph(
                presentation=free_presentation(1),
                radius=1,
                distances=(0, 1),
                closed=(False, False),
                adj=(1, -1, -1, -1),
            ))

    def test_inverse_consistency_loaded(self):
        with pytest.raises(ValueError, match="consistent under inversion"):
            ball_from_json_dict(_ballgraph_doc(1, 1, [(0, {"a": 1}), (1, {})]))

    def test_slot_counts_match_vertices(self):
        with pytest.raises(ValueError, match=(
            r"^'edges' hold 4 slots and 'closed' 1 flags for 1 vertices of 2 slots each$"
        )):
            BallGraph(
                presentation=free_presentation(1),
                radius=0,
                distances=(0,),
                closed=(False,),
                adj=(-1, -1, -1, -1),
            )

    def test_edge_outside_vertex_list(self):
        with pytest.raises(ValueError, match="'edges' of vertex 0 point to 5, not a vertex"):
            _check_links(BallGraph(
                presentation=free_presentation(1),
                radius=0,
                distances=(0,),
                closed=(False,),
                adj=(5, -1),
            ))

    def test_edge_outside_vertex_list_loaded(self):
        with pytest.raises(ValueError, match="'edges' of vertex 0 point to 5, not a vertex"):
            ball_from_json_dict(_ballgraph_doc(1, 0, [(0, {"a": 5})]))

    def test_build_ball_checks_links(self, monkeypatch):
        checked = []
        monkeypatch.setattr(cayley, "_check_links", checked.append)
        g = build_ball(STRIP_PRESENTATION, 2)
        assert checked == [g]


def _ballgraph_doc(m, radius, vertices):
    """A ballgraph of the free group of rank m from (distance, edges) pairs."""
    return {
        "format": "ballgraph", "m": m, "density": "1/5", "seed": None, "relators": [],
        "radius": radius,
        "vertices": [{"distance": d, "closed": len(edges) == 2 * m, "edges": edges}
                     for d, edges in vertices],
    }


class TestJsonRoundTrip:
    def test_round_trip(self, ab2_ball):
        blob = json.dumps(ball_to_json_dict(ab2_ball), sort_keys=True)
        assert ball_from_json_dict(json.loads(blob)) == ab2_ball

    def test_format_tag_required(self):
        with pytest.raises(ValueError, match="format tag"):
            ball_from_json_dict({"m": 2})

    def test_large_rank_integer_keys(self):
        # beyond z/Z there is no letter alphabet; keys fall back to integers
        g = build_ball(free_presentation(30), 1)
        blob = json.dumps(ball_to_json_dict(g))
        assert ball_from_json_dict(json.loads(blob)) == g


class TestSlimness:
    def test_tree_is_zero_slim(self):
        g = build_ball(free_presentation(2), 3)
        assert slim_delta_estimate(g, 2000, 7) == 0

    def test_ab2_line_is_zero_slim_exhaustively(self, ab2_ball):
        # 13 closed vertices, C(13,3) = 286 triples: fully exhaustive.  The
        # defect must be minimized over jointly chosen geodesic realizations;
        # picking sides independently would report 1 on collinear triples.
        assert slim_delta_estimate(ab2_ball, 1000, 3) == 0

    def test_sampled_estimate_deterministic(self):
        p = sample_presentation(5, Fraction(1, 5), 11)
        g = build_ball(p, 3)
        assert len(g.closed_vertices()) >= 3
        est = slim_delta_estimate(g, 40, 12)
        assert est == slim_delta_estimate(g, 40, 12)
        assert 0 <= est <= 2 * g.radius

    def test_estimate_below_hyperbolicity_bound(self):
        d = Fraction(1, 5)
        p = sample_presentation(5, d, 11)
        g = build_ball(p, 3)
        assert slim_delta_estimate(g, 60, 1) <= delta_hyp(d)

    def test_needs_three_closed_vertices(self):
        g = build_ball(free_presentation(2), 1)
        assert len(g.closed_vertices()) < 3
        with pytest.raises(ValueError, match="insufficient closed region"):
            slim_delta_estimate(g, 10, 1)

    def test_samples_positive(self, ab2_ball):
        with pytest.raises(ValueError, match="positive"):
            slim_delta_estimate(ab2_ball, 0, 1)


class TestSearchEdges:
    """The edge cases of the ball's local searches."""

    @staticmethod
    def two_isolated_vertices() -> BallGraph:
        return BallGraph(presentation=free_presentation(1), radius=1, distances=(0, 1),
                         closed=(False, False), adj=(-1,) * 4)

    def test_step_beyond_the_rank_is_none(self, ab2_ball):
        assert ab2_ball.step(0, 3) is None
        assert ab2_ball.step(0, -3) is None
        assert ab2_ball.step(0, 0) is None

    def test_interval_of_a_vertex_with_itself(self, ab2_ball):
        assert _interval(ab2_ball, 5, 5) == {5: 0}

    def test_interval_to_an_unreachable_vertex_is_empty(self):
        assert _interval(self.two_isolated_vertices(), 0, 1) == {}

    def test_geodesics_without_a_path(self):
        assert _geodesics(self.two_isolated_vertices(), 0, 1, SIDE_CAP) == []

    def test_geodesics_stop_at_the_cap(self, ab2_ball):
        # four shortest paths from the origin to vertex 14 of the ab^2 ball
        every = _geodesics(ab2_ball, 0, 14, SIDE_CAP)
        assert len(every) == 4
        for cap in range(4):
            assert _geodesics(ab2_ball, 0, 14, cap) == every[:cap]


FOLD_CORPUS = [
    (f"m{m}-d{d.numerator}_{d.denominator}-seed{s}", sample_presentation(m, d, s))
    for m, d in ((2, Fraction(1, 5)), (2, Fraction(1, 3)), (3, Fraction(1, 4)),
                 (3, Fraction(1, 3)), (4, Fraction(1, 6)), (2, Fraction(2, 5)),
                 (3, Fraction(2, 5)))
    for s in range(3)
] + [("strip", STRIP_PRESENTATION)] + [
    # balls that keep growing, with no self-loop, unlike the trivial
    # generators of several presentations above; the last one's fold merges
    (f"m{m}-d{d.numerator}_{d.denominator}-seed{s}", sample_presentation(m, d, s))
    for m, d, s in ((4, Fraction(1, 4), 0), (3, Fraction(3, 10), 0), (5, Fraction(1, 5), 1),
                    (4, Fraction(1, 6), 3))
] + [
    # a ball that collapses to two vertices; a fresh id's scan that starts
    # with its own edge merges it with an older vertex, and stops
    ("m6-d3_10-seed20", sample_presentation(6, Fraction(3, 10), 20)),
]


class TestFoldOracle:
    """The flat-row fold against the dict-row fold it replaced."""

    @pytest.mark.parametrize("p", [case[1] for case in FOLD_CORPUS],
                             ids=[case[0] for case in FOLD_CORPUS])
    def test_matches_dict_row_fold(self, p):
        for R in range(5):
            for order_seed in (None, 3):
                assert build_ball(p, R, _order_seed=order_seed) == fold_oracle.build_ball(
                    p, R, _order_seed=order_seed
                )

    @pytest.mark.parametrize("p", [case[1] for case in FOLD_CORPUS],
                             ids=[case[0] for case in FOLD_CORPUS])
    def test_allocates_no_more_than_dict_row_fold(self, p, monkeypatch):
        add = UnionFind.add

        def counting_add(uf):
            allocated[0] += 1
            return add(uf)

        for R in range(5):
            allocated = [1]  # the origin
            with monkeypatch.context() as patch:
                patch.setattr(UnionFind, "add", counting_add)
                fold_oracle.build_ball(p, R)
            build_ball(p, R, max_vertices=allocated[0])

    def test_corpus_holds_a_growing_ball_that_merges(self, monkeypatch):
        union = UnionFind.union
        joined = [0]

        def counting_union(uf, a, b):
            gone = union(uf, a, b)
            joined[0] += gone >= 0
            return gone

        monkeypatch.setattr(UnionFind, "union", counting_union)
        g = fold_oracle.build_ball(dict(FOLD_CORPUS)["m4-d1_6-seed3"], 4)
        assert g.vertex_count == 441
        assert joined[0] > 0

    @pytest.mark.parametrize("p, R, order_seed", [
        # a merge meets a leaf in the kept row, and a leaf edge is rescanned
        (sample_presentation(5, Fraction(1, 4), 3), 1, 2),
        # a merge moves a leaf onto a filled slot
        (TriangularPresentation(m=4, density=Fraction(1, 5), seed=None,
                                relators=((1, -3, 4), (4, 2, 1), (4, 2, 2))), 1, 3),
        # the first scan of a fresh id within R reads a leaf of the vertex
        # being expanded
        (TriangularPresentation(m=4, density=Fraction(1, 5), seed=None,
                                relators=((-4, 3, 1), (-1, 2, -4), (4, -3, -3))), 2, 1),
    ], ids=["merge-meets-leaf", "merge-moves-leaf", "expand-reads-leaf"])
    def test_leaves_read_where_only_shuffles_reach(self, p, R, order_seed):
        g = build_ball(p, R, _order_seed=order_seed)
        assert g == build_ball(p, R) == fold_oracle.build_ball(p, R)

    @pytest.mark.parametrize("R", [2, 3])
    def test_back_slot_merge(self, R):
        # the only case of a 7,875-build sweep where complete's merge behind
        # a filled back slot changes the ball: without it, 4 slots differ
        # at R=2 and 36 at R=3
        p = sample_presentation(6, Fraction(1, 5), 2)
        assert build_ball(p, R) == fold_oracle.build_ball(p, R)

    def test_matches_dict_row_fold_at_radius_5(self):
        p = sample_presentation(4, Fraction(1, 6), 1)
        assert build_ball(p, 5) == fold_oracle.build_ball(p, 5)

    def test_relator_variants_match_list_dedup(self):
        # the same cycles in the same order as the list-scanning dedup, with
        # rotation-symmetric and mutually inverse relators repeating cycles
        cases = [p.relators for _, p in FOLD_CORPUS]
        cases += [sample_presentation(50, Fraction(2, 5), 1).relators]
        cases += [[(1, 1, 1), (-1, -1, -1), (1, 1, 2), (2, 1, 1), (-2, -1, -1)]]
        for relators in cases:
            assert _relator_variants(relators) == fold_oracle._relator_variants(relators)
        assert len(_relator_variants(cases[-1])) == 8


# repeated letters: a proper power a^3, and a^2 b with its rotation b a^2
REPEATED_LETTERS = [
    ("a3-b2c", TriangularPresentation(m=3, density=Fraction(1, 5), seed=None,
                                      relators=((1, 1, 1), (2, 2, 3)))),
    ("a2b-ba2-c2a", TriangularPresentation(m=3, density=Fraction(1, 5), seed=None,
                                           relators=((1, 1, 2), (2, 1, 1), (3, 3, 1)))),
]


def presentation_twins(p: TriangularPresentation):
    """Presentations of the same group: generators renamed or inverted, a
    relator inverted or rotated, the relators reordered."""
    m, rels = p.m, p.relators

    def with_relators(relators):
        return TriangularPresentation(m, p.density, p.seed, tuple(relators))

    yield "rename", with_relators([tuple((abs(c) % m + 1) * (1 if c > 0 else -1) for c in r)
                                   for r in rels])
    for g in range(1, m + 1):
        yield f"invert-{g}", with_relators([tuple(-c if abs(c) == g else c for c in r)
                                            for r in rels])
    for i, r in enumerate(rels):
        yield f"invert-relator-{i}", with_relators(rels[:i] + (invert_word(r),) + rels[i + 1:])
        yield f"rotate-relator-{i}", with_relators(rels[:i] + (r[1:] + r[:1],) + rels[i + 1:])
    yield "reverse-order", with_relators(rels[::-1])


class TestBallMetamorphic:
    def test_vertices_per_distance_unchanged(self):
        # the ball of the group, not of its presentation: each twin's ball
        # has as many vertices at each distance
        moved = []
        for name, p in FOLD_CORPUS + REPEATED_LETTERS:
            counts = Counter(build_ball(p, 4).distances)
            for change, q in presentation_twins(p):
                if Counter(build_ball(q, 4).distances) != counts:
                    moved.append((name, change))
        assert moved == []


class TestVanKampenGate:
    """The enumerator and the fold are independent kernels over one
    presentation.  A disc diagram's boundary word is trivial in the group
    (van Kampen's lemma), so read from the origin of a ball that holds the
    whole walk, it must lead back to the origin."""

    def test_boundary_words_close_in_the_ball(self):
        p = sample_presentation(4, Fraction(1, 4), 1)
        diagrams = list(enumerate_reduced_diagrams(DiagramBudget(3, p)))
        assert len(diagrams) == 53
        balls: dict[int, BallGraph] = {}
        for D in diagrams:
            # a closed walk of length L stays within L // 2 of its start
            R = D.boundary_length // 2 + 1
            if R not in balls:
                balls[R] = build_ball(p, R)
            v = 0
            for r in D.boundary:
                v = balls[R].step(v, D.letters[r - 1] if r > 0 else -D.letters[-r - 1])
                assert v is not None
            assert v == 0


def _copy_doc(doc: dict) -> dict:
    """A ballgraph document whose vertices and edge maps can be edited."""
    return {**doc, "vertices": [{**vertex, "edges": dict(vertex["edges"])}
                                for vertex in doc["vertices"]]}


def _renumbered(doc: dict, seed: int) -> dict:
    """The ball with every vertex but the origin renumbered at random, so
    that ids no longer follow the breadth-first order."""
    vertices = doc["vertices"]
    rest = list(range(1, len(vertices)))
    random.Random(seed).shuffle(rest)
    new_id = [0, *rest]
    moved = [None] * len(vertices)
    for v, vertex in enumerate(vertices):
        moved[new_id[v]] = {**vertex, "edges": {key: new_id[w]
                                                for key, w in vertex["edges"].items()}}
    return {**doc, "vertices": moved}


def _mutate_ball(doc: dict, rng: random.Random) -> None:
    """One random edit of a ballgraph that the per-vertex checks let through:
    a retargeted, dropped or swapped edge, a distance off by -1, +1 or +2, a
    radius one short, or a mirrored pair of new edges.  ``closed`` follows
    the edges, so the link and distance checks decide."""
    m, vertices = doc["m"], doc["vertices"]
    keys = [word_to_str((c,)) for c in all_letters(m)]
    v = rng.randrange(len(vertices))
    touched = [vertices[v]]
    edges = touched[0]["edges"]
    kind = rng.randrange(6)
    if kind == 0 and edges:
        edges[rng.choice(sorted(edges))] = rng.randrange(len(vertices))
    elif kind == 1 and edges:
        del edges[rng.choice(sorted(edges))]
    elif kind == 2:
        touched[0]["distance"] += rng.choice((-1, 1, 2))
    elif kind == 3:
        doc["radius"] -= 1
    elif kind == 4 and len(edges) >= 2:
        a, b = rng.sample(sorted(edges), 2)
        edges[a], edges[b] = edges[b], edges[a]
    elif kind == 5:
        w = rng.randrange(len(vertices))
        s = rng.randrange(2 * m)
        if keys[s] not in edges and keys[s ^ 1] not in vertices[w]["edges"]:
            edges[keys[s]] = w
            vertices[w]["edges"][keys[s ^ 1]] = v
            touched.append(vertices[w])
    for vertex in touched:
        vertex["closed"] = len(vertex["edges"]) == 2 * m


def _load_outcome(load, doc: dict):
    try:
        return load(doc)
    except ValueError as exc:
        return str(exc)


class TestLoaderOracle:
    """The one-pass ballgraph loader against the two-scan loader it replaced."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Calls of the loader's two whole-ball scans."""
        calls = []
        for name in ("_check_links", "_check_distances"):
            scan = getattr(cayley, name)
            monkeypatch.setattr(cayley, name,
                                lambda g, name=name, scan=scan: calls.append(name) or scan(g))
        return calls

    @pytest.mark.parametrize("p", [case[1] for case in FOLD_CORPUS],
                             ids=[case[0] for case in FOLD_CORPUS])
    def test_corpus_balls_scanned_only_for_self_loops(self, p, scans):
        # a generator that is trivial in the group is a self-loop at every
        # vertex; several corpus groups are trivial at this scale
        for R in range(4):
            g = build_ball(p, R)
            scans.clear()
            doc = ball_to_json_dict(g)
            assert ball_from_json_dict(doc) == g == ball_loader_oracle.ball_from_json_dict(doc)
            loops = any(w == i // g.stride for i, w in enumerate(g.adj))
            assert scans == (["_check_links", "_check_distances"] if loops else [])

    def test_renumbered_ball_loads_without_scans(self, scans):
        g = build_ball(sample_presentation(4, Fraction(1, 6), 1), 3)
        doc = _renumbered(ball_to_json_dict(g), 5)
        scans.clear()
        g = ball_from_json_dict(doc)
        assert scans == []
        assert g == ball_loader_oracle.ball_from_json_dict(doc)
        assert g.distances != tuple(sorted(g.distances))

    def test_self_loop_pair_loads_through_scans(self, scans):
        # slots a and A of the origin both lead back to it: consistent, but
        # neither is a second end, so only the scans can accept it
        doc = _ballgraph_doc(1, 0, [(0, {"a": 0, "A": 0})])
        g = ball_from_json_dict(doc)
        assert scans == ["_check_links", "_check_distances"]
        assert g == ball_loader_oracle.ball_from_json_dict(doc)
        assert g.adj == (0, 0)

    def test_mutated_balls_agree(self):
        bases = [ball_to_json_dict(build_ball(p, R)) for p, R in (
            (STRIP_PRESENTATION, 3),
            (sample_presentation(2, Fraction(1, 5), 0), 3),
            (sample_presentation(3, Fraction(1, 4), 0), 2),
            (sample_presentation(4, Fraction(1, 6), 1), 2),
        )]
        bases.append(_renumbered(bases[-1], 2))
        rng = random.Random(18)
        accepted = refused = 0
        for i in range(2000):
            doc = _copy_doc(bases[i % len(bases)])
            for _ in range(rng.randint(1, 2)):
                _mutate_ball(doc, rng)
            new = _load_outcome(ball_from_json_dict, doc)
            assert new == _load_outcome(ball_loader_oracle.ball_from_json_dict, doc), i
            if isinstance(new, str):
                refused += 1
            else:
                accepted += 1
        # both outcomes are well represented: 225 accepted, 1,775 refused
        assert accepted >= 200 and refused >= 1500


def _cli_ball_matches_dump(tmp_path, capsys, p_json, R) -> str:
    """Assert that the ``ball`` report of ``cli.main``, on stdout and through
    ``--out``, is the text ``json.dumps`` gives the ball's dict with the same
    meta, and that the streamed loader reads the ball back from it; return
    that text."""
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(p_json))
    argv = ["ball", "--presentation", str(pres), "--radius", str(R)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "ball.json"
    assert main([*argv, "--out", str(out)]) == 0
    g = build_ball(TriangularPresentation.from_json(p_json), R)
    meta = json.loads(stdout)["meta"]
    oracle = json.dumps({**ball_to_json_dict(g), "meta": meta}, indent=2, sort_keys=True) + "\n"
    assert stdout == oracle
    assert out.read_bytes() == oracle.encode()
    assert ball_from_json_text(stdout) == g
    return stdout


class TestBallgraphWriter:
    """The streamed ``ball`` report against ``json.dumps`` of its dict."""

    @pytest.mark.parametrize("p", [case[1] for case in FOLD_CORPUS],
                             ids=[case[0] for case in FOLD_CORPUS])
    def test_matches_indent_dump(self, tmp_path, capsys, p):
        # the CLI reads only sampled presentations, which carry a seed
        p_json = {**p.to_json(), "seed": p.seed or 0}
        for R in range(5):
            _cli_ball_matches_dump(tmp_path, capsys, p_json, R)

    def test_unsampled_seed_written_as_null(self):
        g = build_ball(STRIP_PRESENTATION, 3)
        meta = {"tool": "trigroup", "seed": None, "config": {}}
        text = "".join(ballgraph_chunks(g, meta))
        assert '\n  "seed": null,\n' in text
        assert text == json.dumps({**ball_to_json_dict(g), "meta": meta},
                                  indent=2, sort_keys=True) + "\n"

    def test_integer_keys_sorted_as_text(self, tmp_path, capsys):
        # beyond rank 26 the keys are integers, so "-1" sorts before "-10"
        p = sample_presentation(30, Fraction(1, 10), 2)
        text = _cli_ball_matches_dump(tmp_path, capsys, p.to_json(), 1)
        start = text.index('"vertices"')
        origin = text[start:text.index("\n    }", start)]
        assert origin.index('"-1": ') < origin.index('"-10": ') < origin.index('"-2": ')

    def test_edgeless_origin(self, tmp_path, capsys):
        p = sample_presentation(4, Fraction(1, 6), 1)
        text = _cli_ball_matches_dump(tmp_path, capsys, p.to_json(), 0)
        assert text.endswith('"edges": {}\n    }\n  ]\n}\n')

    def test_bench_ball_at_radius_5(self, tmp_path, capsys):
        # 6,365 vertices: two chunks of the stream
        p = sample_presentation(4, Fraction(1, 6), 1)
        text = _cli_ball_matches_dump(tmp_path, capsys, p.to_json(), 5)
        assert len(json.loads(text)["vertices"]) == 6365



def _dict_outcome(text: str) -> BallGraph | None:
    """The ball ``ball_from_json_dict`` makes of the JSON in ``text``, or
    None when either step refuses it."""
    try:
        return ball_from_json_dict(json.loads(text))
    except (ValueError, RecursionError):
        return None


def _written(g: BallGraph) -> str:
    return "".join(ballgraph_chunks(g, {"tool": "trigroup"}))


class TestBallFromJsonText:
    """The streamed loader against ``ball_from_json_dict`` on the same text:
    each ball it returns is the dict loader's, and it returns None for every
    text the dict loader refuses."""

    @pytest.fixture(scope="class")
    def written(self):
        return _written(build_ball(sample_presentation(4, Fraction(1, 6), 1), 3))

    def test_one_vertex_without_separator(self):
        g = build_ball(sample_presentation(4, Fraction(1, 6), 1), 0)
        text = _written(g)
        assert '"edges": {}' in text and cayley._VERTEX_SEP not in text
        assert ball_from_json_text(text) == g

    def test_integer_edge_keys(self):
        g = build_ball(sample_presentation(30, Fraction(1, 10), 2), 1)
        text = _written(g)
        assert '"-10": ' in text
        assert ball_from_json_text(text) == g

    def test_many_slices(self):
        # 1,265 vertices in about 165 KB: six slices
        g = build_ball(sample_presentation(4, Fraction(1, 6), 1), 4)
        text = _written(g)
        assert len(text) > 5 * cayley._SLICE_CHARS
        assert ball_from_json_text(text) == g

    def test_separator_text_inside_a_string(self):
        # json.dumps escapes the newlines of a string, so the header keeps
        # one raw separator
        g = build_ball(STRIP_PRESENTATION, 2)
        meta = {"note": cayley._VERTICES_OPEN + cayley._VERTEX_SEP}
        text = "".join(ballgraph_chunks(g, meta))
        assert ball_from_json_text(text) == g
        # raw newlines inside a string are not JSON
        raw = text.replace('"note": "', '"note": "' + cayley._VERTEX_SEP, 1)
        assert _dict_outcome(raw) is None and ball_from_json_text(raw) is None

    def test_unrefused_other_layouts_fall_through(self, written):
        doc = json.loads(written)
        # a member after vertices; compact text; no final newline; then one
        # separator too few: a second vertex with a field before closed, and
        # two vertices on one line
        for text in (
            json.dumps({**doc, "zz": 1}, indent=2, sort_keys=True) + "\n",
            json.dumps(doc),
            written[:-1],
            written.replace('{\n      "closed"', '{\n      "a": 0,\n      "closed"', 2),
            written.replace(cayley._VERTEX_SEP, '},{"closed":', 1),
        ):
            assert ball_from_json_text(text) is None
            assert _dict_outcome(text) == _dict_outcome(written)

    def test_separator_nested_in_a_vertex(self, written):
        # the dict loader ignores a vertex's other fields; the extra
        # separator leaves one vertex fewer than the count
        nested = '"x": [{"y": 0' + cayley._VERTEX_SEP + ' 1}],\n      "closed":'
        text = written.replace('"closed":', nested, 1)
        assert _dict_outcome(text) == _dict_outcome(written)
        assert ball_from_json_text(text) is None

    def test_second_vertices_key_in_header(self, written):
        # the last key wins in json.loads, so the array is the ball's
        text = written.replace('{\n  "density"', '{\n  "vertices": 5,\n  "density"', 1)
        assert ball_from_json_text(text) == _dict_outcome(written)
        # a header member in the layout of the array comes first
        fake = cayley._VERTICES_OPEN + '\n    1\n  ],\n  "w": 0'
        text = written.replace(cayley._VERTICES_OPEN, fake + cayley._VERTICES_OPEN, 1)
        assert _dict_outcome(text) == _dict_outcome(written)
        assert ball_from_json_text(text) is None

    @pytest.mark.parametrize("old, new", [
        # past the integer digit limit
        ('"distance": 1,', '"distance": 1' + "0" * 4999 + ","),
        ('"closed": false', '"closed": ' + "[" * 100_000 + "]" * 100_000),
        ('"closed": false', '"closed": fals'),
        ('"closed": false', '"closed": true'),
        ('"distance": 1,', '"distance": -1,'),
        ('"radius": 3', '"radius": 2'),
        ('"m": 4', '"m": 4.5'),
    ], ids=["digits", "nested", "not-json", "closed", "distance", "radius", "m"])
    def test_refused_text(self, written, old, new):
        text = written.replace(old, new, 1)
        assert text != written
        assert _dict_outcome(text) is None
        assert ball_from_json_text(text) is None

    def test_peak_below_half_of_the_dict_path(self):
        # the bench ball at R=5, 6,365 vertices in 941 KB: the dict path
        # peaked at 4.11 MB and the streamed one at 1.63 MB
        g = build_ball(sample_presentation(4, Fraction(1, 6), 1), 5)
        text = _written(g)
        peaks = []
        for load in (lambda: ball_from_json_dict(json.loads(text)),
                     lambda: ball_from_json_text(text)):
            tracemalloc.start()
            try:
                assert load() == g
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] / 2


def _oracle_corpus():
    # (name, presentation, radius, samples, sample seed): the existing
    # slimness cases, two larger balls and four m=2 balls, all with estimate
    # 0, then four balls whose estimate is 1
    two_relators = TriangularPresentation(
        m=3, density=Fraction(1, 5), seed=None, relators=((1, 2, 3), (1, 3, 2))
    )
    corpus = [
        ("free-tree", free_presentation(2), 3, 2000, 7),
        ("ab2-line", STRIP_PRESENTATION, 4, 1000, 3),
        ("ab2-R8", STRIP_PRESENTATION, 8, 1000, 3),
        ("m5-40", sample_presentation(5, Fraction(1, 5), 11), 3, 40, 12),
        ("m5-60", sample_presentation(5, Fraction(1, 5), 11), 3, 60, 1),
        ("m4-R5", sample_presentation(4, Fraction(1, 6), 3), 5, 60, 1),
    ]
    corpus += [
        (f"m2-seed{s}", sample_presentation(2, d, s), 4, 50, s)
        for d, s in ((Fraction(1, 5), 2), (Fraction(1, 5), 7), (Fraction(1, 4), 6),
                     (Fraction(1, 3), 6))
    ]
    corpus += [
        ("m3-two-relators-R3", two_relators, 3, 60, 1),
        ("m3-two-relators-R4", two_relators, 4, 60, 1),
        ("m3-seed2-R5", sample_presentation(3, Fraction(1, 5), 2), 5, 60, 2),
        ("m3-seed4-R5", sample_presentation(3, Fraction(1, 5), 4), 5, 60, 4),
    ]
    return corpus


ORACLE_CORPUS = _oracle_corpus()


class TestSlimnessOracle:
    """The local probe against the whole-ball estimator it replaced."""

    @pytest.mark.parametrize(
        "p, radius, samples, seed",
        [case[1:] for case in ORACLE_CORPUS],
        ids=[case[0] for case in ORACLE_CORPUS],
    )
    def test_matches_whole_ball_estimator(self, p, radius, samples, seed):
        g = build_ball(p, radius)
        assert slim_delta_estimate(g, samples, seed) == slim_oracle.slim_delta_estimate(
            g, samples, seed
        )

    def test_corpus_reaches_nonzero_estimates(self):
        nonzero = [
            name for name, p, radius, samples, seed in ORACLE_CORPUS
            if slim_delta_estimate(build_ball(p, radius), samples, seed) > 0
        ]
        assert nonzero == [
            "m3-two-relators-R3", "m3-two-relators-R4", "m3-seed2-R5", "m3-seed4-R5",
        ]

    def test_baseline_ball(self):
        # m=4, d=1/6, seed 1, R=6: 32,001 vertices, 6,365 closed
        g = build_ball(sample_presentation(4, Fraction(1, 6), 1), 6)
        assert (g.vertex_count, len(g.closed_vertices())) == (32_001, 6_365)
        assert slim_delta_estimate(g, 40, 3) == 1

    @pytest.mark.parametrize("p, radius", [
        (sample_presentation(4, Fraction(1, 6), 3), 5),
        (sample_presentation(3, Fraction(1, 5), 2), 5),
    ])
    def test_geodesics_and_defect_match_full_maps(self, p, radius):
        # random corner triples and random geodesic sides: the truncated
        # corner search finds the same geodesics, and the multi-source defect
        # equals the minimum over full breadth-first maps of the side points
        g = build_ball(p, radius)
        pairs = slim_oracle.PairGraph(g)
        maps = slim_oracle._DistCache(pairs)
        rng = random.Random(5)
        closed = g.closed_vertices()
        defects = []
        for _ in range(150):
            x, y, z = rng.sample(closed, 3)
            sides = []
            for a, b in ((x, y), (y, z), (z, x)):
                found = _geodesics(g, a, b, 16)
                assert found == slim_oracle._geodesics(pairs, maps, a, b, 16)
                sides.append(rng.choice(found))
            defect = _slimness_defect(g, sides)
            assert defect == slim_oracle._slimness_defect(sides, maps)
            defects.append(defect)
        assert max(defects) >= 1


class TestStripDiagram:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_strip_shape(self, t):
        D = strip_diagram(t)
        assert D.area == 2 * t
        assert D.boundary_length == 2 * t + 2
        assert cancel(D) == 2 * t - 1
        assert is_reduced_diagram(D)
        assert euler_check(D)
        rim = tuple(D.letters[r - 1] if r > 0 else -D.letters[-r - 1] for r in D.boundary)
        assert rim == (1,) * t + (-2,) + (-1,) * t + (2,)
        assert D.labels == (1,) * (2 * t)

    def test_needs_a_rung_pair(self):
        with pytest.raises(ValueError, match="at least one rung"):
            strip_diagram(0)


@pytest.fixture(scope="module")
def report():
    return fig1_demo()


class TestFig1Demo:
    def test_all_checks_pass(self, report):
        assert report["checks"] == {
            "gamma_geodesic": True,
            "translate_geodesic": True,
            "disjoint": True,
            "hausdorff_distance_one": True,
            "strips_ok": True,
        }
        assert report["all_checks_pass"] is True

    def test_powers_of_a_are_geodesic(self, report):
        # d(1, a^i) = i along the ray; in particular d(1, a^3) = 3
        assert report["gamma_distances"] == [0, 1, 2, 3, 4, 5, 6]
        assert report["gamma_distances"][3] == 3

    def test_parallel_at_distance_one(self, report):
        assert report["hausdorff_distance"] == 1

    def test_strip_rows(self, report):
        assert [row["t"] for row in report["strips"]] == [1, 2, 3, 4]
        for row in report["strips"]:
            assert row["cancel"] == row["expected_cancel"] == 2 * row["t"] - 1
            assert row["ok"]

    def test_ball_size(self, report):
        assert report["ball_vertices"] == 33
