"""Diagram enumeration: completeness, dedup, reducedness, reports."""

import functools
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigroup import complexes, enumeration
from trigroup.complexes import (
    VanKampenDiagram,
    abstract_from_walks,
    cancel,
    close_walks,
    is_reduced_diagram,
    red,
)
from trigroup.enumeration import (
    DiagramBudget,
    enumerate_reduced_diagrams,
    euler_check,
    isoperimetric_report,
    sampled_violation_trend,
    _attach,
    _canonical,
    _grow,
    _seed,
    _slot_index,
    _to_diagram,
    _trace_table,
)
from trigroup.fulfillment import fulfils
from trigroup.presentation import TriangularPresentation, sample_presentation
from trigroup.seeding import derive_seed

import canon_oracle
import close_walks_oracle
import growth_oracle
from relator_classes import has_proper_power, relators_distinct_up_to_symmetry


def pres(relators, m=5):
    return TriangularPresentation(
        m=m, density=Fraction(1, 5), seed=None,
        relators=tuple(tuple(r) for r in relators),
    )


ABC = pres([(1, 2, 3)])
ABC_ADE = pres([(1, 2, 3), (-1, 4, 5)])          # glueable along the a-edge
BIGON = pres([(1, 2, 3), (-2, -1, 4)])           # glueable along a two-edge arc
TIGHT = pres([(1, 2, 2), (2, 1, 1)], m=2)        # small alphabet, many gluings


def diagrams(p, max_faces, epsilon=Fraction(1, 100)):
    return list(enumerate_reduced_diagrams(DiagramBudget(max_faces, p, epsilon)))


# ---------------------------------------------------------------------------
# independent isomorphism test (backtracking, no canonical forms)


def _extend(emap, a, b):
    """Try recording edge ref a -> ref b; emap maps edges with signs."""
    ea, eb = abs(a), abs(b)
    sg = (1 if a > 0 else -1) * (1 if b > 0 else -1)
    if ea in emap:
        return emap[ea] == (eb, sg)
    if any(t == eb for t, _ in emap.values()):
        return False
    emap[ea] = (eb, sg)
    return True


def _match_faces(d1, d2, left, right, emap):
    if not left:
        return True
    f = left[0]
    w1 = d1.faces[f]
    for g in right:
        if d1.labels[f] != d2.labels[g]:
            continue
        w2 = d2.faces[g]
        for rot in range(3):
            trial = dict(emap)
            if all(
                _extend(trial, w1[j], w2[(rot + j) % 3]) for j in range(3)
            ):
                if _match_faces(
                    d1, d2, left[1:], [h for h in right if h != g], trial
                ):
                    emap.clear()
                    emap.update(trial)
                    return True
    return False


def isomorphic(d1, d2):
    """Label-preserving isomorphism, boundaries identified up to basepoint
    and direction (mirror images count as equal)."""
    if (d1.area, d1.boundary_length, d1.edge_count) != (
        d2.area, d2.boundary_length, d2.edge_count,
    ):
        return False
    b1 = d1.boundary
    B = len(b1)
    for direction in (1, -1):
        for root in range(B):
            if direction == 1:
                b2 = [d2.boundary[(root + j) % B] for j in range(B)]
            else:
                b2 = [-d2.boundary[(root - j) % B] for j in range(B)]
            emap = {}
            if not all(_extend(emap, b1[j], b2[j]) for j in range(B)):
                continue
            if _match_faces(d1, d2, list(range(d1.face_count)), list(range(d2.face_count)), emap):
                return True
    return False


def brute_force_diagrams(p, max_faces):
    """Every reachable gluing order, deduplicated by pairwise isomorphism."""
    relators = p.relators
    traces = _trace_table(relators)
    seeds = [_seed(word, i + 1) for i, word in enumerate(relators)]
    found = []
    stack = list(seeds)
    states = []
    while stack:
        state = stack.pop()
        states.append(state)
        if len(state[1]) == max_faces:
            continue
        B = len(state[2])
        for pos in range(B):
            for k in (1, 2):
                for rel_pos in range(len(relators)):
                    for start in range(3):
                        for mirror in (False, True):
                            grown = _attach(
                                state, pos, k, rel_pos, start, mirror, relators, traces
                            )
                            if grown is not None:
                                stack.append(grown)
    for state in states:
        D = _to_diagram(state, p)
        if not any(isomorphic(D, E) for E in found):
            found.append(D)
    return found


# ---------------------------------------------------------------------------


class TestBudget:
    def test_max_faces_positive(self):
        with pytest.raises(ValueError, match="max_faces"):
            DiagramBudget(0, ABC)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            DiagramBudget(1, ABC, Fraction(0))

    def test_six_faces(self):
        # no face cap in the library: the CLI's --face-cap is the only one
        assert len(list(enumerate_reduced_diagrams(DiagramBudget(6, ABC)))) == 1


class TestSingleFace:
    def test_trivial_symmetry_counts_once(self):
        ds = diagrams(ABC, 1)
        assert len(ds) == 1
        D = ds[0]
        assert D.area == 1 and D.vertex_count == 3 and D.edge_count == 3
        assert D.boundary_length == 3
        spelled = tuple(D.letters[r - 1] if r > 0 else -D.letters[-r - 1] for r in D.faces[0])
        assert spelled == (1, 2, 3)
        assert euler_check(D)

    def test_rotation_symmetric_relator_counts_once(self):
        ds = diagrams(pres([(1, 1, 1)], m=2), 1)
        assert len(ds) == 1

    def test_one_seed_per_relator(self):
        assert len(diagrams(ABC_ADE, 1)) == 2

    def test_euler_check_rejects_non_diagram(self):
        with pytest.raises(TypeError):
            euler_check(abstract_from_walks([(1, 2, 3)], [1]))


class TestTwoFaces:
    def test_mirror_pair_never_emitted(self):
        # the only two-face extension of a lone generic relator is its mirror
        assert len(diagrams(ABC, 2)) == 1

    def test_shared_edge_diagram(self):
        ds = [D for D in diagrams(ABC_ADE, 2) if D.area == 2]
        assert len(ds) == 1
        D = ds[0]
        assert D.vertex_count == 4
        assert D.boundary_length == 4
        assert cancel(D) == 1
        assert is_reduced_diagram(D)
        assert sorted(D.labels) == [1, 2]

    def test_two_edge_arc_diagram(self):
        # the single-edge gluings along letters a and b are isomorphic (an
        # isomorphism need not fix letters), so two classes remain: one
        # shared-edge diagram and the bigon from the two-edge arc
        two_face = [D for D in diagrams(BIGON, 2) if D.area == 2]
        assert len(two_face) == 2
        bigons = [D for D in two_face if D.boundary_length == 2]
        assert len(bigons) == 1
        D = bigons[0]
        assert D.vertex_count == 3
        assert cancel(D) == 2
        assert is_reduced_diagram(D)


class TestEmittedInvariants:
    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_sampled_presentations(self, seed):
        p = sample_presentation(5, Fraction(1, 3), seed)
        count = 0
        for D in diagrams(p, 3):
            count += 1
            assert euler_check(D)
            assert is_reduced_diagram(D)
            assert 3 * D.area == D.boundary_length + 2 * cancel(D)
            for walk, label in zip(D.faces, D.labels):
                spelled = tuple(D.letters[r - 1] if r > 0 else -D.letters[-r - 1] for r in walk)
                assert spelled == p.relators[label - 1]
            if relators_distinct_up_to_symmetry(p.relators) and not has_proper_power(
                p.relators
            ):
                assert red(D) == 0
        assert count >= len(p.relators)

    def test_small_alphabet_stress(self):
        for D in diagrams(TIGHT, 4):
            assert euler_check(D)
            assert is_reduced_diagram(D)
            assert 3 * D.area == D.boundary_length + 2 * cancel(D)


class TestCompleteness:
    @pytest.mark.parametrize("p,M", [(ABC_ADE, 3), (BIGON, 3), (TIGHT, 3)])
    def test_matches_brute_force(self, p, M):
        fast = diagrams(p, M)
        slow = brute_force_diagrams(p, M)
        assert len(fast) == len(slow)
        for D in fast:
            assert sum(1 for E in slow if isomorphic(D, E)) == 1

    def test_no_duplicates_emitted(self):
        ds = diagrams(TIGHT, 3)
        for i, D in enumerate(ds):
            for E in ds[i + 1:]:
                assert not isomorphic(D, E)


class TestDeterminism:
    def test_two_runs_agree(self):
        def trace(run):
            return [
                (D.area, D.boundary, D.labels, D.faces, D.letters) for D in run
            ]

        assert trace(diagrams(TIGHT, 4)) == trace(diagrams(TIGHT, 4))

    def test_sorted_by_area(self):
        areas = [D.area for D in diagrams(TIGHT, 4)]
        assert areas == sorted(areas)


class TestIsoperimetricReport:
    def test_shape_and_identity(self):
        rep = isoperimetric_report(DiagramBudget(2, ABC_ADE, Fraction(1, 25)))
        assert rep["total"] == 3
        assert rep["identity_holds"] and rep["equivalence_holds"]
        assert rep["violations"] == 0
        assert all(
            set(r) == {"area", "boundary_length", "cancel", "cancel_ok", "boundary_ok"}
            for r in rep["diagrams"]
        )

    def test_violation_counted(self):
        # bigon: cancel 2 > 3(1/5 + 1/100) * 2; the other four diagrams hold
        rep = isoperimetric_report(DiagramBudget(2, BIGON))
        assert rep["total"] == 4
        assert rep["violations"] == 1
        assert rep["equivalence_holds"]
        assert rep["violation_frequency"] == "1/4"


class TestLabelledComplexReport:
    """cancel(Y) - red(Y) against 3(d+eps)|Y| on complexes the relators fulfil."""

    def test_rows(self):
        p = pres([(1, 2, 3), (1, 4, 5)])
        Y = abstract_from_walks([(1, 2, 3), (1, 4, 5)], [1, 2])
        assert fulfils(Y, p.relators)
        assert Y.face_count == 2
        assert cancel(Y) - red(Y) == 1
        assert cancel(Y) - red(Y) <= 3 * (p.density + Fraction(1, 100)) * Y.face_count

    def test_unbound_complex_rejected(self):
        # words (1,2,3) and (-1,4,5) clash on the shared first edge
        Y = abstract_from_walks([(1, 2, 3), (1, 4, 5)], [1, 2])
        assert not fulfils(Y, ABC_ADE.relators)


class TestTrend:
    def test_shape_and_determinism(self):
        kw = dict(
            m_values=(2, 3),
            d=Fraction(1, 5),
            epsilon=Fraction(1, 25),
            max_faces=2,
            presentations=3,
            seed=5,
        )
        rep = sampled_violation_trend(**kw)
        assert [row["m"] for row in rep["per_m"]] == [2, 3]
        for row in rep["per_m"]:
            assert row["presentations"] == 3
            assert 0 <= row["violating_diagrams"] <= row["diagrams"]
        assert rep == sampled_violation_trend(**kw)


# ---------------------------------------------------------------------------
# the level-synchronous canonical form against the recursive oracle


@functools.lru_cache(maxsize=None)
def canonicalised_states(p, max_faces):
    """Every state the enumerator canonicalises for ``p`` up to ``max_faces``."""
    states = []
    real = enumeration._canonical

    def record(state):
        states.append(state)
        return real(state)

    enumeration._canonical = record
    try:
        for _ in enumerate_reduced_diagrams(DiagramBudget(max_faces, p)):
            pass
    finally:
        enumeration._canonical = real
    return tuple(states)


@functools.lru_cache(maxsize=None)
def tied_roots_per_state(p, max_faces):
    """How many roots tie for the least first face key, by the oracle, on
    each state of two or more faces in ``canonicalised_states(p, max_faces)``."""
    states = canonicalised_states(p, max_faces)
    return tuple(canon_oracle.tied_roots(s) for s in states if len(s[1]) >= 2)


ORACLE_CORPORA = {
    "m3-d1/4-seed7": (sample_presentation(3, Fraction(1, 4), 7), 5),
    "m10-d17/50-seed0": (sample_presentation(10, Fraction(17, 50), 0), 3),
    "tight": (TIGHT, 4),
}


def relabelled(state, names, flips, order, turns, shift):
    """``state`` with edge e renamed ``names[e-1]`` (reversed where ``flips``
    says so), its faces listed in ``order``, face walks rotated by ``turns``
    and the boundary rotated by ``shift``."""
    letters, faces, boundary, edges, vertex_count = state

    def ref(r):
        e = abs(r)
        sign = (1 if r > 0 else -1) * (-1 if flips[e - 1] else 1)
        return sign * names[e - 1]

    new_letters = [0] * len(letters)
    new_edges = [None] * len(edges)
    for e, (c, (t, h)) in enumerate(zip(letters, edges), start=1):
        new_letters[names[e - 1] - 1] = -c if flips[e - 1] else c
        new_edges[names[e - 1] - 1] = (h, t) if flips[e - 1] else (t, h)
    new_faces = []
    for f, t in zip(order, turns):
        walk, label = faces[f]
        new_faces.append((tuple(ref(walk[(t + j) % 3]) for j in range(3)), label))
    B = len(boundary)
    return (
        tuple(new_letters),
        tuple(new_faces),
        tuple(ref(boundary[(shift + j) % B]) for j in range(B)),
        tuple(new_edges),
        vertex_count,
    )


def small_states():
    return canonicalised_states(TIGHT, 3) + canonicalised_states(
        sample_presentation(3, Fraction(1, 4), 7), 3
    )


class TestCanonicalForm:
    @pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
    def test_matches_recursive_oracle(self, corpus):
        p, max_faces = ORACLE_CORPORA[corpus]
        states = canonicalised_states(p, max_faces)
        assert states
        mismatched = [s for s in states if _canonical(s) != canon_oracle._canonical(s)]
        assert mismatched == []

    def test_boundary_crossing_an_edge_twice_refused(self):
        with pytest.raises(ValueError, match="twice"):
            _canonical(((1, 2, 3), (((1, 2, 3), 1),), (1, 2, 3, -1), ((0, 1), (1, 2), (2, 0)), 3))

    def test_face_using_an_edge_twice_refused(self):
        # _attach never makes such a face: it glues onto at most two
        # consecutive, distinct boundary edges and mints the rest
        with pytest.raises(ValueError, match="twice"):
            _canonical(((1, 2), (((1, 2, -2), 1),), (1,), ((0, 0), (0, 0)), 1))

    def test_call_count_on_deep_input(self):
        # one call per one-face seed and per grown child; pruning inside a
        # call leaves this count alone
        p, max_faces = ORACLE_CORPORA["m10-d17/50-seed0"]
        assert len(canonicalised_states(p, max_faces)) == 4502

    def test_tied_roots_on_deep_input(self):
        # the roots that tie for the least first key are the ones _canonical
        # carries past position 1
        p, max_faces = ORACLE_CORPORA["m10-d17/50-seed0"]
        assert sum(tied_roots_per_state(p, max_faces)) == 4618

    def test_deep_input_reaches_tied_roots(self):
        # some states tie at their first key and go on from two roots, so
        # the oracle comparison on this corpus covers the multi-root path
        p, max_faces = ORACLE_CORPORA["m10-d17/50-seed0"]
        assert sum(n >= 2 for n in tied_roots_per_state(p, max_faces)) == 136

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invariant_under_relabelling(self, data):
        states = small_states()
        state = states[data.draw(st.integers(0, len(states) - 1), label="state")]
        E, F, B = len(state[0]), len(state[1]), len(state[2])
        names = data.draw(st.permutations(range(1, E + 1)), label="names")
        flips = data.draw(st.lists(st.booleans(), min_size=E, max_size=E), label="flips")
        order = data.draw(st.permutations(range(F)), label="order")
        turns = data.draw(st.lists(st.integers(0, 2), min_size=F, max_size=F), label="turns")
        shift = data.draw(st.integers(0, B - 1), label="shift")
        moved = relabelled(state, names, flips, order, turns, shift)
        assert _canonical(moved) == _canonical(state)
        assert _canonical(moved) == canon_oracle._canonical(moved)


# ---------------------------------------------------------------------------
# growth: the first step's seed rule, and arcs longer than the boundary

# the six presentations of the trend that TestGoldenReports pins, at seed 1
TREND_SEED_1 = {
    f"m{m}-{i}": sample_presentation(m, Fraction(17, 50), derive_seed(1, "isop", m, i))
    for m in (10, 40)
    for i in range(3)
}


def diagram_fields(D):
    return (D.faces, D.labels, D.letters, D.boundary, D.edges, D.vertex_count)


def assert_matches_unfiltered_loop(p, max_faces):
    emitted = [diagram_fields(D) for D in diagrams(p, max_faces)]
    assert emitted == [diagram_fields(D) for D in growth_oracle.diagrams(p, max_faces)]


def one_edge_boundary_states():
    """The deep input's states with a one-edge boundary: its violations."""
    p, max_faces = ORACLE_CORPORA["m10-d17/50-seed0"]
    states = canonicalised_states(p, max_faces)
    return p.relators, [s for s in states if len(s[2]) == 1]


class TestGrowth:
    # "m10-d17/50-seed0" at 3 faces is the deep report's input
    @pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
    def test_matches_unfiltered_loop(self, corpus):
        assert_matches_unfiltered_loop(*ORACLE_CORPORA[corpus])

    @pytest.mark.parametrize("name", sorted(TREND_SEED_1))
    def test_trend_matches_unfiltered_loop(self, name):
        assert_matches_unfiltered_loop(TREND_SEED_1[name], 2)

    @pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
    def test_seeds_visited_in_relator_order(self, corpus, monkeypatch):
        # the first step grows seed r with least = r; later steps skip nothing
        p, max_faces = ORACLE_CORPORA[corpus]
        visits = []
        real = enumeration._grow

        def record(state, relators, index, traces, ranks=None, least=0):
            visits.append((state[1], least))
            return real(state, relators, index, traces, ranks, least)

        monkeypatch.setattr(enumeration, "_grow", record)
        diagrams(p, max_faces)
        seeds = [(faces, least) for faces, least in visits if len(faces) == 1]
        assert seeds == [((((1, 2, 3), r + 1),), r) for r in range(len(p.relators))]
        assert all(least == 0 for faces, least in visits if len(faces) > 1)

    def test_work_on_trend(self, monkeypatch):
        # each two-face diagram is grown once, from the seed visited first
        calls = {"_canonical": 0, "_attach": 0}
        for name in calls:
            real = getattr(enumeration, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(enumeration, name, counted)
        sampled_violation_trend((10, 40), Fraction(17, 50), Fraction(1, 25), 2, 3, 1)
        assert calls == {"_canonical": 3489, "_attach": 8116}

    def test_one_edge_boundary_grows_along_one_edge(self):
        relators, states = one_edge_boundary_states()
        assert len(states) == 10
        children = list(_grow(states[0], relators, _slot_index(relators), _trace_table(relators)))
        assert len(children) == 9
        assert all(len(c[1]) == 4 and len(c[2]) == 2 for c in children)

    def test_arc_longer_than_boundary_refused(self):
        relators, states = one_edge_boundary_states()
        letters, (r,) = states[0][0], states[0][2]
        c = letters[r - 1] if r > 0 else -letters[-r - 1]
        # relator 17 spells c c from slot 1: the letters of the two-edge arc
        # that would read the one boundary edge twice
        assert relators[16][1:] == (c, c)
        assert _attach(states[0], 0, 2, 16, 1, True, relators, _trace_table(relators)) is None

    def test_boundary_edge_in_no_face_refused(self):
        # a hand-made state whose boundary edge 4 lies in no face: the
        # reducedness check finds no face side to compare the new face with
        state = ((1, 2, 3, 4), (((1, 2, 3), 1),), (4, 2, 3), ((0, 1), (1, 2), (2, 0), (0, 1)), 3)
        relators = ((1, 2, 3), (-4, 1, 2))
        with pytest.raises(AssertionError, match="boundary edge missing from every face"):
            _attach(state, 0, 1, 1, 0, False, relators, _trace_table(relators))


# ---------------------------------------------------------------------------
# the validated diagram behind every report row

DEEP = DiagramBudget(3, sample_presentation(10, Fraction(17, 50), 0), Fraction(1, 25))


def report_sha256(report):
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


# the two-face diagram of ABC_ADE: faces abc and Ade share the a-edge, and
# Ade's fresh vertex 3 sits between its edges 4 and 5
SHARED = (
    (1, 2, 3, 4, 5),
    (((1, 2, 3), 1), ((-1, 4, 5), 2)),
    (4, 5, 2, 3),
    ((0, 1), (1, 2), (2, 0), (0, 3), (3, 1)),
    4,
)
# abc and its inverse glued along all three edges: a sphere
ABC_CBA = pres([(1, 2, 3), (-3, -2, -1)])
SPHERE = ((1, 2, 3), (((1, 2, 3), 1), ((-3, -2, -1), 2)), (), ((0, 1), (1, 2), (2, 0)), 3)

STATE_FIELDS = ("letters", "faces", "boundary", "edges", "vertex_count")


def altered(state, **fields):
    """``state`` with the named fields replaced."""
    return tuple(fields.get(name, value) for name, value in zip(STATE_FIELDS, state))


FACE_0, FACE_1 = SHARED[1]
# SHARED's ends up to Ade's edges 4 and 5, which the end mutants rename
SHARED_ABC_ENDS = SHARED[3][:3]

# hand-corrupted states, one per check of the VanKampenDiagram validator,
# and one per way of misnaming a vertex that the validator must refuse:
# (presentation, state, the message _to_diagram must raise)
MUTANTS = {
    "bad-edge-reference": (
        ABC_ADE, altered(SHARED, faces=(((1, 0, 3), 1), FACE_1)), "bad edge reference 0",
    ),
    "empty-face-walk": (
        ABC_ADE, altered(SHARED, faces=(FACE_0, FACE_1, ((), 1))), "empty face walk",
    ),
    "label-zero": (
        ABC_ADE, altered(SHARED, faces=(FACE_0, ((-1, 4, 5), 0))), "labels must be positive",
    ),
    "label-past-the-relators": (
        ABC_ADE, altered(SHARED, faces=(FACE_0, ((-1, 4, 5), 3))),
        "face 1 labelled with unknown relator position",
    ),
    "two-sided-face": (
        # edge 2 turned back to vertex 0, so that the walk (1, 2) closes
        ABC_ADE,
        altered(
            SHARED, faces=(((1, 2), 1), FACE_1),
            edges=((0, 1), (1, 0), (2, 0), (0, 3), (3, 1)),
        ),
        "face 0 walk does not spell its relator",
    ),
    "zero-letter": (
        ABC_ADE, altered(SHARED, letters=(0, 2, 3, 4, 5)), "letter codes must be nonzero",
    ),
    "flipped-letter": (
        ABC_ADE, altered(SHARED, letters=(1, 2, 3, -4, 5)),
        "face 1 walk does not spell its relator",
    ),
    "edge-in-three-face-sides": (
        ABC_ADE, altered(SHARED, faces=(FACE_0, FACE_1, FACE_0)),
        "an edge of a planar diagram lies in at most two face sides",
    ),
    "edge-outside-every-face": (
        ABC_ADE, altered(SHARED, letters=SHARED[0] + (1,), edges=SHARED[3] + ((0, 1),)),
        "diagram has an edge outside every face",
    ),
    "boundary-missing-an-edge": (
        ABC_ADE, altered(SHARED, boundary=(4, 5, 2)),
        "boundary walk must cover each degree-1 edge exactly once",
    ),
    "unclosed-boundary": (
        ABC_ADE, altered(SHARED, boundary=(4, 5, 3, 2)), "boundary is not a closed walk",
    ),
    "broken-euler-count": (
        ABC_CBA, SPHERE, "diagram must be contractible (Euler characteristic 1)",
    ),
    "split-vertex": (
        # edge 5 ends at a vertex of its own, not at Ade's start
        ABC_ADE,
        altered(SHARED, edges=SHARED_ABC_ENDS + ((0, 3), (3, 4)), vertex_count=5),
        "walk (-1, 4, 5) is not a closed path",
    ),
    "merged-vertex": (
        # Ade's fresh vertex given the id of vertex 2
        ABC_ADE,
        altered(SHARED, edges=SHARED_ABC_ENDS + ((0, 2), (2, 1)), vertex_count=3),
        "diagram must be contractible (Euler characteristic 1)",
    ),
    "skipped-vertex-id": (
        # the same, with the fresh vertex still counted
        ABC_ADE,
        altered(SHARED, edges=SHARED_ABC_ENDS + ((0, 2), (2, 1))),
        "diagram has a vertex on no edge",
    ),
}

# the trend's seed-1 presentations at its face budget, beside the oracle
# corpora: the states whose carried ends are checked against close_walks
ENDS_CORPORA = {**ORACLE_CORPORA, **{name: (p, 2) for name, p in TREND_SEED_1.items()}}


def raise_on_call(*args, **kwargs):
    raise AssertionError("close_walks called")


class TestDiagramValidation:
    @pytest.mark.parametrize("corpus", sorted(ENDS_CORPORA))
    def test_close_walks_matches_oracle(self, corpus):
        # the ends each state carries are the vertices that closing its
        # walks forces, numbered as close_walks numbers them
        p, max_faces = ENDS_CORPORA[corpus]
        states = canonicalised_states(p, max_faces)
        assert states
        for letters, faces, _, edges, vertex_count in states:
            walks = [w for w, _ in faces]
            closed = close_walks(len(letters), walks)
            assert closed == (vertex_count, edges)
            assert closed == close_walks_oracle.close_walks(len(letters), walks)

    def test_deep_report_runs_without_close_walks(self, monkeypatch):
        monkeypatch.setattr(complexes, "close_walks", raise_on_call)
        monkeypatch.setattr(enumeration, "close_walks", raise_on_call, raising=False)
        assert isoperimetric_report(DEEP)["total"] == 2649

    def test_base_state_is_valid(self):
        D = _to_diagram(SHARED, ABC_ADE)
        assert (D.area, D.boundary_length, cancel(D)) == (2, 4, 1)
        assert (D.vertex_count, D.edges) == close_walks(5, [FACE_0[0], FACE_1[0]])

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_refused(self, mutant):
        p, state, message = MUTANTS[mutant]
        with pytest.raises(ValueError) as built:
            _to_diagram(state, p)
        assert str(built.value) == message

    def test_identity_flag_can_fail(self, monkeypatch):
        monkeypatch.setattr(enumeration, "cancel", lambda D: cancel(D) + 1)
        rep = isoperimetric_report(DiagramBudget(2, ABC_ADE))
        assert not rep["identity_holds"]

    def test_rows_independent_of_emission_order(self, monkeypatch):
        # the report reads the multiset of diagrams: the same bytes from
        # the diagrams in a shuffled order
        budget = DiagramBudget(3, sample_presentation(3, Fraction(1, 4), 7))
        expected = json.dumps(isoperimetric_report(budget), sort_keys=True)
        shuffled = list(enumerate_reduced_diagrams(budget))
        random.Random(5).shuffle(shuffled)
        areas = [D.area for D in shuffled]
        assert areas != sorted(areas)
        monkeypatch.setattr(enumeration, "enumerate_reduced_diagrams", lambda b: iter(shuffled))
        assert json.dumps(isoperimetric_report(budget), sort_keys=True) == expected

    def test_equal_rows_are_one_object(self):
        # one row object per (area, boundary length, cancel), listed once
        # per diagram, so a renderer can render each value once
        rep = isoperimetric_report(DEEP)
        rows = rep["diagrams"]
        values = {(r["area"], r["boundary_length"], r["cancel"]) for r in rows}
        assert len({id(r) for r in rows}) == len(values) == 6
        assert len(rows) == rep["total"] == 2649

    def test_cancel_reads_the_validators_degrees(self):
        # a diagram keeps the edge degrees its validator counted, and cancel
        # counts from them without walking the faces again
        diagrams = list(enumerate_reduced_diagrams(DiagramBudget(3, ABC_ADE)))
        expected = []
        for D in diagrams:
            count = [0] * D.edge_count
            for walk in D.faces:
                for r in walk:
                    count[abs(r) - 1] += 1
            assert D.degrees == count
            expected.append(sum(c - 1 for c in count if c > 1))
            D.faces = ()
        assert [cancel(D) for D in diagrams] == expected
        assert max(expected) > 0


class TestGoldenReports:
    """sha256 of ``json.dumps(report, sort_keys=True)``, as the reports read
    when every row was taken from a validated ``VanKampenDiagram``."""

    def test_deep_report(self, monkeypatch):
        # every row comes from a diagram that passed the validator
        validated = []
        check = VanKampenDiagram.__init__

        def counted(D, *args, **kwargs):
            check(D, *args, **kwargs)
            validated.append(D)

        monkeypatch.setattr(VanKampenDiagram, "__init__", counted)
        rep = isoperimetric_report(DEEP)
        assert len(validated) == rep["total"] == 2649
        assert report_sha256(rep) == (
            "dda23c18b10238b70d786f2f88cb5799c9582fcd0be99a62ea8f45eb473efa90"
        )

    def test_trend(self):
        rep = sampled_violation_trend((10, 40), Fraction(17, 50), Fraction(1, 25), 2, 3, 1)
        assert [row["diagrams"] for row in rep["per_m"]] == [517, 2707]
        assert report_sha256(rep) == (
            "0a80eb25939b366cb6758f782d1436314acfbf7ecc8657cb4cc7372f073a3e4e"
        )
