"""Functional values on small labelled complexes, frozen by hand, plus
property checks on randomly generated complexes."""

import json
from fractions import Fraction

import pytest

from trigroup.complexes import (
    AbstractLabelledComplex,
    LabelledComplex,
    VanKampenDiagram,
    abstract_from_walks,
    all_edges_in_faces,
    cancel,
    chain_report,
    close_walks,
    complex_from_json,
    complex_to_json,
    dumps_complex,
    edge_degree,
    forced_counts,
    forced_letter_count,
    glue_complexes,
    is_least_position,
    is_min_label,
    is_reduced_diagram,
    label_forcing_levels,
    random_abstract_complex,
    red,
    red_contributions,
    ref_edge,
    side_trace,
    SignedUnionFind,
    UnionFind,
)
from trigroup.presentation import TriangularPresentation
from trigroup.seeding import make_rng


def make_abstract(walks, labels):
    return abstract_from_walks([tuple(w) for w in walks], labels)


SHARED_EDGE = make_abstract([(1, 2, 3), (1, 4, 5)], (1, 2))
IDENTICAL_PAIR = make_abstract([(1, 2, 3), (1, 2, 3)], (1, 1))
IDENTICAL_PAIR_SPLIT = make_abstract([(1, 2, 3), (1, 2, 3)], (1, 2))
SINGLE = make_abstract([(1, 2, 3)], (1,))


class TestStructure:
    def test_close_walks_triangle(self):
        nv, edges = close_walks(3, [(1, 2, 3)])
        assert nv == 3
        # head of each edge is tail of the next
        assert edges[0][1] == edges[1][0]
        assert edges[1][1] == edges[2][0]
        assert edges[2][1] == edges[0][0]

    def test_repeated_edge_forces_loop(self):
        Y = make_abstract([(1, 1, 2)], (1,))
        # e1 twice in a row forces tail = head, and the corner identifications
        # collapse everything to one vertex
        assert Y.vertex_count == 1
        assert edge_degree(Y, 0) == 2
        assert edge_degree(Y, 1) == 1

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            AbstractLabelledComplex(1, ((0, 0),), ((2,),), (1,))

    def test_open_walk_rejected(self):
        with pytest.raises(ValueError):
            AbstractLabelledComplex(3, ((0, 1), (1, 2)), ((1, 2),), (1,))

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            abstract_from_walks([(1, 2, 3)], (1, 2))

    def test_nonpositive_label_rejected(self):
        with pytest.raises(ValueError):
            abstract_from_walks([(1, 2, 3)], (0,))


class TestCancel:
    def test_shared_edge_pair(self):
        assert cancel(SHARED_EDGE) == 1

    def test_identical_boundary_pair(self):
        assert cancel(IDENTICAL_PAIR) == 3

    def test_single_face(self):
        assert cancel(SINGLE) == 0

    def test_degree_counts_multiplicity_and_orientation(self):
        Y = make_abstract([(1, 1, 2), (-1, 3, 4)], (1, 2))
        assert edge_degree(Y, 0) == 3
        assert cancel(Y) == 2

    def test_cancel_ignores_labels(self):
        assert cancel(IDENTICAL_PAIR) == cancel(IDENTICAL_PAIR_SPLIT)


class TestRed:
    def test_identical_pair_same_label(self):
        # both faces meet each edge first at the same position: one excess each
        assert red(IDENTICAL_PAIR) == 3

    def test_identical_pair_distinct_labels(self):
        assert red(IDENTICAL_PAIR_SPLIT) == 0

    def test_distinct_labels_always_zero(self):
        rng = make_rng(77, "red-distinct")
        for _ in range(200):
            Y = random_abstract_complex(rng)
            Z = AbstractLabelledComplex(
                Y.vertex_count,
                Y.edges,
                Y.faces,
                tuple(range(1, Y.face_count + 1)),
            )
            assert red(Z) == 0

    def test_six_face_pileup(self):
        # one edge, six same-label faces: four meet it first at walk position
        # 1, two at position 2; the tied four contribute 4 - 1 = 3
        walks = [
            (2, 1, 3),
            (4, 1, 5),
            (6, 1, 7),
            (8, 1, 9),
            (10, 11, 1),
            (12, 13, 1),
        ]
        Y = make_abstract(walks, (1,) * 6)
        assert red_contributions(Y)[0] == 3
        assert red(Y) == 3
        assert cancel(Y) == 5
        report = chain_report(Y)
        assert report["forced_sum"] == 2
        assert report["red"] + report["forced_sum"] == report["cancel"]

    def test_rotated_copy(self):
        # a rotation shifts every least position, so no label group ties
        Y = make_abstract([(1, 2, 3), (2, 3, 1)], (1, 1))
        assert red(Y) == 0
        assert cancel(Y) == 3
        assert sum(forced_letter_count(Y, f) for f in range(2)) == 3

    def test_relabelling_invariance(self):
        rng = make_rng(78, "red-relabel")
        for _ in range(200):
            Y = random_abstract_complex(rng)
            values = sorted(set(Y.labels))
            shuffled = values[:]
            rng.shuffle(shuffled)
            bij = dict(zip(values, shuffled))
            Z = AbstractLabelledComplex(
                Y.vertex_count, Y.edges, Y.faces, tuple(bij[i] for i in Y.labels)
            )
            assert red(Z) == red(Y)


class TestIndicators:
    def test_least_position(self):
        Y = IDENTICAL_PAIR
        for f in (0, 1):
            for e in (0, 1, 2):
                assert is_least_position(Y, e, f)  # ties count

    def test_least_position_broken_by_rotation(self):
        Y = make_abstract([(1, 2, 3), (2, 3, 1)], (1, 1))
        assert is_least_position(Y, 0, 0)
        assert not is_least_position(Y, 0, 1)

    def test_absent_edge(self):
        assert not is_least_position(SHARED_EDGE, 3, 0)
        assert not is_min_label(SHARED_EDGE, 3, 0)

    def test_min_label(self):
        assert is_min_label(SHARED_EDGE, 0, 0)
        assert not is_min_label(SHARED_EDGE, 0, 1)
        assert is_min_label(SHARED_EDGE, 4, 1)


class TestForcedLetters:
    def test_shared_edge_levels(self):
        assert forced_letter_count(SHARED_EDGE, 0) == 0
        assert forced_letter_count(SHARED_EDGE, 1) == 1
        assert label_forcing_levels(SHARED_EDGE) == [(1, 0), (2, 1)]

    def test_single_face(self):
        assert forced_letter_count(SINGLE, 0) == 0
        assert label_forcing_levels(SINGLE) == [(1, 0)]

    def test_repeated_edge_in_one_face(self):
        Y = make_abstract([(1, 1, 2)], (1,))
        # second visit to e1 is forced
        assert forced_letter_count(Y, 0) == 1

    def test_identical_pair_all_free(self):
        # ties leave both faces unforced; the excess shows up in red instead
        assert forced_letter_count(IDENTICAL_PAIR, 0) == 0
        assert forced_letter_count(IDENTICAL_PAIR, 1) == 0

    def test_range(self):
        rng = make_rng(79, "delta-range")
        for _ in range(300):
            Y = random_abstract_complex(rng)
            for f in range(Y.face_count):
                assert 0 <= forced_letter_count(Y, f) <= len(Y.faces[f])

    def test_kernel_matches_indicator_predicates(self):
        # forced = walk length minus the edges whose min-label and
        # least-position indicators both hold for the face
        rng = make_rng(82, "forced-oracle")
        for _ in range(300):
            Y = random_abstract_complex(rng)
            got = forced_counts([[ref_edge(r) for r in w] for w in Y.faces], Y.labels)
            want = [
                len(walk) - sum(
                    1 for e in {ref_edge(r) for r in walk}
                    if is_min_label(Y, e, f) and is_least_position(Y, e, f)
                )
                for f, walk in enumerate(Y.faces)
            ]
            assert got == want, Y
            assert got == [forced_letter_count(Y, f) for f in range(Y.face_count)]


class TestChainInequality:
    def test_holds_on_fuzz(self):
        rng = make_rng(80, "chain")
        for _ in range(1000):
            Y = random_abstract_complex(rng)
            assert all_edges_in_faces(Y)
            report = chain_report(Y)
            assert report["holds"], (Y, report)

    def test_precondition(self):
        Y = AbstractLabelledComplex(3, ((0, 1), (1, 2), (2, 0), (0, 0)), ((1, 2, 3),), (1,))
        with pytest.raises(ValueError):
            chain_report(Y)


class TestSignedUnionFind:
    def test_parity_chain(self):
        uf = SignedUnionFind(4)
        assert uf.union(0, 1, -1)
        assert uf.union(1, 2, -1)
        root0, s0 = uf.find(0)
        root2, s2 = uf.find(2)
        assert root0 == root2 and s0 == s2  # two reversals cancel

    def test_self_reversal_detected(self):
        uf = SignedUnionFind(3)
        assert uf.union(0, 1, 1)
        assert not uf.union(0, 1, -1)

    def test_union_by_size_records_absorbed_root(self):
        uf = SignedUnionFind(4)
        assert uf.union(1, 2, 1) and uf.absorbed == [2]
        assert uf.union(3, 1, -1) and uf.absorbed == [2, 3]  # the larger class keeps root 1
        assert uf.union(3, 2, -1)  # already joined, consistently: nothing recorded
        assert uf.absorbed == [2, 3]
        assert uf.find(3) == (1, -1)

    def test_undo_restores_the_forest(self):
        uf = SignedUnionFind(3)
        uf.union(0, 1, -1)
        uf.union(1, 2, -1)
        uf.undo()
        assert uf.find(2) == (2, 1) and uf.find(1) == (0, -1)
        uf.undo()
        assert [uf.find(x) for x in range(3)] == [(0, 1), (1, 1), (2, 1)]
        assert uf.size == [1, 1, 1]
        with pytest.raises(IndexError):
            uf.undo()

    def test_matches_rebuilt_forest_after_unions_and_undos(self):
        # the surviving merges, replayed on a fresh forest, give the same
        # classes and the same relative signs
        rng = make_rng(83, "signed-uf")
        for _ in range(20):
            n = rng.randint(1, 9)
            uf = SignedUnionFind(n)
            merges: list[tuple[int, int, int]] = []
            for _ in range(40):
                if merges and rng.random() < 0.3:
                    uf.undo()
                    merges.pop()
                else:
                    a, b, rel = rng.randrange(n), rng.randrange(n), rng.choice((1, -1))
                    before = len(uf.absorbed)
                    ok = uf.union(a, b, rel)
                    if len(uf.absorbed) > before:
                        assert ok
                        merges.append((a, b, rel))
                fresh = SignedUnionFind(n)
                for merge in merges:
                    assert fresh.union(*merge)
                for x in range(n):
                    for y in range(n):
                        (rx, sx), (ry, sy) = uf.find(x), uf.find(y)
                        (fx, tx), (fy, ty) = fresh.find(x), fresh.find(y)
                        assert (rx == ry) == (fx == fy)
                        if rx == ry:
                            assert sx * sy == tx * ty


class TestUnionFind:
    def test_add_and_union_return_values(self):
        uf = UnionFind(0)
        assert [uf.add() for _ in range(4)] == [0, 1, 2, 3]
        assert uf.union(3, 1) == 3  # the smaller root survives
        assert uf.union(2, 3) == 2
        assert uf.union(1, 2) == -1
        assert uf.union(0, 3) == 1
        assert [uf.find(x) for x in range(4)] == [0, 0, 0, 0]
        assert uf.add() == 4 and uf.find(4) == 4

    def test_root_is_least_member(self):
        rng = make_rng(84, "uf")
        for _ in range(10):
            n = 12
            uf = UnionFind(n)
            classes = [{x} for x in range(n)]
            for _ in range(15):
                a, b = rng.randrange(n), rng.randrange(n)
                ca = next(c for c in classes if a in c)
                cb = next(c for c in classes if b in c)
                gone = uf.union(a, b)
                if ca is cb:
                    assert gone == -1
                    continue
                assert gone == max(min(ca), min(cb))
                classes.remove(cb)
                ca |= cb
                assert all(uf.find(x) == min(c) for c in classes for x in c)


def make_diagram(pres, walks, labels, letters, boundary):
    edge_count = max(abs(r) for w in walks for r in w)
    nv, edges = close_walks(edge_count, walks)
    return VanKampenDiagram(
        vertex_count=nv,
        edges=edges,
        faces=tuple(tuple(w) for w in walks),
        labels=tuple(labels),
        letters=tuple(letters),
        presentation=pres,
        boundary=tuple(boundary),
    )


class TestSideTrace:
    def test_forward(self):
        assert side_trace((1, 2, 3), 0, 1) == (1, 2, 3)
        assert side_trace((1, 2, 3), 1, 1) == (2, 3, 1)
        assert side_trace((1, 2, 3), 2, 1) == (3, 1, 2)

    def test_backward(self):
        # reversed walk spells the inverse word and meets the edge at the
        # mirrored position
        assert side_trace((1, 2, 3), 0, -1) == (-1, -3, -2)
        assert side_trace((1, 2, 3), 1, -1) == (-2, -1, -3)
        assert side_trace((1, 2, 3), 2, -1) == (-3, -2, -1)


class TestReducedDiagrams:
    def test_reduced_shared_edge(self):
        pres = TriangularPresentation(2, Fraction(1, 3), 0,
                                      ((1, 1, 2), (-1, -1, 2)))
        D = make_diagram(
            pres,
            walks=[(1, 2, 3), (-1, 4, 5)],
            labels=(1, 2),
            letters=(1, 1, 2, -1, 2),
            boundary=(2, 3, 4, 5),
        )
        assert cancel(D) == 1
        assert is_reduced_diagram(D)

    def test_unreduced_same_relator_fold(self):
        pres = TriangularPresentation(3, Fraction(1, 3), 0,
                                      ((1, 2, 3),))
        D = make_diagram(
            pres,
            walks=[(1, 2, 3), (1, 4, 5)],
            labels=(1, 1),
            letters=(1, 2, 3, 2, 3),
            boundary=(2, 3, -5, -4),
        )
        assert not is_reduced_diagram(D)
        assert red(D) >= 1

    def test_unreduced_inverse_relator_fold(self):
        # second relator is a rotation of the first one's inverse, so the two
        # labels differ but the sides still mirror: word-level test catches it
        pres = TriangularPresentation(2, Fraction(1, 3), 0,
                                      ((1, 1, 2), (-1, -2, -1)))
        D = make_diagram(
            pres,
            walks=[(1, 2, 3), (-1, 4, 5)],
            labels=(1, 2),
            letters=(1, 1, 2, -2, -1),
            boundary=(2, 3, 4, 5),
        )
        assert not is_reduced_diagram(D)
        assert red(D) == 0  # position-blind functional misses cross-label folds

    def test_sphere_rejected(self):
        pres = TriangularPresentation(2, Fraction(1, 3), 0,
                                      ((1, 1, 2), (-2, -1, -1)))
        with pytest.raises(ValueError):
            make_diagram(
                pres,
                walks=[(1, 2, 3), (-3, -2, -1)],
                labels=(1, 2),
                letters=(1, 1, 2),
                boundary=(),
            )

    def test_wrong_spelling_rejected(self):
        pres = TriangularPresentation(2, Fraction(1, 3), 0,
                                      ((1, 1, 2),))
        with pytest.raises(ValueError):
            make_diagram(
                pres,
                walks=[(1, 2, 3)],
                labels=(1,),
                letters=(1, 2, 1),
                boundary=(1, 2, 3),
            )


class TestGlue:
    def triangle(self, letters=(1, 2, 3)):
        nv, edges = close_walks(3, [(1, 2, 3)])
        return LabelledComplex(nv, edges, ((1, 2, 3),), (1,), tuple(letters))

    def test_k_copies_along_edge(self):
        Y = self.triangle()
        for k in (2, 3, 5):
            glued = glue_complexes(
                [Y] * k,
                [((0, (1,)), (i, (1,))) for i in range(1, k)],
            )
            assert glued.face_count == k
            assert glued.edge_count == 2 * k + 1
            assert cancel(glued) == k - 1

    def test_two_copies_along_path(self):
        Y = self.triangle()
        glued = glue_complexes([Y, Y], [((0, (1, 2)), (1, (1, 2)))])
        assert cancel(glued) == 2
        assert glued.edge_count == 4

    def test_formula_with_internal_cancel(self):
        # base complex has cancel 1; k glued copies along one edge add k-1
        walks = [(1, 2, 3), (1, 4, 5)]
        nv, edges = close_walks(5, walks)
        Y = LabelledComplex(nv, edges, tuple(walks), (1, 2), (1, 1, 2, -1, 2))
        k = 3
        glued = glue_complexes([Y] * k, [((0, (4,)), (i, (4,))) for i in range(1, k)])
        assert cancel(glued) == k * cancel(Y) + (k - 1) * 1

    def test_orientation_reversing(self):
        A = self.triangle((1, 2, 3))
        nv, edges = close_walks(3, [(-1, 2, 3)])
        B = LabelledComplex(nv, edges, ((-1, 2, 3),), (1,), (-1, 2, 3))
        glued = glue_complexes([A, B], [((0, (1,)), (1, (-1,)))])
        assert glued.edge_count == 5
        assert cancel(glued) == 1
        words = {glued.face_word(0), glued.face_word(1)}
        assert words == {(1, 2, 3)}

    def test_letter_mismatch_rejected(self):
        A = self.triangle((1, 2, 3))
        B = self.triangle((2, 2, 3))
        with pytest.raises(ValueError):
            glue_complexes([A, B], [((0, (1,)), (1, (1,)))])

    def test_reversed_same_edge_rejected(self):
        A = self.triangle((1, 2, 3))
        with pytest.raises(ValueError):
            glue_complexes([A], [((0, (1,)), (0, (-1,)))])


class TestRandomComplex:
    def test_deterministic(self):
        a = [random_abstract_complex(make_rng(5, "rc", i)) for i in range(20)]
        b = [random_abstract_complex(make_rng(5, "rc", i)) for i in range(20)]
        assert a == b

    def test_structure(self):
        rng = make_rng(81, "rc-struct")
        for _ in range(300):
            Y = random_abstract_complex(rng)
            assert all_edges_in_faces(Y)
            n = max(Y.labels)
            assert set(Y.labels) == set(range(1, n + 1))


class TestJson:
    def test_abstract_round_trip(self):
        obj = complex_to_json(SHARED_EDGE)
        assert complex_from_json(json.loads(json.dumps(obj))) == SHARED_EDGE

    def test_lettered_round_trip(self):
        nv, edges = close_walks(3, [(1, 2, 3)])
        Y = LabelledComplex(nv, edges, ((1, 2, 3),), (1,), (1, -2, 3))
        back = complex_from_json(json.loads(dumps_complex(Y)))
        assert isinstance(back, LabelledComplex)
        assert back == Y

    def test_stable_bytes(self):
        assert dumps_complex(SHARED_EDGE) == dumps_complex(SHARED_EDGE)
        assert dumps_complex(SHARED_EDGE).endswith("\n")

    def test_fields(self):
        obj = complex_to_json(SHARED_EDGE)
        assert set(obj) == {"vertices", "edges", "faces"}
        assert set(obj["faces"][0]) == {"index", "boundary"}
