"""Partial labellings, exact probabilities, and the closed-form counter."""

import itertools
from fractions import Fraction

import pytest

from trigroup.complexes import (
    AbstractLabelledComplex,
    abstract_from_walks,
    forced_letter_count,
    label_forcing_levels,
    random_abstract_complex,
)
from trigroup.fulfillment import (
    FaceStructure,
    count_letter_assignments,
    exact_probabilities,
    final_probability_bound,
    fulfils,
    forcing_bounds,
    montecarlo_fulfillment,
    partial_label,
    ratio_checks,
    ratio_sweep,
    structure_counts,
    structure_of,
    structure_to_complex,
)
from trigroup.fulfillment import (
    _FACE_PERMS,
    _iter_signed_partitions,
    _permuted_encoding,
    _top_level_check,
)
from trigroup.presentation import TriangularPresentation
from trigroup.seeding import make_rng
from trigroup.words import enumerate_triangle_words, triangle_word_count

from sweep_oracle import forces_within_word, record_structure, top_level_check


def build(walks, labels):
    return abstract_from_walks(walks, labels)


SINGLE = build([(1, 2, 3)], (1,))
REPEAT = build([(1, 1, 2)], (1,))
SHARED = build([(1, 2, 3), (1, 4, 5)], (1, 2))
DOUBLED = build([(1, 2, 3), (1, 2, 3)], (1, 2))  # disc doubled across its rim


def presentation(relators, m=3, density="1/5", seed=0):
    return TriangularPresentation(
        m=m, density=Fraction(density), seed=seed, relators=tuple(relators)
    )


class TestPartialLabel:
    def test_single_face_abc(self):
        pl = partial_label(SINGLE, [(1, 2, 3)])
        assert pl.assigned == {
            (0, 1): frozenset({1}),
            (1, 1): frozenset({2}),
            (2, 1): frozenset({3}),
        }
        assert pl.is_consistent()

    def test_repeated_edge_matching(self):
        pl = partial_label(REPEAT, [(1, 1, 2)])
        assert pl.assigned[(0, 1)] == frozenset({1})
        assert pl.assigned[(1, 1)] == frozenset({2})
        assert pl.is_consistent()

    def test_repeated_edge_clash(self):
        pl = partial_label(REPEAT, [(1, 2, 3)])
        assert pl.assigned[(0, 1)] == frozenset({1, 2})
        assert not pl.is_consistent()

    def test_opposite_orientations_inverse(self):
        Y = build([(1, 2, 3), (-1, 4, 5)], (1, 2))
        ok = partial_label(Y, [(1, 2, 3), (-1, 2, 3)])
        assert ok.is_consistent()
        bad = partial_label(Y, [(1, 2, 3), (2, 2, 3)])
        assert not bad.is_consistent()

    def test_prefix_only(self):
        pl = partial_label(SHARED, [(1, 2, 3)])
        assert (3, 1) not in pl.assigned  # the label-2 face is untouched
        assert pl.is_consistent()

    def test_length_mismatch(self):
        square = AbstractLabelledComplex(
            vertex_count=1,
            edges=((0, 0),),
            faces=((1, 1, 1, 1),),
            labels=(1,),
        )
        with pytest.raises(ValueError, match="length"):
            partial_label(square, [(1, 2, 3)])


class TestFulfils:
    def test_single_face_any_relator(self):
        p = presentation([(1, 2, 3), (2, 1, 1)])
        assert fulfils(SINGLE, [0], p)
        assert fulfils(SINGLE, [1], p)

    def test_doubled_disc_with_repeated_relator(self):
        p = presentation([(1, 2, 3), (1, 2, 3)])
        assert fulfils(DOUBLED, [0, 1], p)

    def test_shared_edge_incompatible(self):
        p = presentation([(1, 2, 3), (2, 1, 1)])
        assert not fulfils(SHARED, [0, 1], p)  # edge 1 wants a, then b
        q = presentation([(1, 2, 3), (1, 1, 2)])
        assert fulfils(SHARED, [0, 1], q)

    def test_injectivity_required(self):
        p = presentation([(1, 2, 3), (1, 2, 3)])
        with pytest.raises(ValueError, match="injective"):
            fulfils(DOUBLED, [0, 0], p)

    def test_position_count(self):
        p = presentation([(1, 2, 3)])
        with pytest.raises(ValueError, match="positions"):
            fulfils(DOUBLED, [0], p)


class TestExactProbabilities:
    def test_single_face(self):
        probe = exact_probabilities(SINGLE, 2)
        assert probe.counts == (1, 28)
        assert probe.probabilities == (Fraction(1), Fraction(1))

    def test_shared_edge_m2(self):
        probe = exact_probabilities(SHARED, 2)
        assert probe.counts == (1, 28, 196)
        p = probe.probabilities
        assert p[2] / p[1] == Fraction(1, 4)
        assert p[2] / p[1] <= Fraction(1, 3)

    def test_doubled_disc_counts(self):
        probe = exact_probabilities(DOUBLED, 2)
        # the second word must equal the first
        assert probe.counts == (1, 28, 28)

    def test_repeat_edge_count(self):
        probe = exact_probabilities(REPEAT, 2)
        assert probe.counts == (1, 12)

    def test_mirror_pair_impossible(self):
        Y = build([(1, 2, 3), (-3, -2, -1)], (1, 1))
        probe = exact_probabilities(Y, 2)
        assert probe.counts[1] == 0

    def test_p0_and_monotone(self):
        for probe in (
            exact_probabilities(SHARED, 2),
            exact_probabilities(DOUBLED, 3),
        ):
            p = probe.probabilities
            assert p[0] == 1
            assert all(p[i] <= p[i - 1] for i in range(1, len(p)))

    def test_m_cap(self):
        with pytest.raises(ValueError, match="m <= 3"):
            exact_probabilities(SINGLE, 4)

    def test_level_cap_and_override(self):
        walks = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
        Y = build(walks, (1, 2, 3, 4))
        with pytest.raises(ValueError, match="3 labels"):
            exact_probabilities(Y, 1)
        probe = exact_probabilities(Y, 1, allow_large=True)
        assert probe.counts == (1, 2, 4, 8, 16)

    def test_labels_must_cover(self):
        Y = build([(1, 2, 3), (1, 4, 5)], (1, 3))
        with pytest.raises(ValueError, match="1..n"):
            exact_probabilities(Y, 2)


class TestForcingBounds:
    def test_single(self):
        assert forcing_bounds(SINGLE) == [(1, 0)]

    def test_shared_edge(self):
        assert forcing_bounds(SHARED) == [(1, 0), (2, 1)]

    def test_doubled_same_label(self):
        Y = build([(1, 2, 3), (1, 2, 3)], (1, 1))
        assert forcing_bounds(Y) == [(1, 0)]
        assert forced_letter_count(Y, 0) == 0
        assert forced_letter_count(Y, 1) == 0

    def test_uncovered_edge_rejected(self):
        Y = AbstractLabelledComplex(
            vertex_count=1,
            edges=((0, 0), (0, 0)),
            faces=((1, 1, 1),),
            labels=(1,),
        )
        with pytest.raises(ValueError, match="edge"):
            forcing_bounds(Y)

    def test_ratio_checks_shared(self):
        checks = ratio_checks(exact_probabilities(SHARED, 2))
        assert [c["delta"] for c in checks] == [0, 1]
        assert [c["bound"] for c in checks] == [Fraction(1), Fraction(1, 3)]
        assert all(c["holds"] for c in checks)
        assert all(c["holds_guaranteed"] for c in checks)

    def test_ratio_checks_doubled_tight(self):
        Y = build([(1, 2, 3), (1, 2, 3)], (1, 2))
        checks = ratio_checks(exact_probabilities(Y, 2))
        assert checks[1]["delta"] == 3
        # 28/784 = 1/28 against 1/27: holds with almost no room
        assert checks[1]["holds"]
        probe = exact_probabilities(Y, 2)
        p = probe.probabilities
        assert p[2] / p[1] == Fraction(1, 28)

    def test_product_form(self):
        # valid whenever no face forces a within-word repeat
        for Y, m in ((SHARED, 2), (DOUBLED, 2), (SHARED, 3)):
            probe = exact_probabilities(Y, m)
            bound = Fraction(1)
            for _, delta in forcing_bounds(Y):
                bound *= Fraction(1, (2 * m - 1) ** delta)
            assert probe.probabilities[-1] <= bound


class TestNominalBoundCounterexamples:
    """Structures forcing a word to repeat its own letters beat the nominal
    (2m-1)^(-delta) bound by a factor of up to 2m/(2m-1); the guaranteed
    2m(2m-1)^(2-delta) form is tight on them."""

    def test_repeated_edge_exceeds_nominal_bound(self):
        probe = exact_probabilities(REPEAT, 2)
        p = probe.probabilities
        assert p[1] == Fraction(3, 7)  # 12 of 28 words have a repeated symbol
        assert p[1] > Fraction(1, 3)  # delta = 1: the nominal bound fails
        checks = ratio_checks(probe)
        assert not checks[0]["holds"]
        assert checks[0]["holds_guaranteed"]
        # tight: 12 * 3 == 1 * 4 * 9
        assert probe.counts[1] * 3 == 2 * 2 * 3**2

    def test_triple_edge_exceeds_nominal_bound(self):
        Y = build([(1, 1, 1)], (1,))
        probe = exact_probabilities(Y, 2)
        assert probe.counts == (1, 4)  # only the words (l, l, l)
        checks = ratio_checks(probe)
        assert checks[0]["delta"] == 2
        assert not checks[0]["holds"]  # 4/28 > 1/9
        assert checks[0]["holds_guaranteed"]  # 4 * 9 == 4 * 9

    def test_shifted_overlap_exceeds_nominal_bound(self):
        # no face repeats an edge, but two same-label faces meet at
        # different positions, forcing w0 = w1 all the same
        Y = build([(1, 2, 3), (2, 1, 4)], (1, 1))
        probe = exact_probabilities(Y, 2)
        assert probe.counts[1] == 12
        checks = ratio_checks(probe)
        assert checks[0]["delta"] == 1
        assert not checks[0]["holds"]
        assert checks[0]["holds_guaranteed"]

    def test_m1_never_violates(self):
        for Y in (REPEAT, build([(1, 1, 1)], (1,))):
            assert all(c["holds"] for c in ratio_checks(exact_probabilities(Y, 1)))


class TestFinalBound:
    def test_single_face_reference_value(self):
        assert final_probability_bound(SINGLE, 2, Fraction(1, 3)) == pytest.approx(
            3.0, rel=1e-12
        )

    def test_decreasing_in_m_when_cancel_dominates(self):
        b2 = final_probability_bound(SHARED, 2, Fraction(0))
        b3 = final_probability_bound(SHARED, 3, Fraction(0))
        assert b2 > b3

    def test_needs_a_face(self):
        empty = AbstractLabelledComplex(
            vertex_count=0, edges=(), faces=(), labels=()
        )
        with pytest.raises(ValueError, match="face"):
            final_probability_bound(empty, 2, Fraction(1, 3))


class TestMonteCarlo:
    def test_single_face_is_certain(self):
        out = montecarlo_fulfillment(SINGLE, 2, 500, seed=7)
        assert out["hits"] == 500
        assert out["estimate"] == 1.0

    def test_deterministic(self):
        a = montecarlo_fulfillment(SHARED, 2, 1000, seed=11)
        b = montecarlo_fulfillment(SHARED, 2, 1000, seed=11)
        assert a == b

    def test_against_forcing_bounds_m5(self):
        out = montecarlo_fulfillment(SHARED, 5, 2000, seed=3)
        width = out["wilson_high"] - out["wilson_low"]
        assert out["estimate"] <= Fraction(1, 9) + width

    def test_covers_exact_value(self):
        # exact p2 = 1/4 for the shared pair at m=2
        out = montecarlo_fulfillment(SHARED, 2, 4000, seed=19)
        assert out["wilson_low"] <= 0.25 <= out["wilson_high"]

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            montecarlo_fulfillment(SINGLE, 2, 0, seed=1)


class TestRelabelInvariance:
    def test_swap_labels_and_words(self):
        rng = make_rng(23, "relabel")
        support = enumerate_triangle_words(2)
        swapped = build([(1, 2, 3), (1, 4, 5)], (2, 1))
        for _ in range(200):
            w1 = rng.choice(support)
            w2 = rng.choice(support)
            a = partial_label(SHARED, [w1, w2]).is_consistent()
            b = partial_label(swapped, [w2, w1]).is_consistent()
            assert a == b


class TestCountingKernel:
    def test_isolated_triangle_matches_support(self):
        cons = [(0, 1, -1), (1, 2, -1), (0, 2, -1)]
        got = count_letter_assignments(3, cons, (2, 4, 6, 10))
        assert got == tuple(triangle_word_count(m) for m in (1, 2, 3, 5))

    def test_no_constraints(self):
        assert count_letter_assignments(2, [], (4,)) == (16,)

    def test_repeat_edge_polynomial(self):
        # faces (e,e,f): x**2 - x
        fs = FaceStructure((0, 0, 1), (1, 1, 1), (1,))
        counts = structure_counts(fs, (1, 2, 3))
        assert counts[1] == (2, 12, 30)

    def test_structure_counts_shared(self):
        fs = FaceStructure((0, 1, 2, 0, 3, 4), (1, 1, 1, 1, 1, 1), (1, 2))
        counts = structure_counts(fs, (1, 2))
        assert counts[1] == (2, 28)
        assert counts[2] == (2, 196)

    def test_reversed_copy_has_no_words(self):
        fs = FaceStructure((0, 1, 2, 2, 1, 0), (1, 1, 1, -1, -1, -1), (1, 1))
        counts = structure_counts(fs, (1, 2, 3))
        assert counts[1] == (0, 0, 0)

    def test_matches_exhaustive_enumeration(self):
        for i in range(30):
            rng = make_rng(97, "xval", i)
            fs = structure_of(random_abstract_complex(rng, 3))
            ms = (1,) if fs.face_count == 3 and i % 3 else (1, 2)
            fast = structure_counts(fs, ms)
            Y = structure_to_complex(fs)
            for j, m in enumerate(ms):
                probe = exact_probabilities(Y, m)
                assert tuple(level[j] for level in fast) == probe.counts, fs

    def test_closed_form_beyond_the_exhaustive_caps(self):
        # the brute force needs allow_large above m = 3 or 3 labels
        chain6 = build([(1, 2, 3), (-3, 4, 5), (-5, 6, 7), (-7, 8, 9), (-9, 10, 11),
                        (-11, 1, 12)], (1, 2, 3, 4, 5, 6))
        fan6 = build([(1, 2, 3), (-1, 4, 5), (-4, 6, 7), (2, 8, 9), (-8, -6, 10),
                      (3, 11, 1)], (6, 5, 4, 3, 2, 1))
        cases = [(Y, m) for Y in (SINGLE, REPEAT, SHARED, DOUBLED) for m in (4, 5)]
        cases += [(build([(1, 1, 1)], (1,)), 5), (build([(1, 2, 3), (2, 1, 4)], (1, 1)), 5)]
        cases += [(chain6, 1), (fan6, 1)]
        for Y, m in cases:
            got = tuple(c for (c,) in structure_counts(structure_of(Y), (m,)))
            assert got == exact_probabilities(Y, m, allow_large=True).counts, (Y, m)

    def test_structure_of_inverts_structure_to_complex(self):
        for i in range(100):
            rng = make_rng(98, "inverse", i)
            fs = structure_of(random_abstract_complex(rng, 4))
            assert structure_of(structure_to_complex(fs)) == fs
        # renaming and reorienting edges gives the same structure
        Y = build([(-4, 2, 1), (4, -5, 6)], (2, 1))
        assert structure_of(Y) == FaceStructure((0, 1, 2, 0, 3, 4), (1, 1, 1, -1, 1, 1), (2, 1))

    def test_structure_of_needs_triangles(self):
        Y = build([(1, 2, 3), (1, 2)], (1, 2))
        with pytest.raises(ValueError, match="face 1 has 2 sides"):
            structure_of(Y)

    def test_structure_validation(self):
        with pytest.raises(ValueError, match="order"):
            FaceStructure((1, 0, 2), (1, 1, 1), (1,))
        with pytest.raises(ValueError, match="sign"):
            FaceStructure((0, 1, 2), (1, -1, 1), (1,))
        with pytest.raises(ValueError, match="slot"):
            FaceStructure((0, 1, 2, 3), (1, 1, 1, 1), (1,))


def _orbit_key(fs):
    """The least encoding of a labelled structure over its face orders."""
    return min(
        (_permuted_encoding(fs.classes, fs.signs, p), tuple(fs.labels[f] for f in p))
        for p in itertools.permutations(range(fs.face_count))
    )


class TestSweep:
    def test_partition_counts_small(self):
        assert sum(1 for _ in _iter_signed_partitions(3)) == 11

    def test_orbit_counting_two_faces(self):
        total = 0
        reps = 0
        for classes, signs in _iter_signed_partitions(6):
            encs = [
                _permuted_encoding(classes, signs, p) for p in _FACE_PERMS[2]
            ]
            if min(encs) == (classes, signs):
                reps += 1
                stab = sum(1 for e in encs if e == (classes, signs))
                total += 2 // stab
        assert total == sum(1 for _ in _iter_signed_partitions(6))
        assert reps < total

    def test_sweep_two_faces(self):
        report = ratio_sweep(max_faces=2, ms=(1, 2, 3))
        assert report["guaranteed_violations"] == []
        # the one (e, e, e) face meets the guaranteed bound with equality
        assert report["guaranteed_tightest"] == {1: "1", 2: "1", 3: "1"}
        assert report["per_face_count"][1] == 11
        assert report["structures"] > report["per_face_count"][1]
        # the nominal bound fails only inside the within-word forcing family
        # (not on all of it), starting with the lone (e, e, f) face, and
        # never at m = 1
        assert report["violations"]
        assert any(
            v["classes"] == [0, 0, 1] and v["signs"] == [1, 1, 1]
            for v in report["violations"]
        )
        for v in report["violations"]:
            assert 1 not in v["ms"]
            assert forces_within_word(v), v

    def test_sweep_violations_are_real(self):
        # brute force on every structure with at most 2 faces: the sweep lists
        # a structure exactly when the exhaustive counts break the nominal
        # bound at its top level, at exactly those m
        ms = (1, 2)
        report = ratio_sweep(max_faces=2, ms=ms)
        listed = {_orbit_key(record_structure(v)): v["ms"] for v in report["violations"]}
        assert len(listed) == len(report["violations"])
        violating = {}
        seen = set()
        for k in (1, 2):
            # on at most 2 faces, every labelling onto 1..n
            labellings = sorted({(1,) * k, *itertools.permutations(range(1, k + 1))})
            for classes, signs in _iter_signed_partitions(3 * k):
                for labels in labellings:
                    fs = FaceStructure(classes, signs, labels)
                    key = _orbit_key(fs)
                    if key in seen:
                        continue
                    seen.add(key)
                    checks = [(m, top_level_check(fs, m)) for m in ms]
                    assert all(c["holds_guaranteed"] for _, c in checks), fs
                    bad = [m for m, c in checks if not c["holds"]]
                    if bad:
                        violating[key] = bad
        assert len(seen) == report["structures"]
        assert violating == listed

    def test_sweep_rejects_large(self):
        with pytest.raises(ValueError):
            ratio_sweep(max_faces=4)

    def test_top_level_check_matches_functionals(self):
        # the sweep's top-level check, fed one random structure, must give the
        # ratio that structure_counts and the complex's forcing levels give
        ms = (1, 2, 3)
        bases = [triangle_word_count(m) for m in ms]
        gbases = [2 * m * (2 * m - 1) ** 2 for m in ms]
        powers = [[(2 * m - 1) ** d for d in range(4)] for m in ms]
        for i in range(60):
            rng = make_rng(31, "dt", i)
            fs = structure_of(random_abstract_complex(rng, 3))
            n = max(fs.labels)
            groups = [[f for f in range(fs.face_count) if fs.labels[f] == j]
                      for j in range(1, n + 1)]
            tightest = [(0, 1) for _ in ms]
            nominal, _ = _top_level_check(fs.classes, fs.signs, groups[-1], groups[:-1],
                                          ms, bases, gbases, powers, {}, tightest)
            counts = structure_counts(fs, ms)
            delta = dict(label_forcing_levels(structure_to_complex(fs)))[n]
            for j, m in enumerate(ms):
                lhs = counts[n][j] * (2 * m - 1) ** delta
                assert (m in nominal) == (lhs > counts[n - 1][j] * bases[j]), fs
                ratio = Fraction(lhs, counts[n - 1][j] * gbases[j]) if lhs else 0
                assert Fraction(*tightest[j]) == ratio, fs
