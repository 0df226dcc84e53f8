"""Fulfilment by word tuples, exact probabilities, and the closed-form counter."""

import hashlib
import itertools
import json
import tracemalloc
from fractions import Fraction

import pytest

from fulfils import fulfils
from trigroup.cli import main
from trigroup.complexes import (
    AbstractLabelledComplex,
    abstract_from_walks,
    dumps_complex,
    forced_counts,
    random_abstract_complex,
)
from trigroup import fulfillment
from trigroup.fulfillment import (
    FaceStructure,
    count_letter_assignments,
    level_checks,
    montecarlo_fulfillment,
    ratio_sweep,
    structure_of,
)
from trigroup.fulfillment import (
    _block_counts,
    _counter,
    _encoding_order,
    _keyed,
    _label_groups,
    _merged_key,
    _orderly_partitions,
    _permuted_encoding,
    _ratio_sides,
    _slot_order,
    _stabilizer,
    _structure_configs,
    _top_delta,
    _top_level_check,
)
from trigroup.presentation import TriangularPresentation
from trigroup.seeding import make_rng
from trigroup.words import enumerate_triangle_words, triangle_word_count

import sweep_oracle
from sweep_oracle import (
    encoding_sign,
    exact_probabilities,
    forces_within_word,
    forcing_bounds,
    iter_signed_partitions,
    random_signed_partition,
    ratio_checks,
    record_structure,
    stabilizer_of,
    structure_to_complex,
    top_level_check,
)


def build(walks, labels):
    return abstract_from_walks(walks, labels)


def level_counts(fs, ms):
    """counts[i][j] = consistent i-tuples of words at m = ms[j], i = 0..n, each
    level read from one ``_counter`` of the structure by its sorted key."""
    groups = _label_groups(fs.labels)
    counts = _counter(fs.classes, fs.signs, [2 * m for m in ms], {})
    return [counts(tuple(sorted(groups[:i]))) for i in range(len(groups) + 1)]


SINGLE = build([(1, 2, 3)], (1,))
REPEAT = build([(1, 1, 2)], (1,))
SHARED = build([(1, 2, 3), (1, 4, 5)], (1, 2))
DOUBLED = build([(1, 2, 3), (1, 2, 3)], (1, 2))  # disc doubled across its rim
# six labels, above the sizes the sweep checks
CHAIN6 = build([(1, 2, 3), (-3, 4, 5), (-5, 6, 7), (-7, 8, 9), (-9, 10, 11), (-11, 1, 12)],
               (1, 2, 3, 4, 5, 6))
FAN6 = build([(1, 2, 3), (-1, 4, 5), (-4, 6, 7), (2, 8, 9), (-8, -6, 10), (3, 11, 1)],
             (6, 5, 4, 3, 2, 1))
# six labels whose constraint triangles meet only at cut classes: each face
# shares one edge with the next, or every face shares edge 1
PATH6 = build([(1, 2, 3), (-3, 4, 5), (-5, 6, 7), (-7, 8, 9), (-9, 10, 11), (-11, 12, 13)],
              (1, 2, 3, 4, 5, 6))
STAR6 = build([(1, 2, 3), (-1, 4, 5), (6, 1, 7), (8, -1, 9), (10, 11, 1), (12, 13, -1)],
              (1, 2, 3, 4, 5, 6))


def presentation(relators, m=3, density="1/5", seed=0):
    return TriangularPresentation(
        m=m, density=Fraction(density), seed=seed, relators=tuple(relators)
    )


class TestPartialLabel:
    """Words written along faces: every edge must receive one letter."""

    def test_single_face_abc(self):
        assert fulfils(SINGLE, [(1, 2, 3)])

    def test_repeated_edge_matching(self):
        assert fulfils(REPEAT, [(1, 1, 2)])

    def test_repeated_edge_clash(self):
        assert not fulfils(REPEAT, [(1, 2, 3)])

    def test_opposite_orientations_inverse(self):
        Y = build([(1, 2, 3), (-1, 4, 5)], (1, 2))
        assert fulfils(Y, [(1, 2, 3), (-1, 2, 3)])
        assert not fulfils(Y, [(1, 2, 3), (2, 2, 3)])

    def test_prefix_only(self):
        # a word for every label, not a prefix of them
        with pytest.raises(ValueError, match="expected 2 words"):
            fulfils(SHARED, [(1, 2, 3)])

    def test_length_mismatch(self):
        square = AbstractLabelledComplex(
            vertex_count=1,
            edges=((0, 0),),
            faces=((1, 1, 1, 1),),
            labels=(1,),
        )
        for count in (lambda: montecarlo_fulfillment(square, 2, 10, seed=1),
                      lambda: structure_of(square)):
            with pytest.raises(ValueError, match="face 0 has 4 sides; words are triangles"):
                count()


class TestLabelGroups:
    def test_faces_per_label(self):
        assert _label_groups([2, 1, 2, 3]) == [(1,), (0, 2), (3,)]

    @pytest.mark.parametrize("labels, missing", [([3, 3], 1), ([1, 2, 5, 7], 3), ([2, 1, 4], 3)])
    def test_least_missing_label(self, labels, missing):
        message = f"^'index' values must cover 1..n: {missing} is missing$"
        with pytest.raises(ValueError, match=message):
            _label_groups(labels)

    def test_far_label_refused_without_a_list_per_label(self):
        error = None
        tracemalloc.start()
        try:
            _label_groups([1, 10**6])
        except ValueError as exc:
            error = str(exc)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert error == "'index' values must cover 1..n: 2 is missing"
        assert peak < 2**20


class TestFulfils:
    """Fulfilment by the relators of a presentation."""

    def test_single_face_any_relator(self):
        p = presentation([(1, 2, 3), (2, 1, 1)])
        assert fulfils(SINGLE, [p.relators[0]])
        assert fulfils(SINGLE, [p.relators[1]])

    def test_doubled_disc_with_repeated_relator(self):
        p = presentation([(1, 2, 3), (1, 2, 3)])
        assert fulfils(DOUBLED, p.relators)

    def test_shared_edge_incompatible(self):
        p = presentation([(1, 2, 3), (2, 1, 1)])
        assert not fulfils(SHARED, p.relators)  # edge 1 wants a, then b
        q = presentation([(1, 2, 3), (1, 1, 2)])
        assert fulfils(SHARED, q.relators)

    def test_position_count(self):
        p = presentation([(1, 2, 3)])
        with pytest.raises(ValueError, match="expected 2 words"):
            fulfils(DOUBLED, p.relators * 3)


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

    def test_four_labels(self):
        walks = [(1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12)]
        Y = build(walks, (1, 2, 3, 4))
        assert exact_probabilities(Y, 1).counts == (1, 2, 4, 8, 16)

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
        assert forced_counts([[0, 1, 2], [0, 1, 2]], Y.labels) == [0, 0]

    def test_uncovered_edge_rejected(self):
        Y = AbstractLabelledComplex(
            vertex_count=1,
            edges=((0, 0), (0, 0)),
            faces=((1, 1, 1),),
            labels=(1,),
        )
        with pytest.raises(ValueError, match="'edges' entry 1 lies in no face"):
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
            assert fulfils(SHARED, [w1, w2]) == fulfils(swapped, [w2, w1])


class TestCountingKernel:
    def test_isolated_triangle_matches_support(self):
        cons = [(0, 1, -1), (1, 2, -1), (0, 2, -1)]
        got = count_letter_assignments(3, cons, (2, 4, 6, 10))
        assert got == tuple(triangle_word_count(m) for m in (1, 2, 3, 5))

    def test_no_constraints(self):
        assert count_letter_assignments(2, [], (4,)) == (16,)

    def test_matches_union_find_counter(self):
        # the link-dict counter against the SignedUnionFind one it replaced
        sizes = (2, 4, 6, 8)
        implied = (1, [(0, 0, 1)])  # L[a] = L[a] always holds: nothing avoids it
        contradictory = (1, [(0, 0, -1)])  # L[a] = -L[a] never holds
        assert count_letter_assignments(*implied, sizes) == (0, 0, 0, 0)
        assert count_letter_assignments(*contradictory, sizes) == sizes
        cases = [implied, contradictory]
        rng = make_rng(99, "counter")
        for _ in range(400):
            n = rng.randint(1, 9)
            cases.append((n, [(rng.randrange(n), rng.randrange(n), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 12))]))
        for n, constraints in cases:
            assert count_letter_assignments(n, constraints, sizes) == (
                sweep_oracle.count_letter_assignments(n, constraints, sizes)), (n, constraints)

    def test_repeat_edge_polynomial(self):
        # faces (e,e,f): x**2 - x
        fs = FaceStructure((0, 0, 1), (1, 1, 1), (1,))
        counts = level_counts(fs, (1, 2, 3))
        assert counts[1] == (2, 12, 30)

    def test_structure_counts_shared(self):
        fs = FaceStructure((0, 1, 2, 0, 3, 4), (1, 1, 1, 1, 1, 1), (1, 2))
        counts = level_counts(fs, (1, 2))
        assert counts[1] == (2, 28)
        assert counts[2] == (2, 196)

    def test_reversed_copy_has_no_words(self):
        fs = FaceStructure((0, 1, 2, 2, 1, 0), (1, 1, 1, -1, -1, -1), (1, 1))
        counts = level_counts(fs, (1, 2, 3))
        assert counts[1] == (0, 0, 0)

    def test_matches_exhaustive_enumeration(self):
        for i in range(30):
            rng = make_rng(97, "xval", i)
            fs = structure_of(random_abstract_complex(rng, 3))
            ms = (1,) if fs.face_count == 3 and i % 3 else (1, 2)
            fast = level_counts(fs, ms)
            Y = structure_to_complex(fs)
            for j, m in enumerate(ms):
                probe = exact_probabilities(Y, m)
                assert tuple(level[j] for level in fast) == probe.counts, fs

    def test_closed_form_beyond_the_exhaustive_caps(self):
        # m = 4, 5 and six-label complexes, above the sizes the sweep checks
        cases = [(Y, m) for Y in (SINGLE, REPEAT, SHARED, DOUBLED) for m in (4, 5)]
        cases += [(build([(1, 1, 1)], (1,)), 5), (build([(1, 2, 3), (2, 1, 4)], (1, 1)), 5)]
        cases += [(Y, 1) for Y in (CHAIN6, FAN6, PATH6, STAR6)]
        for Y, m in cases:
            got = tuple(row["count"] for row in level_checks(structure_of(Y), m))
            assert (1, *got) == exact_probabilities(Y, m).counts, (Y, m)

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

    def test_structure_label_below_one(self):
        with pytest.raises(ValueError, match="^face 0 has label 0; labels must be positive$"):
            FaceStructure((0, 1, 2, 0, 3, 4), (1, 1, 1, 1, 1, 1), (0, 1))


def _random_signed_multigraph(rng):
    """``(n_classes, constraints)`` glued from up to four small random pieces.
    A piece opens a new component or shares one class with the pieces before
    it, so pieces meet at cut classes; some constraints are repeated with the
    opposite sign, and up to two classes lie on no constraint."""
    n = 0
    constraints = []
    for _ in range(rng.randint(1, 4)):
        shared = [rng.randrange(n)] if n and rng.random() < 0.7 else []
        size = rng.randint(2, 3)
        piece = shared + list(range(n, n + size - len(shared)))
        n += size - len(shared)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(piece, 2)
            constraints.append((a, b, rng.choice((1, -1))))
            if rng.random() < 0.3:
                constraints.append((b, a, -constraints[-1][2]))  # a parallel constraint
    n += rng.randint(0, 2)
    rename = list(range(n))
    rng.shuffle(rename)
    constraints = [(rename[a], rename[b], t) for a, b, t in constraints]
    rng.shuffle(constraints)
    return n, constraints


def _components(n, constraints, drop=None):
    """Connected components among the classes on some constraint, with class
    ``drop`` and its constraints removed."""
    parent = list(range(n))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    touched = set()
    for a, b, _ in constraints:
        touched |= {a, b}
        if drop not in (a, b):
            parent[find(a)] = find(b)
    return len({find(c) for c in touched - {drop}})


class TestBlockFactoring:
    SIZES = (2, 4, 6, 8)

    def test_matches_whole_graph_kernel(self):
        seen = {"isolated": 0, "components": 0, "cut": 0, "both signs": 0}
        for i in range(300):
            n, constraints = _random_signed_multigraph(make_rng(101, "blocks", i))
            assert _block_counts(n, constraints, self.SIZES, {}) == count_letter_assignments(
                n, constraints, self.SIZES), (n, constraints)
            on_edge = {c for a, b, _ in constraints for c in (a, b)}
            signs = {}
            for a, b, t in constraints:
                signs.setdefault(frozenset((a, b)), set()).add(t)
            whole = _components(n, constraints)
            seen["isolated"] += len(on_edge) < n
            seen["components"] += whole > 1
            seen["cut"] += any(_components(n, constraints, c) > whole for c in on_edge)
            seen["both signs"] += any(len(ts) == 2 for ts in signs.values())
        assert min(seen.values()) >= 30, seen

    def test_matches_whole_graph_kernel_on_sweep_keys(self, monkeypatch):
        # every memo key of the two-face sweep, each counted block by block
        memos = []

        def recording(classes, signs, sizes, memo):
            memos.append(memo)
            return _counter(classes, signs, sizes, memo)

        monkeypatch.setattr(fulfillment, "_counter", recording)
        ratio_sweep(max_faces=2, ms=(1, 2, 3))
        keys = {key for memo in memos for key in memo}
        assert len(keys) == 45
        for key in keys:
            assert _block_counts(*key, self.SIZES, {}) == count_letter_assignments(
                *key, self.SIZES), key

    def test_path_kernel_sees_only_triangles(self, monkeypatch):
        # work pin: every key is counted block by block, so the kernel sees
        # level 1's triangle and the one new triangle shape of level 2, and
        # every other block is a memo hit
        seen = []

        def counted(n_classes, constraints, sizes):
            seen.append(len(constraints))
            return count_letter_assignments(n_classes, constraints, sizes)

        monkeypatch.setattr(fulfillment, "count_letter_assignments", counted)
        rows = level_checks(structure_of(PATH6), 3)
        assert seen == [3, 3]
        assert [row["count"] for row in rows] == [126 * 21**i for i in range(6)]

    @pytest.mark.parametrize("Y", [PATH6, STAR6], ids=["path", "star"])
    def test_six_label_exact_counts(self, tmp_path, Y):
        # fulfil --exact at m = 2 and 3 against one whole-graph count per level
        path = tmp_path / "complex.json"
        out = tmp_path / "out.json"
        path.write_text(dumps_complex(Y))
        fs = structure_of(Y)
        groups = _label_groups(fs.labels)
        whole = [count_letter_assignments(*_merged_key(fs.classes, fs.signs, groups[:i]), (4, 6))
                 for i in range(1, 7)]
        for j, m in enumerate((2, 3)):
            assert main(["fulfil", "--complex", str(path), "--m", str(m), "--exact",
                         "--out", str(out)]) in (0, 1)
            levels = json.loads(out.read_text())["levels"]
            assert [row["count"] for row in levels] == [counts[j] for counts in whole]


def _orbit_key(fs):
    """The least encoding of a labelled structure over its face orders."""
    return min(
        (_permuted_encoding(fs.classes, fs.signs, p), tuple(fs.labels[f] for f in p))
        for p in itertools.permutations(range(fs.face_count))
    )


def _swept_partitions(k, samples):
    """Every signed partition on k faces, or a seeded sample of ``samples``
    at k = 3, which has too many to check each against every encoding."""
    if k < 3:
        return list(iter_signed_partitions(3 * k))
    rng = make_rng(16, "sweep-sample", k)
    return [random_signed_partition(rng, 3 * k) for _ in range(samples)]


class TestSweep:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_early_exit_matches_full_encodings(self, k):
        # the slot-by-slot comparison decides as the full encodings do: the
        # sign of encoding(p) - (classes, signs) for every face permutation,
        # and which partitions are kept, with which stabilizer
        perms = list(itertools.permutations(range(k)))
        orders = [_slot_order(p) for p in perms]
        partitions = _swept_partitions(k, 2_000)
        if k == 3:  # S_3 fixes three copies of one face; one transposition a pair
            partitions += [((0, 1, 2) * 3, (1,) * 9), ((0, 1, 2, 0, 1, 2, 3, 4, 5), (1,) * 9)]
        kept = fixed = 0
        for classes, signs in partitions:
            for perm, order in zip(perms, orders):
                assert _encoding_order(classes, signs, order) == encoding_sign(
                    classes, signs, perm), (classes, signs, perm)
            stabilizer = _stabilizer(classes, signs, perms, orders)
            assert stabilizer == stabilizer_of(classes, signs, perms), (classes, signs)
            kept += stabilizer is not None
            fixed += stabilizer is not None and len(stabilizer) > 1
        assert fixed > 0 or k == 1
        assert 0 < kept < len(partitions) or k == 1

    @pytest.mark.parametrize("k, samples", [(1, 0), (2, 0), (3, 400)])
    def test_shared_counts_match_fresh_counts(self, k, samples):
        # the counts one partition's configurations share, keyed on the group
        # set, are the counts of each configuration's own groups
        sizes = [2, 4, 6]
        perms = list(itertools.permutations(range(k)))
        orders = [_slot_order(p) for p in perms]
        memo = {}
        checked = 0
        for classes, signs in _swept_partitions(k, samples):
            stabilizer = _stabilizer(classes, signs, perms, orders)
            if stabilizer is None:
                continue
            counts = _counter(classes, signs, sizes, memo)
            for top, lowers in _structure_configs(k, stabilizer):
                _, _, full_key, lower_key = _keyed(top, lowers)
                for groups, key in (([*lowers, top], full_key), (lowers, lower_key)):
                    assert key == tuple(sorted(groups))
                    assert counts(key) == _counter(classes, signs, sizes, {})(key), (
                        classes, signs, top, lowers, groups)
                    checked += 1
        assert checked > 20

    def test_merged_key_matches_oracle(self, monkeypatch):
        # the flat pass against the union-find key it replaced: both refuse
        # together, or they count the same classes and the same assignments
        asked = []

        def record(classes, signs, groups):
            asked.append((classes, signs, [tuple(g) for g in groups]))
            return _merged_key(classes, signs, groups)

        monkeypatch.setattr(fulfillment, "_merged_key", record)
        ratio_sweep(max_faces=2, ms=(1, 2, 3))
        assert len(asked) == 1_208
        for classes, signs in _swept_partitions(3, 400):
            # the trivial stabilizer: every configuration on three faces
            for top, lowers in _structure_configs(3, ((0, 1, 2),)):
                asked.append((classes, signs, [*lowers, top]))
                if lowers:  # no key is asked for the empty tuple
                    asked.append((classes, signs, list(lowers)))
        hand = [
            ((0, 0, 0), (1, 1, 1), [(0,)]),  # the (e, e, e) face
            ((0, 0, 1), (1, -1, 1), [(0,)]),  # (e, e^-1, f) is never reduced
            ((0, 1, 2, 0, 3, 4), (1, 1, 1, -1, 1, 1), [(0, 1)]),  # e = e^-1
            ((0, 1, 2, 2, 1, 0), (1, 1, 1, -1, -1, -1), [(0, 1)]),  # reversed copy: f = f^-1
        ]
        fixed = ((0, 1, 2) * 3, (1,) * 9)  # S_3 fixes the three copies of one face
        hand += [(*fixed, groups) for groups in
                 ([(0, 1, 2)], [(0,), (1,), (2,)], [(0, 1), (2,)], [(2,), (0, 1)])]
        for Y in (CHAIN6, FAN6, build([(1, 2, 3), (-3, 4, 5), (-5, 6, 7), (-7, 8, 9)],
                                      (1, 1, 1, 1))):
            fs = structure_of(Y)
            groups = _label_groups(fs.labels)
            hand += [(fs.classes, fs.signs, groups[:i]) for i in range(1, len(groups) + 1)]
        asked += hand
        refused = 0
        for classes, signs, groups in asked:
            got = _merged_key(classes, signs, groups)
            want = sweep_oracle._merged_key(classes, signs, groups)
            assert (got is None) == (want is None), (classes, signs, groups)
            if got is None:
                refused += 1
                continue
            assert got[0] == want[0], (classes, signs, groups)
            assert count_letter_assignments(*got, (2, 4, 6)) == count_letter_assignments(
                *want, (2, 4, 6)), (classes, signs, groups)
        assert refused > 0
        assert [_merged_key(*case) is None for case in hand[:4]] == [False, True, True, True]

    def test_work_counts_two_faces(self, monkeypatch):
        # deterministic work of ratio_sweep(2): one canonicity test per
        # partition the orderly generator yields (914 of the 1,550 signed
        # partitions on 1 and 2 faces), one key per distinct group set of a
        # kept partition with no self-cancelling face, one kernel count per
        # distinct block
        calls = {"stabilizer": 0, "key": 0, "count": 0}

        def counted_stabilizer(*args):
            calls["stabilizer"] += 1
            return _stabilizer(*args)

        def counted_key(*args):
            calls["key"] += 1
            return _merged_key(*args)

        def counted_count(*args):
            calls["count"] += 1
            return count_letter_assignments(*args)

        monkeypatch.setattr(fulfillment, "_stabilizer", counted_stabilizer)
        monkeypatch.setattr(fulfillment, "_merged_key", counted_key)
        monkeypatch.setattr(fulfillment, "count_letter_assignments", counted_count)
        ratio_sweep(max_faces=2, ms=(1, 2, 3))
        assert calls == {"stabilizer": 914, "key": 1_208, "count": 24}

    def test_report_hash_two_faces(self):
        # the whole report, byte for byte; criterion 6 pins the three-face one
        report = ratio_sweep(max_faces=2, ms=(1, 2, 3))
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == (
            "8b1685b90de3789c572eccaf1be27bf0f7453d523250eb3b6af10f3ed0447469")

    def test_partition_counts_small(self):
        # one face: nothing to reorder, so all 11 partitions are yielded
        assert sum(1 for _ in iter_signed_partitions(3)) == 11
        assert [p[:2] for p in _orderly_partitions(1)] == list(iter_signed_partitions(3))

    def test_partitions_match_recursive_oracle(self):
        # the orderly generator against the unpruned recursion: it yields
        # every partition that _stabilizer keeps, in the recursion's order;
        # criterion 6's sha256 pins the whole order at 3 faces
        def generation_key(classes, signs):  # the recursion's order, slot by slot
            return tuple((c, s < 0) for c, s in zip(classes, signs))

        for k, sizes in ((1, (11, 11, 11)), (2, (1_539, 903, 831))):
            perms = list(itertools.permutations(range(k)))
            orders = [_slot_order(p) for p in perms]
            every = list(iter_signed_partitions(3 * k))
            assert every == sorted(every, key=lambda p: generation_key(*p))
            kept = [p for p in every if _stabilizer(*p, perms, orders) is not None]
            yielded = [p[:2] for p in _orderly_partitions(k)]
            assert [p for p in yielded if _stabilizer(*p, perms, orders) is not None] == kept
            assert (len(every), len(yielded), len(kept)) == sizes
        # three faces, on seeded samples: consecutive yields keep the
        # recursion's order, and every kept partition is yielded, with
        # nontrivial stabilizers among them
        perms = list(itertools.permutations(range(3)))
        orders = [_slot_order(p) for p in perms]
        yielded = [p[:2] for p in _orderly_partitions(3)]
        assert len(yielded) == 119_411
        for i in make_rng(16, "sweep-order").sample(range(len(yielded) - 1), 2_000):
            assert generation_key(*yielded[i]) < generation_key(*yielded[i + 1])
        sample = _swept_partitions(3, 3_000)
        sample += [((0, 1, 2) * 3, (1,) * 9), ((0, 1, 2, 0, 1, 2, 3, 4, 5), (1,) * 9)]
        kept = [p for p in sample if _stabilizer(*p, perms, orders) is not None]
        assert len(kept) > 100
        yielded = set(yielded)
        assert [p for p in kept if p not in yielded] == []

    @pytest.mark.parametrize("k, samples", [(1, 0), (2, 0), (3, 400)])
    def test_self_cancelling_partitions_count_zero(self, k, samples):
        # a face whose word would put a letter next to its own inverse leaves
        # no consistent tuple at the top of any configuration, so the sweep
        # skips their checks: each would return ([], []) with tightest as it was
        def self_cancelling(classes, signs):
            return any(
                classes[a] == classes[b] and signs[a] != signs[b]
                for f in range(k)
                for a, b in ((3 * f, 3 * f + 1), (3 * f + 1, 3 * f + 2), (3 * f + 2, 3 * f))
            )

        if k < 3:
            flags = [(c, s, self_cancelling(c, s)) for c, s in iter_signed_partitions(3 * k)]
            yielded = set(_orderly_partitions(k))
            assert yielded <= set(flags)
        ms = (1, 2, 3)
        sizes = [2 * m for m in ms]
        configs = [_keyed(*c) for c in _structure_configs(k, (tuple(range(k)),))]
        cancelling = 0
        for classes, signs in _swept_partitions(k, samples):
            if not self_cancelling(classes, signs):
                continue
            cancelling += 1
            counts = _counter(classes, signs, sizes, {})
            for config in configs:
                assert counts(config[2]) == (0, 0, 0), (classes, signs, config)
                tightest = [(0, 1)] * len(ms)
                assert _top_level_check(classes, config, ms, counts, tightest) == ([], [])
                assert tightest == [(0, 1)] * len(ms)
        assert cancelling > 0

    def test_top_delta_matches_oracle(self):
        # the direct top-face count against forced_counts over every face's
        # walk, on every configuration the 2-face sweep checks and on a
        # sample of 3-face partitions under the trivial stabilizer
        cases = []
        for k in (1, 2):
            perms = list(itertools.permutations(range(k)))
            orders = [_slot_order(p) for p in perms]
            for classes, signs in _swept_partitions(k, 0):
                stabilizer = _stabilizer(classes, signs, perms, orders)
                if stabilizer is not None:
                    cases += [(classes, *c) for c in _structure_configs(k, stabilizer)]
        for classes, _ in _swept_partitions(3, 400):
            cases += [(classes, *c) for c in _structure_configs(3, ((0, 1, 2),))]
        for classes, top, lowers in cases:
            assert _top_delta(classes, top, lowers) == sweep_oracle.top_delta(
                classes, top, lowers), (classes, top, lowers)
        assert {sweep_oracle.top_delta(*case) for case in cases} == {0, 1, 2, 3}

    @pytest.mark.parametrize("classes, top, lowers, delta", [
        # two top faces visit class 0 at position 0: both are free there
        ((0, 1, 2, 0, 3, 4), (0, 1), (), 0),
        # the later top face holds class 2's least position (0, not 2), and
        # both visit class 1 at position 1
        ((0, 1, 2, 2, 1, 3), (0, 1), (), 1),
        # the least position wins over the earlier face, with three faces
        ((0, 1, 2, 3, 4, 1, 2, 5, 6), (0, 1, 2), (), 1),
        # a class a lower face visits is forced on every top face
        ((0, 1, 2, 0, 3, 4), (1,), ((0,),), 1),
        ((0, 1, 2, 2, 1, 0, 1, 3, 4), (0, 1), ((2,),), 2),
        # a repeat within the top walk is forced at its later position
        ((0, 1, 0), (0,), (), 1),
    ], ids=["tie", "later-face-least", "three-faces", "lower", "lower-and-tie", "repeat"])
    def test_top_delta_hand_cases(self, classes, top, lowers, delta):
        assert _top_delta(classes, top, lowers) == delta
        assert sweep_oracle.top_delta(classes, top, lowers) == delta

    def test_orbit_counting_two_faces(self):
        total = 0
        reps = 0
        for classes, signs in iter_signed_partitions(6):
            encs = [_permuted_encoding(classes, signs, p) for p in ((0, 1), (1, 0))]
            if min(encs) == (classes, signs):
                reps += 1
                stab = sum(1 for e in encs if e == (classes, signs))
                total += 2 // stab
        assert total == sum(1 for _ in iter_signed_partitions(6))
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
            for classes, signs in iter_signed_partitions(3 * k):
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

    @pytest.mark.parametrize("max_faces, ms, message", [
        (1, (0,), "^ms entries must be at least 1, got 0$"),
        (1, (2, -2), "^ms entries must be at least 1, got -2$"),
        (0, (1, 2, 3), "^max_faces must be at least 1, got 0$"),
        (-1, (1,), "^max_faces must be at least 1, got -1$"),
        (1, (2, 2), r"^ms entries must be distinct, got \[2, 2\]$"),
        (1, (1, 3, 1), r"^ms entries must be distinct, got \[1, 3, 1\]$"),
    ], ids=["m-zero", "m-negative", "faces-zero", "faces-negative", "m-repeated",
            "m-repeated-apart"])
    def test_sweep_refuses_bad_ranks_and_budgets(self, max_faces, ms, message):
        with pytest.raises(ValueError, match=message):
            ratio_sweep(max_faces=max_faces, ms=ms)

    def test_level_check_matches_oracle(self, tmp_path):
        # fulfil --exact's rows and the sweep's top-level verdicts both come
        # from one level check; the oracle recomputes them from the exhaustive
        # counts, with delta taken label by label over the whole complex
        corpus = [random_abstract_complex(make_rng(31, "level", i), 3) for i in range(30)]
        corpus += [build([(1, 1, 1)], (1,)), REPEAT, build([(1, 2, 3), (2, 1, 4)], (1, 1))]
        ms = (1, 2)
        path = tmp_path / "complex.json"
        out = tmp_path / "out.json"
        for Y in corpus:
            path.write_text(dumps_complex(Y))
            fs = structure_of(Y)
            groups = [tuple(f for f in range(fs.face_count) if fs.labels[f] == j)
                      for j in range(1, max(fs.labels) + 1)]
            tightest = [(0, 1) for _ in ms]
            counts = _counter(fs.classes, fs.signs, [2 * m for m in ms], {})
            nominal, guaranteed = _top_level_check(
                fs.classes, _keyed(groups[-1], groups[:-1]), ms, counts, tightest
            )
            for j, m in enumerate(ms):
                probe = exact_probabilities(Y, m)
                oracle = ratio_checks(probe)
                status = main(["fulfil", "--complex", str(path), "--m", str(m), "--exact",
                               "--out", str(out)])
                assert status == (0 if all(row["holds"] for row in oracle) else 1), Y
                assert json.loads(out.read_text())["levels"] == [
                    {**row, "bound": str(row["bound"]),
                     "probability": str(probe.probabilities[row["level"]])}
                    for row in oracle
                ], (Y, m)
                top = oracle[-1]
                assert (m in nominal) == (not top["holds"]), (Y, m)
                assert (m in guaranteed) == (not top["holds_guaranteed"]), (Y, m)
                q = 2 * m - 1
                side = probe.counts[-1] * q ** top["delta"]
                cap = probe.counts[-2] * 2 * m * q**2
                assert Fraction(*tightest[j]) == (Fraction(side, cap) if side else 0), (Y, m)


def _cap_halved_at_2(count, lower, delta, m):
    """``_ratio_sides`` with the guaranteed cap halved at m = 2: a bound that
    real structures beat, so the checks' failure paths run."""
    side, nominal_cap, cap = _ratio_sides(count, lower, delta, m)
    return side, nominal_cap, cap // 2 if m == 2 else cap


class TestGuaranteedBoundCanFail:
    """The corrected bound is a theorem, so no real structure fails it; these
    tests feed made-up counts and caps to show that each check reports a
    failure when one happens."""

    def test_top_level_check_reports_both_bounds(self):
        # one free face: delta 0, so side = count; caps 2 and 2 at m = 1,
        # 28 and 36 at m = 2, and 37 consistent words beat both at m = 2
        counts = {((0,),): (2, 37), (): (1, 1)}.__getitem__
        tightest = [(0, 1), (0, 1)]
        nominal, guaranteed = _top_level_check(
            (0, 1, 2), _keyed((0,), ()), (1, 2), counts, tightest
        )
        assert (nominal, guaranteed) == ([2], [2])
        assert tightest == [(2, 2), (37, 36)]

    def test_sweep_lists_guaranteed_violations(self, monkeypatch):
        monkeypatch.setattr(fulfillment, "_ratio_sides", _cap_halved_at_2)
        report = ratio_sweep(max_faces=1, ms=(1, 2))
        assert report["guaranteed_violations"]
        assert all(v["ms"] == [2] for v in report["guaranteed_violations"])
        assert Fraction(report["guaranteed_tightest"][1]) == 1
        assert Fraction(report["guaranteed_tightest"][2]) > 1

    def test_exact_levels_report_guaranteed_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fulfillment, "_ratio_sides", _cap_halved_at_2)
        fs = structure_of(SHARED)
        assert all(row["holds_guaranteed"] for row in level_checks(fs, 1))
        assert not any(row["holds_guaranteed"] for row in level_checks(fs, 2))
        path, out = tmp_path / "complex.json", tmp_path / "out.json"
        path.write_text(dumps_complex(SHARED))
        status = main(["fulfil", "--complex", str(path), "--m", "2", "--exact",
                       "--out", str(out)])
        doc = json.loads(out.read_text())
        assert status == 0  # the exit status follows the nominal bound
        assert doc["all_hold"] is True
        assert doc["all_hold_guaranteed"] is False
