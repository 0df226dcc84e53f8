"""Independent checks on the per-level ratio bounds of ``fulfil --exact`` and
:func:`trigroup.fulfillment.ratio_sweep`.

The per-level check that both run (``level_checks`` and ``_top_level_check``
over ``_top_delta`` and ``_ratio_sides``) is checked here against the former
complex-level path, kept as the oracle: :func:`ratio_checks` over the
exhaustive counts of :func:`exact_probabilities`, with delta_i from
:func:`forcing_bounds` and :func:`label_forcing_levels`, which take the
forced-letter level label by label over the whole complex.

The sweep keeps a signed partition when no face permutation gives it a
smaller encoding, and compares each permutation slot by slot, stopping at the
first difference.  :func:`encoding_sign` and :func:`stabilizer_of` make the
same decisions from the full encodings of every permutation, as the sweep
once did.

A sweep record names a structure by its slot ``classes`` and ``signs``, the
faces of its top label (``top``) and the grouping of the faces below it
(``lower_groups``).  The helpers here rebuild it as a labelled complex for the
brute-force counter and test its shape without the sweep's own forced-letter
code.  :func:`structure_to_complex`, the inverse of
:func:`trigroup.fulfillment.structure_of`, does the rebuilding; no command
needs it, so it lives with the tests.

:func:`_merged_key` is the counting key as it was built with a
``SignedUnionFind`` over locally renamed classes, kept as the oracle of the
flat pass in :func:`trigroup.fulfillment._merged_key`: both refuse the same
group sets, and otherwise give keys with the same class count and the same
letter-assignment counts, though their labellings may differ.

:func:`iter_signed_partitions` is the sweep's partition generator as a
recursion with one generator frame per slot and no pruning, kept as the
oracle of the orderly generator :func:`trigroup.fulfillment._orderly_partitions`:
every string that ``_stabilizer`` keeps comes from both, in the same order.  :func:`top_delta` is the
sweep's forced-letter level of a top group as it was computed, through
:func:`trigroup.complexes.forced_counts` on the walks of every face, kept as
the oracle of the direct top-face count in
:func:`trigroup.fulfillment._top_delta`.

:func:`count_letter_assignments` is the counter as it ran on an undoable
``SignedUnionFind`` (union by size, an ``absorbed`` log to tell a merge from
an implied constraint), kept as the oracle of the counter in
:func:`trigroup.fulfillment.count_letter_assignments`, which keeps its
forest in a ``link`` dict and undoes merges on the recursion's stack.  Both
union-find classes now live in ``union_find``, a test helper.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from trigroup import fulfillment
from trigroup.complexes import (
    AbstractLabelledComplex,
    abstract_from_walks,
    edges_in_no_face,
    forced_counts,
    ref_edge,
)
from trigroup.fulfillment import FaceStructure
from trigroup.words import triangle_word_count
from union_find import SignedUnionFind


@dataclass(frozen=True)
class FulfillmentProbe:
    """Exact per-level fulfillment counts for i.i.d. uniform support words."""

    complex: AbstractLabelledComplex
    m: int
    counts: tuple[int, ...]  # counts[i] = consistent i-tuples, counts[0] = 1

    @property
    def probabilities(self) -> tuple[Fraction, ...]:
        base = triangle_word_count(self.m)
        return tuple(
            Fraction(c, base**i) for i, c in enumerate(self.counts)
        )


def exact_probabilities(Y: AbstractLabelledComplex, m: int) -> FulfillmentProbe:
    """:func:`trigroup.fulfillment.exact_probabilities`, kept with the complex
    it counted, as :func:`ratio_checks` reads it."""
    return FulfillmentProbe(complex=Y, m=m, counts=fulfillment.exact_probabilities(Y, m).counts)


def _label_levels(Y: AbstractLabelledComplex) -> int:
    n = max(Y.labels)
    if len(set(Y.labels)) != n:  # labels are positive, so this means 1..n
        raise ValueError("face labels must cover 1..n")
    return n


def _complex_forced_counts(Y: AbstractLabelledComplex) -> list[int]:
    return forced_counts([[ref_edge(r) for r in walk] for walk in Y.faces], Y.labels)


def label_forcing_levels(Y: AbstractLabelledComplex) -> list[tuple[int, int]]:
    """For each label value ``i``: the max forced-letter count among its faces."""
    levels: dict[int, int] = {}
    for i, forced in zip(Y.labels, _complex_forced_counts(Y)):
        levels[i] = max(levels.get(i, 0), forced)
    return sorted(levels.items())


def forcing_bounds(Y: AbstractLabelledComplex) -> list[tuple[int, int]]:
    """Per-level maximal forced-letter counts (i, delta_i)."""
    loose = edges_in_no_face(Y)
    if loose:
        raise ValueError(
            f"'edges' entry {loose[0]} lies in no face; forced-letter levels need"
            " every edge inside a face"
        )
    _label_levels(Y)
    return label_forcing_levels(Y)


def ratio_checks(probe: FulfillmentProbe) -> list[dict]:
    """Per-level ratio inequalities, as exact integer comparisons.

    ``holds``: the nominal bound p_i/p_{i-1} <= (2m-1)^(-delta_i), i.e.
    counts[i] * (2m-1)^delta_i <= counts[i-1] * ((2m-1)^3+1).  This is the
    bound the chain argument aims for, but it genuinely fails on complexes
    whose level-i faces force w_i to repeat (or invert) one of its own
    letters: the count of words with a repeated symbol is 2m(2m-1), slightly
    more than (2m-1)^2.  Minimal case: one face with boundary (e, e, f).

    ``holds_guaranteed``: the always-valid form
    counts[i] * (2m-1)^delta_i <= counts[i-1] * 2m(2m-1)^2, obtained by
    counting letter choices class by class (the first free letter class has
    up to 2m values, every later one at most 2m-1, and delta_i is at most
    3 minus the number of free classes).  Tight on the repeated-letter
    complexes above.
    """
    deltas = dict(forcing_bounds(probe.complex))
    base = triangle_word_count(probe.m)
    q = 2 * probe.m - 1
    out = []
    for i in range(1, len(probe.counts)):
        lhs = probe.counts[i] * q ** deltas[i]
        out.append(
            {
                "level": i,
                "delta": deltas[i],
                "count": probe.counts[i],
                "bound": Fraction(1, q ** deltas[i]),
                "holds": lhs <= probe.counts[i - 1] * base,
                "holds_guaranteed": lhs <= probe.counts[i - 1] * 2 * probe.m * q**2,
            }
        )
    return out


def structure_to_complex(fs: FaceStructure) -> AbstractLabelledComplex:
    """A labelled complex with incidence structure ``fs``: class ``c`` becomes
    edge ``c``, traversed forward where the slot's sign is +1."""
    walks = [
        tuple(fs.signs[3 * f + t] * (fs.classes[3 * f + t] + 1) for t in range(3))
        for f in range(fs.face_count)
    ]
    return abstract_from_walks(walks, fs.labels)


def record_structure(record: dict) -> FaceStructure:
    """The labelled structure of a sweep record: lower groups take labels
    1..n-1 in order, the top group takes n."""
    labels = [0] * (len(record["classes"]) // 3)
    for j, group in enumerate(record["lower_groups"], start=1):
        for f in group:
            labels[f] = j
    for f in record["top"]:
        labels[f] = len(record["lower_groups"]) + 1
    return FaceStructure(tuple(record["classes"]), tuple(record["signs"]), tuple(labels))


def forces_within_word(record: dict) -> bool:
    """Does the top word have to repeat or invert one of its own letters?

    True when some slot class that lies on no lower-label face is reached from
    two different positions of the top word: the top word alone then ties its
    letters at those positions together.
    """
    classes = record["classes"]
    lower = {classes[3 * f + t] for g in record["lower_groups"] for f in g for t in range(3)}
    positions: dict[int, set[int]] = {}
    for f in record["top"]:
        for t in range(3):
            if classes[3 * f + t] not in lower:
                positions.setdefault(classes[3 * f + t], set()).add(t)
    return any(len(p) > 1 for p in positions.values())


def top_level_check(fs: FaceStructure, m: int) -> dict:
    """The top-level entry of :func:`ratio_checks` on the exhaustive counts."""
    return ratio_checks(exact_probabilities(structure_to_complex(fs), m))[-1]


def encoding_sign(classes, signs, perm: Sequence[int]) -> int:
    """-1, 0 or 1: the sign of ``_permuted_encoding(classes, signs, perm)``
    minus ``(classes, signs)``, comparing the full tuples."""
    enc = fulfillment._permuted_encoding(classes, signs, perm)
    me = (tuple(classes), tuple(signs))
    return (enc > me) - (enc < me)


def stabilizer_of(classes, signs, perms: Sequence[Sequence[int]]) -> tuple | None:
    """None when some permutation in ``perms`` gives a smaller encoding, else
    the permutations whose encoding equals ``(classes, signs)``."""
    encodings = [fulfillment._permuted_encoding(classes, signs, p) for p in perms]
    me = (tuple(classes), tuple(signs))
    if min(encodings) != me:
        return None
    return tuple(p for p, enc in zip(perms, encodings) if enc == me)


def random_signed_partition(rng: random.Random, slots: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A signed restricted-growth string, drawn slot by slot: each slot
    joins one of the classes so far or opens the next one, uniformly, and a
    slot that joins a class takes either sign."""
    classes: list[int] = []
    signs: list[int] = []
    used = 0
    for _ in range(slots):
        c = rng.randrange(used + 1)
        classes.append(c)
        signs.append(1 if c == used else rng.choice((1, -1)))
        used = max(used, c + 1)
    return tuple(classes), tuple(signs)


def iter_signed_partitions(slots: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All partitions of slot positions into classes, with traversal signs.

    Classes appear in first-use order; the first slot of each class is +1,
    later slots carry either sign.  (Restricted-growth strings with signs.)
    """
    classes = [0] * slots
    signs = [1] * slots

    def rec(i: int, used: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if i == slots:
            yield tuple(classes), tuple(signs)
            return
        for c in range(used):
            classes[i] = c
            for s in (1, -1):
                signs[i] = s
                yield from rec(i + 1, used)
            signs[i] = 1
        classes[i] = used
        yield from rec(i + 1, used + 1)

    yield from rec(0, 0)


def top_delta(
    classes: Sequence[int], top: Sequence[int], lower_groups: Sequence[Sequence[int]]
) -> int:
    """delta of the ``top`` face group over ``lower_groups``: the most letters
    of one top face already forced by the groups below, earlier top faces or
    earlier positions of its own walk (see
    :func:`trigroup.complexes.forced_counts`)."""
    groups = [*lower_groups, top]
    walks = [classes[3 * f : 3 * f + 3] for group in groups for f in group]
    labels = [level for level, group in enumerate(groups, 1) for _ in group]
    return max(forced_counts(walks, labels)[-len(top) :])  # the top faces come last


def _merged_key(
    classes: Sequence[int],
    signs: Sequence[int],
    groups: Sequence[Sequence[int]],
):
    """Reduce faces sharing a word, then normalize to a memoizable key.

    Returns ``(class_count, constraints)`` or None when no word tuple can be
    consistent (a letter forced equal to its own inverse, or a word position
    forced equal to the inverse of its cyclic predecessor).
    """
    present = sorted({f for g in groups for f in g})
    ids = sorted({classes[3 * f + t] for f in present for t in range(3)})
    local = {c: i for i, c in enumerate(ids)}
    uf = SignedUnionFind(len(ids))
    for group in groups:
        rep = group[0]
        for f in group[1:]:
            for t in range(3):
                a = local[classes[3 * rep + t]]
                b = local[classes[3 * f + t]]
                rel = signs[3 * rep + t] * signs[3 * f + t]
                if not uf.union(a, b, rel):
                    return None
    raw: set[tuple[int, int, int]] = set()
    for group in groups:
        rep = group[0]
        slots = [
            uf.find(local[classes[3 * rep + t]]) for t in range(3)
        ]
        for t in range(3):
            (ra, sa) = slots[t]
            (rb, sb) = slots[(t + 1) % 3]
            twist = -(signs[3 * rep + t] * sa) * (signs[3 * rep + (t + 1) % 3] * sb)
            if ra == rb:
                if twist == 1:
                    return None  # the word could never be cyclically reduced
                continue  # x != x^-1 holds for free
            raw.add((min(ra, rb), max(ra, rb), twist))
    roots = sorted({uf.find(local[c])[0] for c in ids})
    rename = {r: i for i, r in enumerate(roots)}
    constraints = tuple(sorted((rename[a], rename[b], t) for a, b, t in raw))
    return len(roots), constraints


def count_letter_assignments(
    n_classes: int,
    constraints: Sequence[tuple[int, int, int]],
    sizes: Sequence[int],
) -> tuple[int, ...]:
    """Assignments of alphabet letters to classes avoiding forbidden relations.

    Each constraint ``(a, b, t)`` forbids ``L[a] = t * L[b]``; the alphabet is
    closed under negation and has ``x`` letters (x even, no fixed point of
    negation).  Returns the count for each x in ``sizes``, by
    inclusion-exclusion over constraint subsets with parity tracking.
    """
    pows = [[x**c for c in range(n_classes + 1)] for x in sizes]
    totals = [0] * len(sizes)
    uf = SignedUnionFind(n_classes)
    union, undo, absorbed = uf.union, uf.undo, uf.absorbed
    last = len(constraints)

    def rec(i: int, parity: int, comp: int) -> None:
        if i == last:
            for j in range(len(sizes)):
                totals[j] += parity * pows[j][comp]
            return
        merges = len(absorbed)
        if not union(*constraints[i]):
            rec(i + 1, parity, comp)  # contradictory: the include branch is empty
        elif len(absorbed) > merges:
            rec(i + 1, -parity, comp - 1)  # include the constraint's equality
            undo()
            rec(i + 1, parity, comp)  # exclude it
        # else implied: including and excluding cancel pairwise

    rec(0, 1, n_classes)
    return tuple(totals)
