"""Word assignments on labelled complexes and their probabilities.

A tuple of length-3 words *fulfils* an abstract labelled complex when writing
word ``i`` along every face of label ``i`` pins down at most one letter per
oriented edge (opposite orientations carrying mutually inverse letters).  For
words drawn i.i.d. uniformly from the cyclically reduced support this module
computes the per-level probabilities

* in closed form by inclusion-exclusion over the cyclic-reduction constraints
  (``structure_counts`` on the complex's incidence structure, see
  ``structure_of``), which serves ``fulfil --exact`` and scales to a sweep
  over *all* incidence structures with a bounded number of faces,
* exhaustively (``exact_probabilities``, feasible for m <= 3 and <= 3
  labels), kept as the independent oracle the closed form is tested against,

and checks two per-level ratio bounds, where delta_i is the forced-letter
level from :func:`trigroup.complexes.label_forcing_levels`:

* the nominal p_i / p_{i-1} <= (2m-1)^(-delta_i), which fails on faces that
  force a word to repeat or invert one of its own letters;
* the guaranteed p_i / p_{i-1} <= 2m(2m-1)^(2-delta_i) / ((2m-1)^3+1), which
  always holds (see :func:`ratio_checks`).

Probabilities are exact rationals throughout; the only floats appear in the
final exponential bound and the Monte Carlo confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, log
from typing import Iterator, Mapping, Sequence

from .complexes import (
    AbstractLabelledComplex,
    SignedUnionFind,
    abstract_from_walks,
    all_edges_in_faces,
    cancel,
    forced_counts,
    label_forcing_levels,
    red,
    ref_edge,
)
from .seeding import make_rng
from .words import (
    Word,
    enumerate_triangle_words,
    sample_triangle_word,
    triangle_word_count,
)

#: 99% two-sided normal quantile for the Wilson interval.
_WILSON_Z = 2.5758293035489004

EXACT_M_CAP = 3
EXACT_LEVEL_CAP = 3


def _label_levels(Y: AbstractLabelledComplex) -> int:
    n = max(Y.labels)
    if len(set(Y.labels)) != n:  # labels are positive, so this means 1..n
        raise ValueError("face labels must cover 1..n")
    return n


# ---------------------------------------------------------------------------
# partial labellings


@dataclass(frozen=True)
class PartialLabelling:
    """Letter sets induced on oriented edges by words for labels 1..k.

    ``assigned`` maps ``(edge, direction)`` to the set of letters forced on
    that orientation; consistency means every set is a singleton and the two
    orientations of an edge carry mutually inverse letters.
    """

    complex: AbstractLabelledComplex
    words: tuple[Word, ...]
    assigned: Mapping[tuple[int, int], frozenset[int]]

    def is_consistent(self) -> bool:
        for (e, direction), letters in self.assigned.items():
            if len(letters) > 1:
                return False
            opposite = self.assigned.get((e, -direction))
            if opposite and len(opposite) == 1:
                if next(iter(letters)) != -next(iter(opposite)):
                    return False
        return True


def partial_label(Y: AbstractLabelledComplex, words: Sequence[Word]) -> PartialLabelling:
    """Write ``words[j-1]`` along every face of label ``j``, j <= len(words)."""
    _label_levels(Y)
    sets: dict[tuple[int, int], set[int]] = {}
    for f, walk in enumerate(Y.faces):
        j = Y.labels[f]
        if j > len(words):
            continue
        w = words[j - 1]
        if len(w) != len(walk):
            raise ValueError(
                f"word of length {len(w)} against a face of length {len(walk)}"
            )
        for t, ref in enumerate(walk):
            key = (ref_edge(ref), 1 if ref > 0 else -1)
            sets.setdefault(key, set()).add(w[t])
    return PartialLabelling(
        complex=Y,
        words=tuple(tuple(w) for w in words),
        assigned={k: frozenset(v) for k, v in sets.items()},
    )


def fulfils(
    Y: AbstractLabelledComplex,
    positions: Sequence[int],
    presentation,
) -> bool:
    """Do the relators at the given positions (one per label, injective) fulfil Y?"""
    n = _label_levels(Y)
    if len(positions) != n:
        raise ValueError(f"expected {n} relator positions")
    if len(set(positions)) != len(positions):
        raise ValueError("relator positions must be injective")
    words = tuple(presentation.relators[p] for p in positions)
    return partial_label(Y, words).is_consistent()


# ---------------------------------------------------------------------------
# exhaustive probabilities


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


def exact_probabilities(
    Y: AbstractLabelledComplex, m: int, allow_large: bool = False
) -> FulfillmentProbe:
    """Count consistent word tuples level by level over the full support.

    Cost grows as ((2m-1)^3+1)^n; refused above m=3 / n=3 unless
    ``allow_large`` acknowledges it.
    """
    n = _label_levels(Y)
    if not allow_large and (m > EXACT_M_CAP or n > EXACT_LEVEL_CAP):
        raise ValueError(
            f"exhaustive enumeration needs m <= {EXACT_M_CAP} and <= "
            f"{EXACT_LEVEL_CAP} labels (got m={m}, n={n}); pass allow_large to override"
        )
    support = enumerate_triangle_words(m, rank_cap=max(m, 6))
    faces_by_label = [
        [(Y.faces[f]) for f in range(Y.face_count) if Y.labels[f] == j]
        for j in range(1, n + 1)
    ]
    counts = [0] * (n + 1)
    counts[0] = 1
    letters: dict[int, int] = {}

    def place(walks, word) -> list[int] | None:
        added: list[int] = []
        for walk in walks:
            for t, ref in enumerate(walk):
                e = ref_edge(ref)
                code = word[t] if ref > 0 else -word[t]
                known = letters.get(e)
                if known is None:
                    letters[e] = code
                    added.append(e)
                elif known != code:
                    for x in added:
                        del letters[x]
                    return None
        return added

    def descend(level: int) -> None:
        for w in support:
            added = place(faces_by_label[level - 1], w)
            if added is None:
                continue
            counts[level] += 1
            if level < n:
                descend(level + 1)
            for e in added:
                del letters[e]

    descend(1)
    return FulfillmentProbe(complex=Y, m=m, counts=tuple(counts))


def forcing_bounds(Y: AbstractLabelledComplex) -> list[tuple[int, int]]:
    """Per-level maximal forced-letter counts (i, delta_i)."""
    if not all_edges_in_faces(Y):
        raise ValueError("forced-letter levels need every edge inside a face")
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


def final_probability_bound(Y: AbstractLabelledComplex, m: int, d: Fraction) -> float:
    """The closed-form exponential upper bound on the fulfillment probability."""
    size = Y.face_count
    if size < 1:
        raise ValueError("need at least one face")
    excess = Fraction(3 * size + 2 * (red(Y) - cancel(Y)), size) - 3 * (1 - 2 * Fraction(d))
    return exp(log(2 * m - 1) * float(excess) / 2)


def montecarlo_fulfillment(
    Y: AbstractLabelledComplex, m: int, trials: int, seed: int
) -> dict:
    """Frequency of fulfillment by i.i.d. uniform tuples, with 99% Wilson CI."""
    if trials < 1:
        raise ValueError("trials must be positive")
    n = _label_levels(Y)
    rng = make_rng(seed, "montecarlo", m, n)
    hits = 0
    for _ in range(trials):
        words = tuple(sample_triangle_word(m, rng) for _ in range(n))
        if partial_label(Y, words).is_consistent():
            hits += 1
    phat = hits / trials
    z2 = _WILSON_Z**2
    denom = 1 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (
        _WILSON_Z
        * ((phat * (1 - phat) / trials + z2 / (4 * trials**2)) ** 0.5)
        / denom
    )
    return {
        "m": m,
        "trials": trials,
        "hits": hits,
        "estimate": phat,
        "wilson_low": max(0.0, centre - half),
        "wilson_high": min(1.0, centre + half),
    }


# ---------------------------------------------------------------------------
# incidence structures and the closed-form counter
#
# For probability purposes only the face/edge incidence matters, never the
# vertices: a structure is a partition of the 3k walk slots into edge classes
# with traversal signs, plus a label per face.


@dataclass(frozen=True)
class FaceStructure:
    classes: tuple[int, ...]  # per slot, ids 0.. in first-appearance order
    signs: tuple[int, ...]  # per slot; first occurrence of a class is +1
    labels: tuple[int, ...]  # per face, surjective onto 1..n

    @property
    def face_count(self) -> int:
        return len(self.labels)

    def __post_init__(self) -> None:
        if len(self.classes) != 3 * len(self.labels) or len(self.signs) != len(self.classes):
            raise ValueError("slot count must be 3 per face")
        seen: set[int] = set()
        for s, c in enumerate(self.classes):
            if c not in seen:
                seen.add(c)
                if c != len(seen) - 1 or self.signs[s] != 1:
                    raise ValueError("classes must appear in order, first sign +1")


def structure_to_complex(fs: FaceStructure) -> AbstractLabelledComplex:
    walks = [
        tuple(
            fs.signs[3 * f + t] * (fs.classes[3 * f + t] + 1)
            for t in range(3)
        )
        for f in range(fs.face_count)
    ]
    return abstract_from_walks(walks, fs.labels)


def structure_of(Y: AbstractLabelledComplex) -> FaceStructure:
    """The incidence structure of ``Y``; inverse to :func:`structure_to_complex`.

    Edges become classes numbered in order of first appearance along the
    walks, each oriented so that its first traversal is forward.  Vertices
    are dropped: they never change a count.  Every face must be a triangle.
    """
    for f, walk in enumerate(Y.faces):
        if len(walk) != 3:
            raise ValueError(f"face {f} has {len(walk)} sides; words are triangles")
    refs = [ref for walk in Y.faces for ref in walk]
    classes, signs = _permuted_encoding(
        [ref_edge(ref) for ref in refs], [1 if ref > 0 else -1 for ref in refs],
        range(Y.face_count),
    )
    return FaceStructure(classes, signs, Y.labels)


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


def structure_counts(
    fs: FaceStructure,
    ms: Sequence[int],
    memo: dict | None = None,
) -> list[tuple[int, ...]]:
    """counts[i][j] = consistent i-tuples of words at m = ms[j], i = 0..n.

    Closed form: whatever the vertex structure, a consistent tuple is exactly
    a letter assignment to the merged edge classes avoiding the
    cyclic-reduction relations, counted by inclusion-exclusion.
    """
    if memo is None:
        memo = {}
    n = max(fs.labels)
    if min(fs.labels) < 1 or len(set(fs.labels)) != n:
        raise ValueError("labels must cover 1..n")
    sizes = [2 * m for m in ms]
    groups = [[f for f in range(fs.face_count) if fs.labels[f] == j] for j in range(1, n + 1)]
    return [_group_counts(fs.classes, fs.signs, groups[:i], sizes, memo) for i in range(n + 1)]


def _group_counts(classes, signs, groups, sizes, memo) -> tuple[int, ...]:
    """Consistent word tuples, one word per group of faces, at each alphabet
    size; memoized on the merged key."""
    if not groups:
        return (1,) * len(sizes)  # the empty tuple
    key = _merged_key(classes, signs, groups)
    if key is None:
        return (0,) * len(sizes)
    if key not in memo:
        memo[key] = count_letter_assignments(key[0], key[1], sizes)
    return memo[key]


# ---------------------------------------------------------------------------
# the sweep over every structure with at most `max_faces` faces


def _iter_signed_partitions(slots: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
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


_FACE_PERMS = {
    1: [(0,)],
    2: [(0, 1), (1, 0)],
    3: [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ],
}


def _permuted_encoding(
    classes: Sequence[int], signs: Sequence[int], perm: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rename: dict[int, int] = {}
    flip: dict[int, int] = {}
    out_c: list[int] = []
    out_s: list[int] = []
    for f in perm:
        for t in range(3):
            slot = 3 * f + t
            c = classes[slot]
            if c not in rename:
                rename[c] = len(rename)
                flip[c] = signs[slot]
            out_c.append(rename[c])
            out_s.append(signs[slot] * flip[c])
    return tuple(out_c), tuple(out_s)


def _top_level_check(
    classes, signs, top: list[int], lower_groups: list[list[int]],
    ms, bases, gbases, powers, memo, tightest,
) -> tuple[list[int], list[int]]:
    """Check the nominal and guaranteed top-level ratio bounds at every m.

    Returns (ms violating the nominal bound, ms violating the guaranteed
    one); see :func:`ratio_checks` for the two inequalities.  ``tightest[j]``
    is raised to this structure's guaranteed ratio at ``ms[j]``, kept as an
    integer pair (numerator, denominator) and compared by cross-multiplying.
    """
    sizes = [2 * m for m in ms]
    groups = lower_groups + [top]
    full = _group_counts(classes, signs, groups, sizes, memo)
    if not any(full):
        return [], []  # zero consistent tuples at the top level
    lowc = _group_counts(classes, signs, lower_groups, sizes, memo)
    walks = [classes[3 * f : 3 * f + 3] for group in groups for f in group]
    labels = [level for level, group in enumerate(groups, 1) for _ in group]
    delta = max(forced_counts(walks, labels)[-len(top) :])  # the top faces come last
    nominal: list[int] = []
    guaranteed: list[int] = []
    for j, m in enumerate(ms):
        lhs = full[j] * powers[j][delta]
        if lhs > lowc[j] * bases[j]:
            nominal.append(m)
        cap = lowc[j] * gbases[j]
        if lhs > cap:
            guaranteed.append(m)
        num, den = tightest[j]
        if lhs * den > num * cap:
            tightest[j] = (lhs, cap)
    return nominal, guaranteed


def _structure_configs(k: int, stabilizer: list) -> list[tuple[list[int], list[list[int]]]]:
    """All (top group, lower grouping) shapes on k faces, up to the stabilizer.

    Only the top level of each structure needs checking: the lower levels are
    top levels of smaller structures enumerated separately.  The order of
    lower labels never changes the count, so lower faces only need grouping.
    """
    if k == 1:
        return [([0], [])]
    configs: list[tuple[list[int], list[list[int]]]] = []
    seen: set[tuple] = set()

    def canon(top: list[int], lowers: list[list[int]]) -> tuple:
        best = None
        for perm in stabilizer:
            t = tuple(sorted(perm[f] for f in top))
            ls = tuple(sorted(tuple(sorted(perm[f] for f in g)) for g in lowers))
            cand = (t, ls)
            if best is None or cand < best:
                best = cand
        return best

    def add(top: list[int], lowers: list[list[int]]) -> None:
        c = canon(top, lowers)
        if c not in seen:
            seen.add(c)
            configs.append((top, lowers))

    faces = list(range(k))
    if k == 2:
        add(faces, [])  # one label
        for c in faces:
            add([c], [[1 - c]])
    else:
        add(faces, [])  # n = 1
        for c in faces:
            rest = [f for f in faces if f != c]
            add([c], [rest])  # n = 2, singleton on top
            add(rest, [[c]])  # n = 2, pair on top
            add([c], [[rest[0]], [rest[1]]])  # n = 3 (lower order irrelevant)
    return configs


def ratio_sweep(max_faces: int = 3, ms: Sequence[int] = (1, 2, 3)) -> dict:
    """Check the per-level ratio inequalities over *every* incidence structure
    with at most ``max_faces`` faces, at every m in ``ms``.

    Structures are deduplicated under face permutations (orientation flips of
    an edge class are part of the enumeration itself); for each structure only
    the top label level is checked, lower levels being top levels of smaller
    structures.  ``violations`` lists structures beating the nominal
    (2m-1)^(-delta) bound.  These exist, and every one lies in the
    within-word forcing family described in :func:`ratio_checks`, though
    most members of that family do not violate.  ``guaranteed_violations``
    collects failures of the provable 2m(2m-1)^(2-delta) form, checked on
    every structure, and stays empty.  ``guaranteed_tightest`` maps each m to
    the largest ratio of a top level's side of that bound to its other side,
    full*(2m-1)^delta / (lower*2m(2m-1)^2), as a fraction string; the bound
    holds everywhere exactly when no ratio exceeds 1.
    """
    if max_faces > 3:
        raise ValueError("sweep supports at most 3 faces")
    bases = [triangle_word_count(m) for m in ms]
    gbases = [2 * m * (2 * m - 1) ** 2 for m in ms]
    powers = [[(2 * m - 1) ** d for d in range(4)] for m in ms]
    memo: dict = {}
    tightest = [(0, 1) for _ in ms]
    report = {
        "ms": list(ms),
        "structures": 0,
        "checks": 0,
        "violations": [],
        "guaranteed_violations": [],
        "per_face_count": {},
    }
    for k in range(1, max_faces + 1):
        perms = _FACE_PERMS[k]
        n_structures = 0
        for classes, signs in _iter_signed_partitions(3 * k):
            encodings = [_permuted_encoding(classes, signs, p) for p in perms]
            me = (classes, signs)
            if min(encodings) != me:
                continue
            stabilizer = [p for p, enc in zip(perms, encodings) if enc == me]
            for top, lowers in _structure_configs(k, stabilizer):
                n_structures += 1
                report["checks"] += len(ms)
                nominal, guaranteed = _top_level_check(
                    classes, signs, top, lowers, ms, bases, gbases, powers, memo,
                    tightest,
                )
                if nominal or guaranteed:
                    record = {
                        "classes": list(classes),
                        "signs": list(signs),
                        "top": top,
                        "lower_groups": lowers,
                    }
                    if nominal:
                        report["violations"].append(dict(record, ms=nominal))
                    if guaranteed:
                        report["guaranteed_violations"].append(
                            dict(record, ms=guaranteed)
                        )
        report["per_face_count"][k] = n_structures
        report["structures"] += n_structures
    report["guaranteed_tightest"] = {
        m: str(Fraction(num, den)) for m, (num, den) in zip(ms, tightest)
    }
    return report
