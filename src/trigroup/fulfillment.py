"""Word assignments on labelled complexes and their probabilities.

A tuple of length-3 words *fulfils* an abstract labelled complex when writing
word ``i`` along every face of label ``i`` gives each edge a single letter,
read along the edge's orientation (a backward traversal reads its inverse).
``_letters_agree`` decides this for one tuple, and ``montecarlo_fulfillment``
samples it.  For words drawn i.i.d. uniformly from the cyclically reduced
support this module computes the per-level probabilities

* in closed form by inclusion-exclusion over the cyclic-reduction constraints
  (``_counter`` on the complex's incidence structure, see
  ``structure_of``), which scales to a sweep over *all* incidence structures
  with a bounded number of faces.  Every count factors over the 2-connected
  blocks of the constraint graph (``_block_counts``), and the kernel
  ``count_letter_assignments`` counts each distinct block once, so the cost
  is exponential in the largest block, not in the number of labels,
* exhaustively (``exact_probabilities``, whose cost grows as
  ((2m-1)^3+1)^n for n labels), kept as the independent oracle the closed
  form is tested against,

and checks two per-level ratio bounds, where delta_i is the forced-letter
level of the faces of label i over the labels below (``_top_delta``, which
reads it straight off the slot classes):

* the nominal p_i / p_{i-1} <= (2m-1)^(-delta_i), which fails on faces that
  force a word to repeat or invert one of its own letters;
* the guaranteed p_i / p_{i-1} <= 2m(2m-1)^(2-delta_i) / ((2m-1)^3+1), which
  always holds (see ``_ratio_sides``).

One level check serves both callers: ``level_checks`` gives the rows of
``fulfil --exact`` and ``ratio_sweep`` checks the top level of every
structure that has a consistent tuple at all (none has when a face reads a
letter next to its inverse).  Both ask the memoized counter for a group set
by its sorted key, which ``ratio_sweep`` builds once per configuration shape
and shares across partitions.

Probabilities are exact rationals throughout; the only floats appear in the
Monte Carlo confidence interval.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .complexes import AbstractLabelledComplex, ref_edge
from .seeding import make_rng
from .words import Word, enumerate_triangle_words, sample_triangle_word

#: 99% two-sided normal quantile for the Wilson interval.
_WILSON_Z = 2.5758293035489004


def _label_groups(labels: Sequence[int]) -> list[tuple[int, ...]]:
    """The faces of each label 1..n, in face order.  Every one of 1..n must
    occur; labels below 1 are refused earlier, by ``AbstractLabelledComplex``
    and ``FaceStructure``.  The least missing label is at most the number of
    distinct labels, so a far label costs no group per label below it."""
    faces: dict[int, list[int]] = {}
    for f, label in enumerate(labels):
        faces.setdefault(label, []).append(f)
    for label in range(1, len(faces) + 1):
        if label not in faces:
            raise ValueError(f"'index' values must cover 1..n: {label} is missing")
    return [tuple(faces[label]) for label in range(1, len(faces) + 1)]


def _require_triangles(Y: AbstractLabelledComplex) -> None:
    for f, walk in enumerate(Y.faces):
        if len(walk) != 3:
            raise ValueError(f"face {f} has {len(walk)} sides; words are triangles")


def _letters_agree(Y: AbstractLabelledComplex, words: Sequence[Word]) -> bool:
    """Does writing ``words[i-1]`` along every face of label ``i`` give each
    edge a single letter (read forward; a backward traversal reads its
    inverse)?  ``words`` must hold a word for every label, each as long as
    the faces of its label."""
    letters: dict[int, int] = {}
    for walk, label in zip(Y.faces, Y.labels):
        word = words[label - 1]
        for t, ref in enumerate(walk):
            code = word[t] if ref > 0 else -word[t]
            if letters.setdefault(ref_edge(ref), code) != code:
                return False
    return True


# ---------------------------------------------------------------------------
# exhaustive probabilities


class FulfillmentProbe:
    """Exact per-level fulfillment counts for i.i.d. uniform support words."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]) -> None:
        self.counts = counts  # counts[i] = consistent i-tuples, counts[0] = 1


def exact_probabilities(Y: AbstractLabelledComplex, m: int) -> FulfillmentProbe:
    """Count consistent word tuples level by level over the full support.

    Cost grows as ((2m-1)^3+1)^n for n labels.
    """
    faces_by_label = [[Y.faces[f] for f in group] for group in _label_groups(Y.labels)]
    n = len(faces_by_label)
    support = enumerate_triangle_words(m)
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
    return FulfillmentProbe(counts=tuple(counts))


def montecarlo_fulfillment(
    Y: AbstractLabelledComplex, m: int, trials: int, seed: int
) -> dict:
    """Frequency of fulfillment by i.i.d. uniform tuples, with 99% Wilson CI."""
    if trials < 1:
        raise ValueError("trials must be positive")
    n = len(_label_groups(Y.labels))
    _require_triangles(Y)
    rng = make_rng(seed, "montecarlo", m, n)
    hits = 0
    for _ in range(trials):
        if _letters_agree(Y, [sample_triangle_word(m, rng) for _ in range(n)]):
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


class FaceStructure:
    __slots__ = ("classes", "signs", "labels")

    def __init__(
        self,
        classes: tuple[int, ...],  # per slot, ids 0.. in first-appearance order
        signs: tuple[int, ...],  # per slot; first occurrence of a class is +1
        labels: tuple[int, ...],  # per face, surjective onto 1..n
    ) -> None:
        self.classes = classes
        self.signs = signs
        self.labels = labels
        if len(classes) != 3 * len(labels) or len(signs) != len(classes):
            raise ValueError("slot count must be 3 per face")
        seen: set[int] = set()
        for s, c in enumerate(classes):
            if c not in seen:
                seen.add(c)
                if c != len(seen) - 1 or signs[s] != 1:
                    raise ValueError("classes must appear in order, first sign +1")
        for f, label in enumerate(labels):
            if label < 1:
                raise ValueError(f"face {f} has label {label}; labels must be positive")

    def __eq__(self, other: object) -> bool:
        return type(other) is FaceStructure and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    @property
    def face_count(self) -> int:
        return len(self.labels)


def structure_of(Y: AbstractLabelledComplex) -> FaceStructure:
    """The incidence structure of ``Y``.

    Edges become classes numbered in order of first appearance along the
    walks, each oriented so that its first traversal is forward.  Vertices
    are dropped: they never change a count.  Every face must be a triangle.
    """
    _require_triangles(Y)
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
    inclusion-exclusion over constraint subsets with parity tracking: up to
    2^c terms for c constraints.  This is the per-block kernel:
    :func:`_block_counts` calls it once per distinct 2-connected block, and
    tests call it on a whole graph as the oracle of the factored count.

    Including a constraint identifies ``a`` with ``t * b``.  As in
    :func:`_merged_key`, ``link`` maps an absorbed class to ``(class it
    joined, sign of the absorbed class relative to it)``, and the larger id
    joins the smaller.  The include branch sets one link and the exclude
    branch deletes it, so the recursion's own stack undoes the merges.
    """
    pows = [[x**c for c in range(n_classes + 1)] for x in sizes]
    totals = [0] * len(sizes)
    link: dict[int, tuple[int, int]] = {}
    last = len(constraints)

    def rec(i: int, parity: int, comp: int) -> None:
        if i == last:
            for j in range(len(sizes)):
                totals[j] += parity * pows[j][comp]
            return
        a, b, t = constraints[i]
        sa = sb = 1
        while a in link:
            a, x = link[a]
            sa *= x
        while b in link:
            b, x = link[b]
            sb *= x
        if a == b:
            if sa * t * sb != 1:
                rec(i + 1, parity, comp)  # contradictory: the include branch is empty
            return  # else implied: including and excluding cancel pairwise
        if a > b:
            a, b = b, a
        link[b] = (a, sa * t * sb)
        rec(i + 1, -parity, comp - 1)  # include the constraint's equality
        del link[b]
        rec(i + 1, parity, comp)  # exclude it

    rec(0, 1, n_classes)
    return tuple(totals)


def _block_counts(
    n_classes: int,
    constraints: Sequence[tuple[int, int, int]],
    sizes: Sequence[int],
    memo: dict,
) -> tuple[int, ...]:
    """:func:`count_letter_assignments`, factored over the 2-connected blocks
    of the constraint multigraph (classes as vertices, one edge per
    constraint; Zaslavsky, "Signed graph coloring", Discrete Math. 39, 1982).

    Signed permutations of the alphabet act transitively on the letters and
    keep every relation ``L[a] != t * L[b]``, so once a cut vertex's letter
    is fixed each side has N/x of its N assignments.  Hence at size x the
    count is x^isolated * prod N(B) / x^(sum over components c of r_c - 1),
    with r_c the blocks of component c, and the division is exact.  Each
    block is counted by the kernel under its own key, its classes renamed in
    increasing order, and kept in ``memo``.  Every constraint must join two
    distinct classes, as every key of :func:`_merged_key` does.

    The blocks come from an iterative Hopcroft-Tarjan search that keeps a
    stack of edge ids, not of neighbours, so two parallel constraints stay
    in one block.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_classes)]
    for e, (a, b, _) in enumerate(constraints):
        adj[a].append((b, e))
        adj[b].append((a, e))
    product = [1] * len(sizes)
    disc = [0] * n_classes  # discovery times from 1; 0 while unvisited
    low = [0] * n_classes
    edges: list[int] = []  # ids of the edges not yet in a block
    clock = isolated = joins = 0
    for root in range(n_classes):
        if disc[root]:
            continue
        if not adj[root]:
            isolated += 1
            continue
        joins -= 1  # a component of r blocks makes r - 1 joins
        clock += 1
        disc[root] = low[root] = clock
        # per class on the search path: the tree edge into it, that edge's
        # place in ``edges``, and its neighbours not yet read
        stack = [(root, -1, 0, iter(adj[root]))]
        while stack:
            v, via, mark, rest = stack[-1]
            for w, e in rest:
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append((w, e, len(edges), iter(adj[w])))
                    edges.append(e)
                    break
                if disc[w] < disc[v] and e != via:  # a back edge, seen from below
                    edges.append(e)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    break
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] < disc[u]:
                    continue
                # u separates v's subtree: its edges from ``via`` on are a block
                block = sorted(edges[mark:])
                del edges[mark:]
                joins += 1
                classes = sorted({c for e in block for c in constraints[e][:2]})
                rename = {c: i for i, c in enumerate(classes)}
                key = (len(classes), tuple(
                    (rename[a], rename[b], t) for a, b, t in map(constraints.__getitem__, block)
                ))
                got = memo.get(key)
                if got is None:
                    got = memo[key] = count_letter_assignments(*key, sizes)
                product = [p * g for p, g in zip(product, got)]
    return tuple(p * x**isolated // x**joins for p, x in zip(product, sizes))


def _merged_key(
    classes: Sequence[int],
    signs: Sequence[int],
    groups: Sequence[Sequence[int]],
):
    """Reduce faces sharing a word, then normalize to a memoizable key.

    Returns ``(class_count, constraints)`` or None when no word tuple can be
    consistent (a letter forced equal to its own inverse, or a word position
    forced equal to the inverse of its cyclic predecessor).

    One flat pass over the slots, with no union-find object.  Merging: every
    face of a group carries its group's word, so each slot of a later face
    is identified with the same slot of the group's first face.  ``link``
    maps an absorbed class to ``(class it joined, sign of the absorbed class
    relative to it)``; the larger class id always joins the smaller, so a
    class's root is the least id it was merged with.  A group of one face
    merges nothing, and a set of singleton groups skips this step.
    Constraints: along each group's first face, the letter at position t+1
    must not be the inverse of the letter at t, which for slot roots a, b
    with signs sa, sb reads ``L[a] != -sa*sb * L[b]``.  Each class on a
    later face shares a root with a slot of its group's first face, so the
    roots met there are all the classes of the key, which renames them in
    increasing order and sorts the constraints.  Its labelling is not
    canonical, but the counts of ``count_letter_assignments`` depend only on
    the constraints up to renaming.
    """
    link: dict[int, tuple[int, int]] = {}
    for group in groups:
        r = 3 * group[0]
        for f in group[1:]:
            s = 3 * f
            for t in range(3):
                a = classes[r + t]
                sa = signs[r + t]
                while a in link:
                    a, x = link[a]
                    sa *= x
                b = classes[s + t]
                sb = signs[s + t]
                while b in link:
                    b, x = link[b]
                    sb *= x
                if a == b:
                    if sa != sb:
                        return None  # a letter forced equal to its inverse
                elif a < b:
                    link[b] = (a, sa * sb)
                else:
                    link[a] = (b, sa * sb)
    raw: set[tuple[int, int, int]] = set()
    roots: set[int] = set()
    for group in groups:
        r = 3 * group[0]
        slots = []
        for t in range(3):
            a = classes[r + t]
            sa = signs[r + t]
            while a in link:
                a, x = link[a]
                sa *= x
            slots.append((a, sa))
            roots.add(a)
        for t in range(3):
            a, sa = slots[t]
            b, sb = slots[t - 2]  # position t + 1, cyclically
            twist = -sa * sb
            if a == b:
                if twist == 1:
                    return None  # the word could never be cyclically reduced
                continue  # x != x^-1 holds for free
            raw.add((a, b, twist) if a < b else (b, a, twist))
    n = len(roots)
    if max(roots) == n - 1:  # the roots are 0..n-1 already
        return n, tuple(sorted(raw))
    rename = {c: i for i, c in enumerate(sorted(roots))}
    return n, tuple(sorted((rename[a], rename[b], t) for a, b, t in raw))


_GroupSet = tuple[tuple[int, ...], ...]


def _counter(classes, signs, sizes, memo):
    """``counts(key)``: the consistent word tuples, one word per group of
    faces of the structure ``(classes, signs)``, at each alphabet size.

    ``key`` is a group set as a sorted tuple of sorted face tuples: counts
    depend neither on the order of the groups nor on which face represents
    its group, so callers sort once and the counter never does.

    Closed form: whatever the vertex structure, a consistent tuple is exactly
    a letter assignment to the merged edge classes avoiding the
    cyclic-reduction relations, counted by inclusion-exclusion block by
    block (:func:`_block_counts`).  Counts are kept per key, and in
    ``memo``, which other structures may share, per merged key and per
    block key.  The two kinds of key have one form, so a merged key that is
    one block is counted once, as is a triangle that recurs at every level.
    """
    shared = {(): (1,) * len(sizes)}  # the empty tuple

    def counts(key: _GroupSet) -> tuple[int, ...]:
        got = shared.get(key)
        if got is None:
            merged = _merged_key(classes, signs, key)
            if merged is None:
                got = (0,) * len(sizes)
            else:
                got = memo.get(merged)
                if got is None:
                    got = memo[merged] = _block_counts(*merged, sizes, memo)
            shared[key] = got
        return got

    return counts


def _top_delta(
    classes: Sequence[int], top: Sequence[int], lower_groups: Sequence[Sequence[int]]
) -> int:
    """delta of the ``top`` face group over ``lower_groups``: the most letters
    of one top face already forced by the groups below, earlier top faces or
    earlier positions of its own walk.

    Only the top faces' count is taken.  A top slot is free when no lower
    face visits its class and its position is the least among the top faces'
    visits to that class; top faces that visit a class at that same least
    position are all free there.  This is
    :func:`trigroup.complexes.forced_counts` with the lower groups labelled
    below the top, read for the top faces alone.
    """
    below = set()  # plain loops: this runs on every structure the sweep checks
    for group in lower_groups:
        for f in group:
            below.update(classes[3 * f : 3 * f + 3])
    least: dict[int, int] = {}  # class -> least top position, for free classes
    for f in top:
        s = 3 * f
        for t in (0, 1, 2):
            c = classes[s + t]
            if c not in below and least.get(c, 3) > t:
                least[c] = t
    delta = 0
    for f in top:
        s = 3 * f
        forced = (
            (least.get(classes[s]) != 0)
            + (least.get(classes[s + 1]) != 1)
            + (least.get(classes[s + 2]) != 2)
        )
        if forced > delta:
            delta = forced
    return delta


def _ratio_sides(count: int, lower: int, delta: int, m: int) -> tuple[int, int, int]:
    """Both per-level ratio bounds at rank m, as integer comparisons.

    With ``count`` and ``lower`` the consistent tuples at a level and at the
    one below, returns ``(side, nominal_cap, guaranteed_cap)``.  The nominal
    p_i/p_{i-1} <= (2m-1)^(-delta) holds when side = count * (2m-1)^delta is
    at most nominal_cap = lower * ((2m-1)^3+1).  It is the bound the chain
    argument aims for, but it fails when the level's faces force its word to
    repeat (or invert) one of its own letters: 2m(2m-1) words repeat a
    symbol, slightly more than (2m-1)^2 (minimal case: one face (e, e, f)).
    The guaranteed p_i/p_{i-1} <= 2m(2m-1)^(2-delta)/((2m-1)^3+1), i.e.
    side <= guaranteed_cap = lower * 2m(2m-1)^2, always holds: the first free
    letter class has up to 2m values, every later one at most 2m-1, and delta
    is at most 3 minus the number of free classes.  It is tight on the
    repeated-letter faces.
    """
    q = 2 * m - 1
    side = count * q**delta
    return side, lower * (q**3 + 1), lower * 2 * m * q**2


def level_checks(fs: FaceStructure, m: int) -> list[dict]:
    """Per label level i = 1..n: its consistent-tuple count, delta and both
    ratio bounds at rank m (``bound`` is the nominal (2m-1)^(-delta))."""
    groups = _label_groups(fs.labels)
    keys = [tuple(sorted(groups[:i])) for i in range(len(groups) + 1)]
    counts = _counter(fs.classes, fs.signs, (2 * m,), {})
    rows = []
    for i in range(1, len(groups) + 1):
        (count,), (lower,) = counts(keys[i]), counts(keys[i - 1])
        delta = _top_delta(fs.classes, groups[i - 1], groups[: i - 1])
        side, nominal_cap, guaranteed_cap = _ratio_sides(count, lower, delta, m)
        rows.append(
            {
                "level": i,
                "delta": delta,
                "count": count,
                "bound": Fraction(1, (2 * m - 1) ** delta),
                "holds": side <= nominal_cap,
                "holds_guaranteed": side <= guaranteed_cap,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# the sweep over every structure with at most `max_faces` faces


def _extensions(used: int, width: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every way to extend a signed restricted-growth string that uses
    ``used`` classes by ``width`` slots, in generation order: each slot takes
    a class so far with sign +1, then the same class with sign -1, class by
    class, and last opens the next class with sign +1.  Items are
    ``(classes, signs, classes used after)``."""
    blocks = [((), (), used)]
    for _ in range(width):
        grown = []
        for c, s, u in blocks:
            for x in range(u):
                grown.append((c + (x,), s + (1,), u))
                grown.append((c + (x,), s + (-1,), u))
            grown.append((c + (u,), s + (1,), u + 1))
        blocks = grown
    return blocks


def _orderly_partitions(
    faces: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """The signed partitions of ``3 * faces`` slots that may be least under
    the face permutations, as ``(classes, signs, self_cancelling)``.

    Classes appear in first-use order; the first slot of each class is +1,
    later slots carry either sign.  (Restricted-growth strings with signs;
    Knuth, TAOCP 4A, 7.2.1.5.)  The order is lexicographic in the choices
    of :func:`_extensions`, a face (3 slots) at a time.

    Orderly generation (Read, "Every one a winner", 1978; Faradzev, 1978):
    a face prefix is extended only when no reading of one or two of its
    faces first, with classes renamed in first-use order, gives a smaller
    class string on those 3 or 6 slots than the prefix has.  Such a reading
    starts a face permutation whose whole encoding is smaller, since classes
    are compared before signs and a prefix's renaming does not depend on the
    slots after it, so every string under the prefix is refused by
    :func:`_stabilizer`.  Only a strict class difference prunes: a tie in
    classes can be broken by a later face's classes before any sign is
    compared.  So every partition that ``_stabilizer`` keeps is yielded, in
    the same order, and it still decides canonicity and the stabilizer.  A
    single face is compared by its class pattern: a later face takes only
    the blocks whose pattern is at least the first face's.

    A face is self-cancelling when two cyclically adjacent slots share a
    class with opposite signs: its word would put a letter next to its own
    inverse, so no group set that contains it has a consistent tuple.  The
    flag says whether any face is, read off each face block.
    """
    patterns: dict[tuple[int, ...], tuple[int, ...]] = {}  # string -> its renaming

    def pattern(classes: tuple[int, ...]) -> tuple[int, ...]:
        got = patterns.get(classes)
        if got is None:
            rename: dict[int, int] = {}
            got = patterns[classes] = tuple(rename.setdefault(c, len(rename)) for c in classes)
        return got

    # tables[used]: the blocks of a face after ``used`` classes, with
    # (classes used after, pattern, flag)
    tables = []
    for used in range(3 * faces - 2):
        blocks = []
        for c, s, after in _extensions(used, 3):
            cancels = (
                (c[0] == c[1] and s[0] != s[1])
                or (c[1] == c[2] and s[1] != s[2])
                or (c[2] == c[0] and s[2] != s[0])
            )
            blocks.append((c, s, after, pattern(c), cancels))
        tables.append(blocks)
    if faces == 1:
        for c, s, _, _, cancels in tables[0]:
            yield c, s, cancels
        return
    at_least: dict[tuple, list] = {}  # (used, least): tables[used] of pattern >= least
    # a prefix: classes, signs, classes used, flag, the first face's pattern,
    # every face's classes, and the classes of the faces of that pattern that
    # may be read first before a later face (not the first face while the
    # prefix has two faces: that reading is the prefix itself)
    prefixes = [(c, s, after, cancels, p, (c,), ()) for c, s, after, p, cancels in tables[0]]
    for j in range(1, faces):
        last = j == faces - 1
        grown = []
        for c, s, used, cancels, least, walks, ties in prefixes:
            head = c[:6]
            blocks = at_least.get((used, least))
            if blocks is None:
                blocks = at_least[used, least] = [b for b in tables[used] if b[3] >= least]
            for bc, bs, after, p, bcancels in blocks:
                nc = c + bc
                if j == 1:
                    head = nc
                smaller = False
                if p == least:  # the new face first
                    for w in walks:
                        if pattern(bc + w) < head:
                            smaller = True
                            break
                if not smaller:  # a face of the least pattern first, the new one second
                    for w in ties:
                        if pattern(w + bc) < head:
                            smaller = True
                            break
                if smaller:
                    continue
                if last:
                    yield nc, s + bs, cancels or bcancels
                else:
                    firsts = ties + (bc,) if p == least else ties
                    grown.append((nc, s + bs, after, cancels or bcancels, least,
                                  walks + (bc,), walks[:1] + firsts if j == 1 else firsts))
        prefixes = grown


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


def _encoding_order(classes: Sequence[int], signs: Sequence[int], order: Sequence[int]) -> int:
    """-1, 0 or 1 as the encoding of the slots read in ``order`` is less than,
    equal to or greater than ``(classes, signs)``.

    This is the comparison of ``_permuted_encoding`` with ``(classes, signs)``
    (``order`` lists the slots of the permuted faces), made slot by slot:
    classes first, signs only on a full class tie, and it stops at the first
    difference.
    """
    rename: dict[int, int] = {}
    for own, slot in zip(classes, order):
        c = rename.setdefault(classes[slot], len(rename))
        if c != own:
            return -1 if c < own else 1
    flip: dict[int, int] = {}
    for own, slot in zip(signs, order):
        s = signs[slot]
        s *= flip.setdefault(classes[slot], s)
        if s != own:
            return -1 if s < own else 1
    return 0


def _slot_order(perm: Sequence[int]) -> tuple[int, ...]:
    return tuple(3 * f + t for f in perm for t in range(3))


def _stabilizer(classes, signs, perms, orders) -> tuple | None:
    """The face permutations fixing the encoding ``(classes, signs)``, or None
    when some permutation makes it smaller: the partition is then not the
    least of its orbit.  ``perms`` starts with the identity, and ``orders``
    holds each permutation's ``_slot_order``."""
    stabilizer = [perms[0]]
    for perm, order in zip(perms[1:], orders[1:]):
        diff = _encoding_order(classes, signs, order)
        if diff < 0:
            return None
        if diff == 0:
            stabilizer.append(perm)
    return tuple(stabilizer)


_Config = tuple[tuple[int, ...], _GroupSet]  # (top group, lower groups)
_KeyedConfig = tuple[tuple[int, ...], _GroupSet, _GroupSet, _GroupSet]


def _keyed(top: tuple[int, ...], lowers: _GroupSet) -> _KeyedConfig:
    """``(top, lowers, full key, lower key)``: a configuration with the
    ``_counter`` keys of its whole group set and of the groups below the
    top, sorted once."""
    return top, lowers, tuple(sorted([*lowers, top])), tuple(sorted(lowers))


def _top_level_check(classes, config: _KeyedConfig, ms, counts, tightest) -> tuple[list[int], list[int]]:
    """Check the nominal and guaranteed top-level ratio bounds at every m.

    ``config`` is a configuration with its counting keys (see
    :func:`_keyed`), and ``counts(key)`` gives the consistent word tuples of
    a group set at every m.  Returns (ms violating the nominal bound, ms
    violating the guaranteed one); see :func:`_ratio_sides` for the two
    inequalities.  ``tightest[j]`` is raised to this structure's guaranteed
    ratio at ``ms[j]``, kept as an integer pair (numerator, denominator) and
    compared by cross-multiplying.
    """
    top, lowers, full_key, lower_key = config
    full = counts(full_key)
    if not any(full):
        return [], []  # zero consistent tuples at the top level
    lowc = counts(lower_key)
    delta = _top_delta(classes, top, lowers)
    nominal: list[int] = []
    guaranteed: list[int] = []
    for j, m in enumerate(ms):
        side, nominal_cap, cap = _ratio_sides(full[j], lowc[j], delta, m)
        if side > nominal_cap:
            nominal.append(m)
        if side > cap:
            guaranteed.append(m)
        num, den = tightest[j]
        if side * den > num * cap:
            tightest[j] = (side, cap)
    return nominal, guaranteed


def _structure_configs(k: int, stabilizer) -> tuple[_Config, ...]:
    """All (top group, lower grouping) shapes on k faces, up to the stabilizer.

    Only the top level of each structure needs checking: the lower levels are
    top levels of smaller structures enumerated separately.  The order of
    lower labels never changes the count, so lower faces only need grouping.
    Every group lists its faces in increasing order.  The result depends
    only on ``k`` and the stabilizer, which takes few values, so
    ``ratio_sweep`` computes it once per stabilizer and shares the tuples.
    """
    if k == 1:
        return (((0,), ()),)
    configs: list[_Config] = []
    seen: set[tuple] = set()

    def canon(top: tuple[int, ...], lowers: tuple[tuple[int, ...], ...]) -> tuple:
        best = None
        for perm in stabilizer:
            t = tuple(sorted(perm[f] for f in top))
            ls = tuple(sorted(tuple(sorted(perm[f] for f in g)) for g in lowers))
            cand = (t, ls)
            if best is None or cand < best:
                best = cand
        return best

    def add(top: tuple[int, ...], lowers: tuple[tuple[int, ...], ...]) -> None:
        c = canon(top, lowers)
        if c not in seen:
            seen.add(c)
            configs.append((top, lowers))

    faces = tuple(range(k))
    if k == 2:
        add(faces, ())  # one label
        for c in faces:
            add((c,), ((1 - c,),))
    else:
        add(faces, ())  # n = 1
        for c in faces:
            rest = tuple(f for f in faces if f != c)
            add((c,), (rest,))  # n = 2, singleton on top
            add(rest, ((c,),))  # n = 2, pair on top
            add((c,), ((rest[0],), (rest[1],)))  # n = 3 (lower order irrelevant)
    return tuple(configs)


def ratio_sweep(max_faces: int = 3, ms: Sequence[int] = (1, 2, 3)) -> dict:
    """Check the per-level ratio inequalities over *every* incidence structure
    with at most ``max_faces`` faces, at every m in ``ms``.

    Structures are deduplicated under face permutations (orientation flips of
    an edge class are part of the enumeration itself): a signed partition is
    kept when no face permutation gives it a smaller encoding.  The
    generator (:func:`_orderly_partitions`) never extends a face prefix when
    reading one or two of its faces first gives a strictly smaller class
    string, so it yields only partitions that may be kept, in the order of
    the full enumeration.  Each face permutation is then compared with the
    partition slot by slot and dropped at the first difference
    (``_encoding_order``), so a partition that is not the least of its
    orbit is rejected at the first smaller permutation, and the
    permutations that tie to the end form its stabilizer.  For each
    structure only the top label level is checked, lower levels being top
    levels of smaller structures; the configurations of one partition share
    one ``_counter``.  Every partition of the same stabilizer shares one
    ``_structure_configs``, cached with each configuration's two counting
    keys already sorted (``_keyed``), so the per-structure step sorts
    nothing.  ``ms`` entries must be distinct, and they and ``max_faces``
    must be at least 1.

    A partition with a self-cancelling face (two cyclically adjacent slots
    of one class with opposite signs) is counted but not checked: its word
    would put a letter next to its own inverse, and every configuration's
    group set holds every face, so every top level has zero consistent
    tuples, and its check would return before it touched ``violations`` or
    ``guaranteed_tightest``.

    ``violations`` lists structures beating the nominal (2m-1)^(-delta)
    bound.  These exist, and every one lies in the within-word forcing
    family described in :func:`_ratio_sides`, though most members of that
    family do not violate.  ``guaranteed_violations`` collects failures of
    the provable 2m(2m-1)^(2-delta) form, checked on every structure, and
    stays empty.  ``guaranteed_tightest`` maps each m to the largest ratio of
    a top level's side of that bound to its other side,
    full*(2m-1)^delta / (lower*2m(2m-1)^2), as a fraction string; the bound
    holds everywhere exactly when no ratio exceeds 1.
    """
    if max_faces > 3:
        raise ValueError("sweep supports at most 3 faces")
    if max_faces < 1:
        raise ValueError(f"max_faces must be at least 1, got {max_faces}")
    for m in ms:
        if m < 1:
            raise ValueError(f"ms entries must be at least 1, got {m}")
    if len(set(ms)) != len(ms):
        raise ValueError(f"ms entries must be distinct, got {list(ms)}")
    sizes = [2 * m for m in ms]
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
        perms = list(itertools.permutations(range(k)))
        orders = [_slot_order(p) for p in perms]
        configs_of: dict[tuple, list[_KeyedConfig]] = {}
        n_structures = 0
        for classes, signs, self_cancelling in _orderly_partitions(k):
            stabilizer = _stabilizer(classes, signs, perms, orders)
            if stabilizer is None:
                continue
            configs = configs_of.get(stabilizer)
            if configs is None:
                configs = configs_of[stabilizer] = [
                    _keyed(*config) for config in _structure_configs(k, stabilizer)
                ]
            n_structures += len(configs)
            if self_cancelling:  # every group set holds the face: no tuple, no check
                continue
            counts = _counter(classes, signs, sizes, memo)
            for config in configs:
                nominal, guaranteed = _top_level_check(classes, config, ms, counts, tightest)
                if nominal or guaranteed:
                    top, lowers = config[:2]
                    record = {  # fresh lists: the configurations are shared
                        "classes": list(classes),
                        "signs": list(signs),
                        "top": list(top),
                        "lower_groups": [list(g) for g in lowers],
                    }
                    if nominal:
                        report["violations"].append(dict(record, ms=nominal))
                    if guaranteed:
                        report["guaranteed_violations"].append(
                            dict(record, ms=guaranteed)
                        )
        report["per_face_count"][k] = n_structures
        report["structures"] += n_structures
        report["checks"] += n_structures * len(ms)
    report["guaranteed_tightest"] = {
        m: str(Fraction(num, den)) for m, (num, den) in zip(ms, tightest)
    }
    return report
