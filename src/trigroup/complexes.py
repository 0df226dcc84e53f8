"""Labelled combinatorial 2-complexes and their cancellation functionals.

A face's boundary walk is a tuple of signed 1-based edge references
(``+k`` traverses edge ``k-1`` forward, ``-k`` backward); the walk is part of
the data, so rotating it gives a different complex.  Faces carry positive
integer labels.  On top of the structure this module computes:

* ``edge_degree`` - occurrences of an edge over all walks, with multiplicity;
* ``cancel`` - the total excess ``sum (deg(e) - 1)+``;
* ``red`` - the reducedness defect: for each edge and each label, the number
  of tied least-position occurrences beyond the first;
* ``forced_counts`` - per face, how many of its letters are already
  determined by lower labels, earlier faces of the same label, or earlier
  positions of its own walk (the complement of the min-label/least-position
  indicator pair);
* the chain inequality ``red + sum of forced counts >= cancel``.

Van Kampen diagrams are the planar, contractible instances bound to a
presentation; their construction lives in :mod:`trigroup.enumeration`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .presentation import TriangularPresentation, json_count, json_int, json_list
from .words import Word, invert_word

Walk = tuple[int, ...]


def ref_edge(ref: int) -> int:
    """0-based edge index of a signed reference."""
    return abs(ref) - 1


def walk_letters(walk: Walk, letters: Sequence[int]) -> Word:
    """Letters spelled by a walk; negation inverts a letter code."""
    return tuple(letters[ref_edge(r)] if r > 0 else -letters[ref_edge(r)] for r in walk)


@dataclass(frozen=True)
class TwoComplex:
    """Vertices 0..vertex_count-1, edges as (tail, head), faces as walks."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[Walk, ...]

    def __post_init__(self) -> None:
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise ValueError("edge endpoint out of range")
        for walk in self.faces:
            if not walk:
                raise ValueError("empty face walk")
            for r in walk:
                if r == 0 or abs(r) > len(self.edges):
                    raise ValueError(f"bad edge reference {r}")
            for a, b in zip(walk, walk[1:] + walk[:1]):
                if self.ref_head(a) != self.ref_tail(b):
                    raise ValueError(f"walk {walk} is not a closed path")

    def ref_tail(self, ref: int) -> int:
        t, h = self.edges[ref_edge(ref)]
        return t if ref > 0 else h

    def ref_head(self, ref: int) -> int:
        t, h = self.edges[ref_edge(ref)]
        return h if ref > 0 else t

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class AbstractLabelledComplex(TwoComplex):
    """A 2-complex whose faces carry positive integer labels."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        TwoComplex.__post_init__(self)
        if len(self.labels) != len(self.faces):
            raise ValueError("one label per face required")
        if any(i < 1 for i in self.labels):
            raise ValueError("labels must be positive")

    @property
    def label_values(self) -> list[int]:
        return sorted(set(self.labels))


@dataclass(frozen=True)
class LabelledComplex(AbstractLabelledComplex):
    """A labelled complex whose edges also carry letters.

    ``letters[e]`` is the letter code read along the forward orientation of
    edge ``e``; the backward orientation reads its negation.
    """

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        AbstractLabelledComplex.__post_init__(self)
        if len(self.letters) != len(self.edges):
            raise ValueError("one letter per edge required")
        if any(c == 0 for c in self.letters):
            raise ValueError("letter codes must be nonzero")

    def face_word(self, f: int) -> Word:
        return walk_letters(self.faces[f], self.letters)


@dataclass(frozen=True)
class VanKampenDiagram(LabelledComplex):
    """A planar contractible diagram bound to a presentation.

    Labels are 1-based relator positions (label ``i`` spells relator ``i-1``),
    ``boundary`` is the outer walk (diagram interior kept on its left).
    """

    presentation: TriangularPresentation
    boundary: Walk

    def __post_init__(self) -> None:
        LabelledComplex.__post_init__(self)
        rels = self.presentation.relators
        for f, walk in enumerate(self.faces):
            pos = self.labels[f] - 1
            if not 0 <= pos < len(rels):
                raise ValueError(f"face {f} labelled with unknown relator position")
            if self.face_word(f) != rels[pos]:
                raise ValueError(f"face {f} walk does not spell its relator")
        degs = [edge_degree(self, e) for e in range(self.edge_count)]
        if any(d > 2 for d in degs):
            raise ValueError("an edge of a planar diagram lies in at most two face sides")
        if any(d == 0 for d in degs):
            raise ValueError("diagram has an edge outside every face")
        rim = sorted(ref_edge(r) for r in self.boundary)
        if rim != sorted(e for e, d in enumerate(degs) if d == 1):
            raise ValueError("boundary walk must cover each degree-1 edge exactly once")
        for a, b in zip(self.boundary, self.boundary[1:] + self.boundary[:1]):
            if self.ref_head(a) != self.ref_tail(b):
                raise ValueError("boundary is not a closed walk")
        if self.vertex_count - self.edge_count + self.face_count != 1:
            raise ValueError("diagram must be contractible (Euler characteristic 1)")

    @property
    def area(self) -> int:
        return len(self.faces)

    @property
    def boundary_length(self) -> int:
        return len(self.boundary)

    def boundary_word(self) -> Word:
        return walk_letters(self.boundary, self.letters)

    def relator_position(self, f: int) -> int:
        return self.labels[f] - 1


# ---------------------------------------------------------------------------
# functionals


def edge_degree(Y: TwoComplex, e: int) -> int:
    """Occurrences of edge ``e`` over all face walks, either orientation."""
    return sum(1 for walk in Y.faces for r in walk if ref_edge(r) == e)


def cancel(Y: TwoComplex) -> int:
    """Total edge excess sum((deg(e) - 1)+); counts forced identifications."""
    degs = [0] * Y.edge_count
    for walk in Y.faces:
        for r in walk:
            degs[ref_edge(r)] += 1
    return sum(d - 1 for d in degs if d > 1)


def _least_positions(Y: AbstractLabelledComplex) -> dict[int, dict[int, int]]:
    """edge -> {face -> least walk position of that edge in that face}."""
    inc: dict[int, dict[int, int]] = {}
    for f, walk in enumerate(Y.faces):
        for t, r in enumerate(walk):
            inc.setdefault(ref_edge(r), {}).setdefault(f, t)
    return inc


def is_least_position(Y: AbstractLabelledComplex, e: int, f: int) -> bool:
    """Does ``f`` hit ``e`` no later than every same-label face? (ties allowed)"""
    by_face = _least_positions(Y).get(e, {})
    if f not in by_face:
        return False
    mine = by_face[f]
    return all(
        mine <= pos
        for g, pos in by_face.items()
        if Y.labels[g] == Y.labels[f]
    )


def is_min_label(Y: AbstractLabelledComplex, e: int, f: int) -> bool:
    """Does ``f`` contain ``e`` and realize the minimal label among its faces?"""
    by_face = _least_positions(Y).get(e, {})
    if f not in by_face:
        return False
    return Y.labels[f] == min(Y.labels[g] for g in by_face)


def red_contributions(Y: AbstractLabelledComplex) -> list[int]:
    """Per-edge reducedness defect: tied least-position occurrences beyond one."""
    out = [0] * Y.edge_count
    for e, by_face in _least_positions(Y).items():
        per_label: dict[int, list[int]] = {}
        for f, pos in by_face.items():
            per_label.setdefault(Y.labels[f], []).append(pos)
        for positions in per_label.values():
            ties = positions.count(min(positions))
            out[e] += ties - 1
    return out


def red(Y: AbstractLabelledComplex) -> int:
    return sum(red_contributions(Y))


def forced_counts(walks: Sequence[Sequence[int]], labels: Sequence[int]) -> list[int]:
    """Forced-letter count of every face; ``walks[f]`` lists the edge ids
    (unsigned) along face ``f``, whose label is ``labels[f]``.

    A letter is free exactly when its face realizes the minimal label of its
    edge and is (one of) the earliest visitors of the edge with that label,
    i.e. when its (label, position) is the least over the edge's visits;
    repeated visits within a walk are never free.
    """
    least: dict[int, tuple[int, int]] = {}  # edge -> least (label, position)
    for walk, label in zip(walks, labels):
        for t, e in enumerate(walk):
            if e not in least or (label, t) < least[e]:
                least[e] = (label, t)
    return [
        len(walk) - sum(least[e] == (label, t) for t, e in enumerate(walk))
        for walk, label in zip(walks, labels)
    ]


def _complex_forced_counts(Y: AbstractLabelledComplex) -> list[int]:
    return forced_counts([[ref_edge(r) for r in walk] for walk in Y.faces], Y.labels)


def forced_letter_count(Y: AbstractLabelledComplex, f: int) -> int:
    """Letters of face ``f`` already pinned down when its label is processed
    (see :func:`forced_counts`)."""
    return _complex_forced_counts(Y)[f]


def label_forcing_levels(Y: AbstractLabelledComplex) -> list[tuple[int, int]]:
    """For each label value ``i``: the max forced-letter count among its faces."""
    levels: dict[int, int] = {}
    for i, forced in zip(Y.labels, _complex_forced_counts(Y)):
        levels[i] = max(levels.get(i, 0), forced)
    return sorted(levels.items())


def all_edges_in_faces(Y: TwoComplex) -> bool:
    used = {ref_edge(r) for walk in Y.faces for r in walk}
    return len(used) == Y.edge_count


def chain_report(Y: AbstractLabelledComplex) -> dict:
    """The inequality red + sum of forced counts >= cancel, with its pieces.

    Requires every edge to lie in at least one face.
    """
    if not all_edges_in_faces(Y):
        raise ValueError("chain inequality needs every edge inside a face")
    r = red(Y)
    c = cancel(Y)
    forced = sum(_complex_forced_counts(Y))
    return {"red": r, "cancel": c, "forced_sum": forced, "holds": r + forced >= c}


# ---------------------------------------------------------------------------
# reducedness of diagrams


def side_trace(word: Word, t: int, sign: int) -> Word:
    """The relator unrolled from a face's visit to an edge.

    ``word`` is what the face's walk spells, ``t`` the walk position of the
    visit and ``sign`` its direction.  Two face sides of an interior edge can
    be folded onto each other exactly when their traces coincide.
    """
    L = len(word)
    if sign > 0:
        return word[t:] + word[:t]
    rev = invert_word(word)  # what the reversed walk spells
    s = L - 1 - t  # the reversed walk meets the edge forward here
    return rev[s:] + rev[:s]


def _edge_sides(Y: LabelledComplex) -> dict[int, list[tuple[int, int, int]]]:
    """edge -> [(face, walk position, sign), ...] with multiplicity."""
    sides: dict[int, list[tuple[int, int, int]]] = {}
    for f, walk in enumerate(Y.faces):
        for t, r in enumerate(walk):
            sides.setdefault(ref_edge(r), []).append((f, t, 1 if r > 0 else -1))
    return sides


def is_reduced_diagram(D: VanKampenDiagram) -> bool:
    """No interior edge carries two mirror-image face sides.

    The test is word-level: it also catches distinct relator positions whose
    words are rotations or inverses of one another.
    """
    for e, sides in _edge_sides(D).items():
        if len(sides) != 2:
            continue
        (f1, t1, s1), (f2, t2, s2) = sides
        u1 = side_trace(D.face_word(f1), t1, s1)
        u2 = side_trace(D.face_word(f2), t2, s2)
        if u1 == u2:
            return False
    return True


# ---------------------------------------------------------------------------
# construction helpers


class UnionFind:
    """Disjoint sets of 0..n-1 with path halving; a merge keeps the smaller
    root, so the root of every class is its least member.  ``parent[x] == x``
    exactly when ``x`` is a root, which hot loops may test without a call."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def add(self) -> int:
        """A new singleton; returns its id."""
        x = len(self.parent)
        self.parent.append(x)
        return x

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Join the classes of a and b; returns the absorbed root, or -1 when
        they were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return -1
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return rb


class SignedUnionFind:
    """Union-find whose elements carry orientations, with undo.

    ``union(a, b, -1)`` identifies ``a`` with the reverse of ``b``; a merge
    that would force an element equal to its own reverse fails.  ``find``
    returns ``(root, sign of x relative to root)``.  Union by size without
    path compression keeps every merge a single link, so ``undo`` can cut
    the latest one.
    """

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.sign = [1] * n
        self.size = [1] * n
        self.absorbed: list[int] = []  # roots absorbed by successful merges

    def find(self, x: int) -> tuple[int, int]:
        parent, sign = self.parent, self.sign
        s = 1
        while parent[x] != x:
            s *= sign[x]
            x = parent[x]
        return x, s

    def union(self, a: int, b: int, rel: int) -> bool:
        """Identify a with rel*b; False when this forces a self-reversal."""
        parent, sign = self.parent, self.sign
        sa = sb = 1
        # find(a) and find(b), inlined: the inclusion-exclusion counter
        # calls this in its innermost loop
        while parent[a] != a:
            sa *= sign[a]
            a = parent[a]
        while parent[b] != b:
            sb *= sign[b]
            b = parent[b]
        if a == b:
            return sa * rel * sb == 1
        size = self.size
        if size[a] < size[b]:
            a, b = b, a
        # x = sa*a and y = sb*b for the original x, y, so x = rel*y links the
        # roots by sa*rel*sb, in either direction
        parent[b] = a
        sign[b] = sa * rel * sb
        size[a] += size[b]
        self.absorbed.append(b)
        return True

    def undo(self) -> None:
        """Reverse the latest successful merge not yet undone."""
        rb = self.absorbed.pop()
        self.size[self.parent[rb]] -= self.size[rb]
        self.parent[rb] = rb  # a root's sign is never read


def close_walks(edge_count: int, walks: Iterable[Walk]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex structure forced by requiring every walk to be a closed path.

    Endpoint slots 2e (tail) and 2e+1 (head) are merged wherever consecutive
    walk steps must share a vertex; unconstrained endpoints stay distinct.
    """
    uf = UnionFind(2 * edge_count)

    def tail_slot(ref: int) -> int:
        e = ref_edge(ref)
        return 2 * e if ref > 0 else 2 * e + 1

    def head_slot(ref: int) -> int:
        e = ref_edge(ref)
        return 2 * e + 1 if ref > 0 else 2 * e

    for walk in walks:
        for a, b in zip(walk, walk[1:] + walk[:1]):
            uf.union(head_slot(a), tail_slot(b))
    names: dict[int, int] = {}
    edges = []
    for e in range(edge_count):
        t = names.setdefault(uf.find(2 * e), len(names))
        h = names.setdefault(uf.find(2 * e + 1), len(names))
        edges.append((t, h))
    return len(names), tuple(edges)


def abstract_from_walks(walks: Sequence[Walk], labels: Sequence[int]) -> AbstractLabelledComplex:
    """Build a labelled complex from face walks alone (forced vertices)."""
    edge_count = max((abs(r) for walk in walks for r in walk), default=0)
    vertex_count, edges = close_walks(edge_count, walks)
    return AbstractLabelledComplex(
        vertex_count=vertex_count,
        edges=edges,
        faces=tuple(tuple(w) for w in walks),
        labels=tuple(labels),
    )


def random_abstract_complex(rng: random.Random, max_faces: int = 6) -> AbstractLabelledComplex:
    """A random small labelled complex with every edge inside a face.

    Face walks arise from a random partition of the walk slots into edges
    with random orientations, so shared, repeated and backward edges all
    occur; labels are a random surjection onto 1..n.
    """
    nf = rng.randint(1, max_faces)
    slots = 3 * nf
    k = rng.randint(1, slots)
    class_of = [rng.randrange(k) for _ in range(slots)]
    # normalize class ids to 0..k-1 in order of first appearance
    remap: dict[int, int] = {}
    first_slot: dict[int, int] = {}
    refs = []
    for s, c in enumerate(class_of):
        if c not in remap:
            remap[c] = len(remap)
            first_slot[remap[c]] = s
        e = remap[c]
        sign = 1 if first_slot[e] == s else rng.choice((1, -1))
        refs.append(sign * (e + 1))
    walks = [tuple(refs[3 * f : 3 * f + 3]) for f in range(nf)]
    n_labels = rng.randint(1, nf)
    labels = list(range(1, n_labels + 1)) + [
        rng.randint(1, n_labels) for _ in range(nf - n_labels)
    ]
    rng.shuffle(labels)
    return abstract_from_walks(walks, labels)


def glue_complexes(
    parts: Sequence[LabelledComplex],
    identifications: Sequence[tuple[tuple[int, Walk], tuple[int, Walk]]],
) -> LabelledComplex:
    """Disjoint union of ``parts`` with paths identified pairwise.

    Each identification is ``((part_a, path_a), (part_b, path_b))`` where the
    paths are signed edge references of equal length spelling identical
    letters; corresponding oriented edges (and hence their endpoints) are
    merged.  Faces are never merged.
    """
    edge_base = [0]
    vert_base = [0]
    for P in parts:
        edge_base.append(edge_base[-1] + P.edge_count)
        vert_base.append(vert_base[-1] + P.vertex_count)

    def g_edge(part: int, ref: int) -> int:
        return ref_edge(ref) + edge_base[part]

    suf = SignedUnionFind(edge_base[-1])
    uf_v = UnionFind(vert_base[-1])

    total_edges: list[tuple[int, int]] = []
    total_letters: list[int] = []
    for pi, P in enumerate(parts):
        for (t, h), letter in zip(P.edges, P.letters):
            total_edges.append((t + vert_base[pi], h + vert_base[pi]))
            total_letters.append(letter)

    for (pa, path_a), (pb, path_b) in identifications:
        if len(path_a) != len(path_b):
            raise ValueError("identified paths must have equal length")
        wa = walk_letters(path_a, parts[pa].letters)
        wb = walk_letters(path_b, parts[pb].letters)
        if wa != wb:
            raise ValueError(f"identified paths spell {wa} vs {wb}")
        for ra, rb in zip(path_a, path_b):
            rel = 1 if (ra > 0) == (rb > 0) else -1
            if not suf.union(g_edge(pa, ra), g_edge(pb, rb), rel):
                raise ValueError("gluing forces an edge onto its own reverse")
            uf_v.union(
                parts[pa].ref_tail(ra) + vert_base[pa],
                parts[pb].ref_tail(rb) + vert_base[pb],
            )
            uf_v.union(
                parts[pa].ref_head(ra) + vert_base[pa],
                parts[pb].ref_head(rb) + vert_base[pb],
            )

    vert_name: dict[int, int] = {}
    for v in range(vert_base[-1]):
        vert_name.setdefault(uf_v.find(v), len(vert_name))

    edge_name: dict[int, int] = {}
    new_edges: list[tuple[int, int]] = []
    new_letters: list[int] = []
    for e in range(edge_base[-1]):
        root, rel = suf.find(e)
        if total_letters[e] != rel * total_letters[root]:
            raise ValueError("gluing merges edges with incompatible letters")
        if root not in edge_name:
            edge_name[root] = len(new_edges)
            t, h = total_edges[root]
            new_edges.append((vert_name[uf_v.find(t)], vert_name[uf_v.find(h)]))
            new_letters.append(total_letters[root])

    faces: list[Walk] = []
    labels: list[int] = []
    for pi, P in enumerate(parts):
        for f, walk in enumerate(P.faces):
            new_walk = []
            for ref in walk:
                root, rel = suf.find(g_edge(pi, ref))
                sign = (1 if ref > 0 else -1) * rel
                new_walk.append(sign * (edge_name[root] + 1))
            faces.append(tuple(new_walk))
            labels.append(P.labels[f])

    return LabelledComplex(
        vertex_count=len(vert_name),
        edges=tuple(new_edges),
        faces=tuple(faces),
        labels=tuple(labels),
        letters=tuple(new_letters),
    )


# ---------------------------------------------------------------------------
# JSON interchange


def complex_to_json(Y: AbstractLabelledComplex) -> dict:
    obj = {
        "vertices": Y.vertex_count,
        "edges": [[t, h] for t, h in Y.edges],
        "faces": [
            {"index": Y.labels[f], "boundary": list(Y.faces[f])}
            for f in range(Y.face_count)
        ],
    }
    if isinstance(Y, LabelledComplex):
        obj["letters"] = list(Y.letters)
    return obj


def complex_from_json(obj: dict) -> AbstractLabelledComplex:
    """Parse :func:`complex_to_json` output; a malformed field raises a
    ValueError that names it."""

    def ints(value: object, field: str) -> tuple[int, ...]:
        return tuple(json_int(x, field) for x in json_list(value, field))

    edges = tuple(ints(pair, "'edges' entry") for pair in json_list(obj["edges"], "'edges'"))
    if any(len(pair) != 2 for pair in edges):
        raise ValueError("'edges' entries must be [tail, head] pairs")
    faces = json_list(obj["faces"], "'faces'")
    for i, fc in enumerate(faces):
        if not isinstance(fc, dict) or "index" not in fc or "boundary" not in fc:
            raise ValueError(f"face {i} needs fields 'index' and 'boundary'")
    common = dict(
        vertex_count=json_count(obj["vertices"], "'vertices'"),
        edges=edges,
        faces=tuple(ints(fc["boundary"], f"'boundary' of face {i}") for i, fc in enumerate(faces)),
        labels=tuple(json_int(fc["index"], f"'index' of face {i}") for i, fc in enumerate(faces)),
    )
    if "letters" in obj:
        return LabelledComplex(letters=ints(obj["letters"], "'letters'"), **common)
    return AbstractLabelledComplex(**common)


def dumps_complex(Y: AbstractLabelledComplex) -> str:
    return json.dumps(complex_to_json(Y), indent=2, sort_keys=True) + "\n"
