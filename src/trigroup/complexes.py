"""Labelled combinatorial 2-complexes and their cancellation functionals.

A face's boundary walk is a tuple of signed 1-based edge references
(``+k`` traverses edge ``k-1`` forward, ``-k`` backward); the walk is part of
the data, so rotating it gives a different complex.  Faces carry positive
integer labels.  On top of the structure this module computes:

* ``degrees`` - occurrences of each edge over all walks, with
  multiplicity, counted by the validator of every complex;
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
from typing import Iterable, Sequence

from .presentation import (
    TriangularPresentation,
    json_count,
    json_int,
    json_list,
    json_require,
)
from .words import Word, invert_word

Walk = tuple[int, ...]


def ref_edge(ref: int) -> int:
    """0-based edge index of a signed reference."""
    return abs(ref) - 1


class AbstractLabelledComplex:
    """Vertices 0..vertex_count-1, edges as (tail, head), faces as walks, and
    a positive integer label per face.  ``degrees[e]`` counts the walk
    references to edge ``e``, either orientation, with multiplicity."""

    __slots__ = ("vertex_count", "edges", "faces", "labels", "degrees")

    def __init__(
        self,
        vertex_count: int,
        edges: tuple[tuple[int, int], ...],
        faces: tuple[Walk, ...],
        labels: tuple[int, ...],
    ) -> None:
        # the validators read edges and letters inline, without method calls:
        # enumeration validates a diagram per emitted search state
        self.vertex_count = n = vertex_count
        self.edges = edges
        self.faces = faces
        self.labels = labels
        E = len(edges)
        self.degrees = degs = [0] * E
        for t, h in edges:
            if not (0 <= t < n and 0 <= h < n):
                raise ValueError("edge endpoint out of range")
        for walk in faces:
            if not walk:
                raise ValueError("empty face walk")
            for r in walk:
                if r == 0 or not -E <= r <= E:
                    raise ValueError(f"bad edge reference {r}")
                degs[abs(r) - 1] += 1
            # the head of each step is the tail of the next, cyclically
            a = walk[-1]
            for b in walk:
                head = edges[a - 1][1] if a > 0 else edges[-a - 1][0]
                if head != (edges[b - 1][0] if b > 0 else edges[-b - 1][1]):
                    raise ValueError(f"walk {walk} is not a closed path")
                a = b
        if len(labels) != len(faces):
            raise ValueError("one label per face required")
        if min(labels, default=1) < 1:
            raise ValueError("labels must be positive")

    def __eq__(self, other: object) -> bool:
        # the same class and every field equal, the subclasses' fields included
        return type(other) is type(self) and all(
            getattr(self, f) == getattr(other, f)
            for c in type(self).__mro__[:-1]
            for f in c.__slots__
        )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)


class LabelledComplex(AbstractLabelledComplex):
    """A labelled complex whose edges also carry letters.

    ``letters[e]`` is the letter code read along the forward orientation of
    edge ``e``; the backward orientation reads its negation.
    """

    __slots__ = ("letters",)

    def __init__(self, vertex_count, edges, faces, labels, letters: tuple[int, ...]) -> None:
        AbstractLabelledComplex.__init__(self, vertex_count, edges, faces, labels)
        self.letters = letters
        if len(letters) != len(edges):
            raise ValueError("one letter per edge required")
        if 0 in letters:
            raise ValueError("letter codes must be nonzero")


class VanKampenDiagram(LabelledComplex):
    """A planar contractible diagram bound to a presentation.

    Labels are 1-based relator positions (label ``i`` spells relator ``i-1``),
    ``boundary`` is the outer walk (diagram interior kept on its left).
    """

    __slots__ = ("presentation", "boundary")

    def __init__(
        self, vertex_count, edges, faces, labels, letters,
        presentation: TriangularPresentation, boundary: Walk,
    ) -> None:
        LabelledComplex.__init__(self, vertex_count, edges, faces, labels, letters)
        self.presentation = presentation
        self.boundary = boundary
        rels = presentation.relators
        for f, (walk, label) in enumerate(zip(faces, labels)):
            if not 0 < label <= len(rels):
                raise ValueError(f"face {f} labelled with unknown relator position")
            spelled = tuple([letters[r - 1] if r > 0 else -letters[-r - 1] for r in walk])
            if spelled != rels[label - 1]:
                raise ValueError(f"face {f} walk does not spell its relator")
        degs = self.degrees
        if max(degs, default=0) > 2:
            raise ValueError("an edge of a planar diagram lies in at most two face sides")
        if 0 in degs:
            raise ValueError("diagram has an edge outside every face")
        rim = sorted([abs(r) - 1 for r in boundary])
        if rim != [e for e, d in enumerate(degs) if d == 1]:
            raise ValueError("boundary walk must cover each degree-1 edge exactly once")
        a = boundary[-1] if boundary else 0
        for b in boundary:
            head = edges[a - 1][1] if a > 0 else edges[-a - 1][0]
            if head != (edges[b - 1][0] if b > 0 else edges[-b - 1][1]):
                raise ValueError("boundary is not a closed walk")
            a = b
        # the ends are given, not derived: a vertex id that no edge names
        # would pass the Euler count below in place of a merged pair
        if len({v for ends in edges for v in ends}) != vertex_count:
            raise ValueError("diagram has a vertex on no edge")
        if vertex_count - len(edges) + len(faces) != 1:
            raise ValueError("diagram must be contractible (Euler characteristic 1)")

    @property
    def area(self) -> int:
        return len(self.faces)

    @property
    def boundary_length(self) -> int:
        return len(self.boundary)


# ---------------------------------------------------------------------------
# functionals


def cancel(Y: AbstractLabelledComplex) -> int:
    """Total edge excess sum((deg(e) - 1)+); counts forced identifications."""
    return sum(d - 1 for d in Y.degrees if d > 1)


def _least_positions(Y: AbstractLabelledComplex) -> dict[int, dict[int, int]]:
    """edge -> {face -> least walk position of that edge in that face}."""
    inc: dict[int, dict[int, int]] = {}
    for f, walk in enumerate(Y.faces):
        for t, r in enumerate(walk):
            inc.setdefault(ref_edge(r), {}).setdefault(f, t)
    return inc


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


def edges_in_no_face(Y: AbstractLabelledComplex) -> list[int]:
    """Edges that no face walk traverses, in index order."""
    return [e for e, d in enumerate(Y.degrees) if not d]


def chain_report(Y: AbstractLabelledComplex) -> dict:
    """The inequality red + sum of forced counts >= cancel, with its pieces.

    Requires every edge to lie in at least one face.
    """
    if edges_in_no_face(Y):
        raise ValueError("chain inequality needs every edge inside a face")
    r = red(Y)
    c = cancel(Y)
    forced = sum(forced_counts([[ref_edge(ref) for ref in walk] for walk in Y.faces], Y.labels))
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


def is_reduced_diagram(D: VanKampenDiagram) -> bool:
    """No interior edge carries two mirror-image face sides.

    The test is word-level: it also catches distinct relator positions whose
    words are rotations or inverses of one another.  Each face spells the
    relator its label names, as the diagram's validator checked.
    """
    relators = D.presentation.relators
    traces: dict[int, list[Word]] = {}  # edge -> the traces of its face sides
    for walk, label in zip(D.faces, D.labels):
        word = relators[label - 1]
        for t, r in enumerate(walk):
            traces.setdefault(ref_edge(r), []).append(side_trace(word, t, 1 if r > 0 else -1))
    return all(len(sides) != 2 or sides[0] != sides[1] for sides in traces.values())


# ---------------------------------------------------------------------------
# construction helpers


def close_walks(edge_count: int, walks: Iterable[Walk]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex structure forced by requiring every walk to be a closed path.

    Endpoint slots 2e (tail) and 2e+1 (head) are merged wherever consecutive
    walk steps must share a vertex; unconstrained endpoints stay distinct.
    A reference 0 or beyond ``edge_count`` raises ``ValueError``.
    """
    # a union-find over the slots, inlined: chain-check closes the walks of
    # every sampled complex.  A merge keeps the smaller root, so one
    # ascending pass resolves every slot to its root at the end.
    slots = 2 * edge_count
    root = list(range(slots))
    for walk in walks:
        if not walk:
            continue
        a = walk[-1]
        if a == 0 or not -edge_count <= a <= edge_count:
            raise ValueError(f"bad edge reference {a}")
        for b in walk:
            # head slot of step a, tail slot of step b
            x = 2 * a - 1 if a > 0 else -2 * a - 2
            y = 2 * b - 2 if b > 0 else -2 * b - 1
            if not 0 <= y < slots:  # b is 0 (y = -1) or beyond edge_count
                raise ValueError(f"bad edge reference {b}")
            while root[x] != x:
                x = root[x]
            while root[y] != y:
                y = root[y]
            if x < y:
                root[y] = x
            elif y < x:
                root[x] = y
            a = b
    names: dict[int, int] = {}
    for x, r in enumerate(root):
        root[x] = root[r]
        names.setdefault(root[x], len(names))
    ids = [names[r] for r in root]
    return len(names), tuple(zip(ids[::2], ids[1::2]))


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

    json_require(obj, ("vertices", "edges", "faces"))
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
