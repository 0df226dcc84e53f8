"""Exhaustive generation of reduced disc diagrams over a presentation.

Diagrams are grown face by face along the boundary (shelling): a new triangle
is glued onto an arc of 1 or 2 consecutive boundary edges, in either
orientation.  Gluing along all 3 would either close a sphere or need a
non-simple boundary, so these two moves reach every disc diagram with simple
boundary, every intermediate stage being one as well.  Non-reduced gluings are
pruned immediately (a subdiagram of a reduced diagram is reduced, so nothing
is lost).

Duplicates are removed by a rooted canonical form: the encoding is minimized
over all boundary basepoints and both directions, which also identifies
mirror images, and faces are numbered boundary-first with ties explored
exhaustively.  The minimization is level-synchronous: every root advances
one face position at a time, and only the partial encodings whose next face
key equals that position's minimum go on, so a losing root is dropped at its
first worse key instead of being encoded to full depth.  Every key reads a
boundary edge's id off its position and sign under the root, so no map over
the boundary is built; a partial encoding keeps ids only for the edges off
the boundary that it has minted.  Gluings are checked for reducedness against
a table of side traces built once per enumeration.  Output is deterministic:
by face count, then canonical form.

Each level keeps, per canonical form, the first state that reaches it, and
grows its states in sorted order.  At the first step, a one-face seed glues
only relators whose seed the loop visits at or after it, the one case of
canonical augmentation (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998) that is exact here.  A two-face diagram whose seeds rank
r1 <= r2 is first reached from seed r1 gluing relator r2; its growth from seed
r2 comes later, and the level would drop it.  So the two-face level, its
representatives and their order are unchanged, and every later level with
them.  This needs only a key that holds the label, so that each seed is a
class of its own, and is invariant under renaming edges: the present key, or
one that also reads letters, under which each two-face class is still grown
from its earlier seed.  Later steps skip nothing: a letter-blind
representative need not regrow its whole class.

Every emitted diagram is a validated ``VanKampenDiagram``, and
``isoperimetric_report`` reads its rows off those diagrams, so each row has
passed every check of the validator.  ``cancel`` is counted from the edge
degrees, not derived from area and boundary, so ``identity_holds`` compares
an independent count against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .complexes import VanKampenDiagram, Walk, cancel, close_walks, side_trace
from .presentation import TriangularPresentation, sample_presentation
from .seeding import derive_seed

# a search state: (letters per edge, ((walk, label), ...), boundary walk)
_State = tuple[tuple[int, ...], tuple[tuple[Walk, int], ...], Walk]


class DiagramBudget:
    __slots__ = ("max_faces", "presentation", "epsilon")

    def __init__(
        self,
        max_faces: int,
        presentation: TriangularPresentation,
        epsilon: Fraction = Fraction(1, 100),
    ) -> None:
        self.max_faces = max_faces
        self.presentation = presentation
        self.epsilon = epsilon
        if max_faces < 1:
            raise ValueError("max_faces must be at least 1")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")


def _attach(
    state: _State,
    pos: int,
    k: int,
    rel_pos: int,
    start: int,
    mirror: bool,
    relators,
    traces,
) -> _State | None:
    """Glue a new face spelling relator ``rel_pos`` onto the boundary arc of
    length ``k`` at ``pos``, the glued block occupying word slots
    ``start..start+k-1``; None when letters clash or reducedness fails.
    ``traces`` is ``_trace_table(relators)``."""
    letters, faces, boundary = state
    B = len(boundary)
    if k > B:
        return None
    arc = (boundary + boundary)[pos : pos + k]
    word = relators[rel_pos]
    block = arc if mirror else tuple([-r for r in reversed(arc)])
    walk = [0, 0, 0]
    for j, r in enumerate(block):
        slot = (start + j) % 3
        if (letters[r - 1] if r > 0 else -letters[-r - 1]) != word[slot]:
            return None
        walk[slot] = r
    # reducedness across each newly interior edge, read off the one face
    # slot that holds it (a boundary edge lies in exactly one)
    mine = traces[rel_pos]
    for j, r in enumerate(block):
        e = abs(r)
        for old_walk, old_label in faces:
            if e in old_walk or -e in old_walk:
                break
        else:
            raise AssertionError("boundary edge missing from every face")
        t_old = old_walk.index(e) if e in old_walk else old_walk.index(-e)
        theirs = traces[old_label - 1][2 * t_old + (old_walk[t_old] < 0)]
        if theirs == mine[2 * ((start + j) % 3) + (r < 0)]:
            return None
    new_letters = list(letters)
    fresh: list[int] = []
    for j in range(k, 3):
        slot = (start + j) % 3
        new_letters.append(word[slot])
        ref = len(new_letters)
        walk[slot] = ref
        fresh.append(ref)
    path = tuple(fresh) if not mirror else tuple([-r for r in reversed(fresh)])
    keep = (boundary + boundary)[pos + k : pos + B]
    return (
        tuple(new_letters),
        faces + ((tuple(walk), rel_pos + 1),),
        path + keep,
    )


# ---------------------------------------------------------------------------
# canonical form


def _canonical(state: _State) -> tuple:
    """The least encoding over all 2·|∂D| roots, found level by level.

    A root (a basepoint and a direction) numbers the boundary edges
    1..|∂D| in its traversal order, the first crossing fixing each edge's
    orientation.  The encoding is ``(|∂D|, k_1, ..., k_F)``, where
    ``k_i = ((x, y, z), label)`` is the least key of an unencoded face read
    from a rotation whose first edge already has an id, new edges being
    minted in traversal order.  Every encoding has the same length, so the
    minimum is fixed position by position: all roots advance together, and
    only the partial encodings whose next key equals that position's minimum
    go on, ties kept exhaustively.  A losing root drops out at its first
    worse key, and the last position keeps only its least key.

    No key builds a map over the boundary.  Under the root that reads the
    boundary backwards from position i-1 (d = -1) or forwards from i+1
    (d = 1), the edge at position p has the signed id
    ``((d·(p-i) - 1) mod |∂D| + 1)·d·sign(p)``, read off positions and signs.
    A partial encoding carries its root (i, d) and a small dict of the ids
    minted for edges off the boundary.  The boundary crosses each edge once,
    so a face rotation starting on the boundary edge at position i reaches
    the least first entry, -|∂D|, from exactly one root: (i, -1) when the
    face crosses the edge in the boundary's direction, (i, 1) otherwise.
    Position 1 is keyed from those roots alone.  A boundary that crosses an
    edge twice, or a face that uses one twice, is refused.
    """
    _, faces, boundary = state
    B, F = len(boundary), len(faces)
    where = {abs(r): p for p, r in enumerate(boundary)}
    if len(where) != B:
        raise ValueError("the boundary crosses an edge twice")
    signs = [1 if r > 0 else -1 for r in boundary]
    # every (face bit, label, rotated walk, its edges), computed once
    turns = []
    for f, ((a, b, c), label) in enumerate(faces):
        ea, eb, ec = abs(a), abs(b), abs(c)
        if ea == eb or eb == ec or ec == ea:
            raise ValueError("a face uses an edge twice")
        bit = 1 << f
        turns += (
            (bit, label, a, b, c, ea, eb, ec),
            (bit, label, b, c, a, eb, ec, ea),
            (bit, label, c, a, b, ec, ea, eb),
        )
    # partial encodings that extend: (root position, root direction, edge off
    # the boundary -> signed id, bitmask of encoded faces, the face rotation
    # just encoded); at position 1 none has minted an id yet
    unminted: dict[int, int] = {}
    best = None
    ties: list = []
    for turn in turns:
        _, label, a, b, c, ea, eb, ec = turn
        i = where.get(ea)
        if i is None:
            continue
        d = -1 if (a > 0) == (boundary[i] > 0) else 1
        # an edge off the boundary gets the next id, signed by this crossing
        n = B
        p = where.get(eb)
        if p is None:
            n += 1
            sb = n if b > 0 else -n
        else:
            sb = ((d * (p - i) - 1) % B + 1) * d * signs[p]
        q = where.get(ec)
        if q is None:
            n += 1
            sc = n if c > 0 else -n
        else:
            sc = ((d * (q - i) - 1) % B + 1) * d * signs[q]
        key = (-B, sb if b > 0 else -sb, sc if c > 0 else -sc, label)
        if best is None or key < best:
            best = key
            ties = []
        if key == best:
            ties.append((i, d, unminted, 0, turn))
    encoding: list = [B, (best[:3], best[3])]
    for depth in range(2, F + 1):
        more = depth < F  # nothing extends the last position's ties
        best = None
        extend, ties = ties, []
        for i, d, minted, used, (bit, _, _, b, c, _, eb, ec) in extend:
            # mint ids for the edges off the boundary that the face just
            # encoded reached first, copying the dict its siblings share
            top = B + len(minted)
            new_b = eb not in where and eb not in minted
            new_c = ec not in where and ec not in minted
            if new_b or new_c:
                minted = dict(minted)
                if new_b:
                    top += 1
                    minted[eb] = top if b > 0 else -top
                if new_c:
                    top += 1
                    minted[ec] = top if c > 0 else -top
            used |= bit
            for turn in turns:
                if used & turn[0]:
                    continue
                _, label, a, b, c, ea, eb, ec = turn
                p = where.get(ea)
                if p is None:
                    sa = minted.get(ea)
                    if sa is None:
                        continue
                else:
                    sa = ((d * (p - i) - 1) % B + 1) * d * signs[p]
                x = sa if a > 0 else -sa
                if best is not None and x > best[0]:
                    continue
                n = top
                p = where.get(eb)
                if p is None:
                    sb = minted.get(eb)
                    if sb is None:
                        n += 1
                        sb = n if b > 0 else -n
                else:
                    sb = ((d * (p - i) - 1) % B + 1) * d * signs[p]
                p = where.get(ec)
                if p is None:
                    sc = minted.get(ec)
                    if sc is None:
                        n += 1
                        sc = n if c > 0 else -n
                else:
                    sc = ((d * (p - i) - 1) % B + 1) * d * signs[p]
                key = (x, sb if b > 0 else -sb, sc if c > 0 else -sc, label)
                if best is None or key < best:
                    best = key
                    ties = []
                if more and key == best:
                    ties.append((i, d, minted, used, turn))
        encoding.append((best[:3], best[3]))
    return tuple(encoding)


def _to_diagram(state: _State, presentation: TriangularPresentation) -> VanKampenDiagram:
    letters, faces, boundary = state
    walks, labels = zip(*faces)
    vertex_count, edges = close_walks(len(letters), walks)
    return VanKampenDiagram(
        vertex_count=vertex_count,
        edges=edges,
        faces=walks,
        labels=labels,
        letters=letters,
        presentation=presentation,
        boundary=boundary,
    )


def _slot_index(relators) -> dict[int, list[tuple[int, int]]]:
    """letter -> [(relator position, slot), ...] in deterministic order."""
    index: dict[int, list[tuple[int, int]]] = {}
    for p, word in enumerate(relators):
        for s, c in enumerate(word):
            index.setdefault(c, []).append((p, s))
    return index


def _trace_table(relators) -> list[tuple]:
    """relator position -> its six side traces: word slot t read forwards
    at 2t and backwards at 2t+1."""
    return [tuple([side_trace(w, t, s) for t in range(3) for s in (1, -1)]) for w in relators]


def _grow(state: _State, relators, index, traces, ranks=None, least=0) -> Iterator[_State]:
    """Every legal single-face extension, in deterministic order.

    Candidate faces are looked up by the letter the glued block must start
    with, so work scales with matches rather than with the relator count.
    A candidate spelling relator position p is skipped, before any gluing
    is tried, when ``ranks[p] < least``; ``least`` 0 skips none.  An arc
    longer than the boundary (k = 2 on one edge) reaches ``_attach``, which
    refuses it."""
    letters, _, boundary = state
    B = len(boundary)
    rim = [letters[r - 1] if r > 0 else -letters[-r - 1] for r in boundary]
    for pos in range(B):
        for k in (1, 2):
            for mirror in (False, True):
                if mirror:
                    # block starts with the arc's first ref as-is
                    want = rim[pos]
                else:
                    # block is the arc reversed and negated
                    want = -rim[(pos + k - 1) % B]
                for rel_pos, start in index.get(want, ()):
                    if least and ranks[rel_pos] < least:
                        continue
                    grown = _attach(state, pos, k, rel_pos, start, mirror, relators, traces)
                    if grown is not None:
                        yield grown


def enumerate_reduced_diagrams(budget: DiagramBudget) -> Iterator[VanKampenDiagram]:
    """All reduced disc diagrams with at most ``budget.max_faces`` faces,
    exactly once per labelled combinatorial isomorphism class.

    A seed's rank is its place in the sorted one-face level, the order in
    which the first step visits it (today the relator position, since seed
    keys differ only in the label).  Seed r glues only relators whose seeds
    rank r or later: every two-face class is first reached from its earlier
    seed, so the skipped growths are exactly the later ones that
    ``setdefault`` would drop, under the present key and under one that
    also reads letters."""
    presentation = budget.presentation
    relators = presentation.relators
    index = _slot_index(relators)
    traces = _trace_table(relators)
    level: dict[tuple, _State] = {}
    for p, word in enumerate(relators):
        state: _State = (tuple(word), (((1, 2, 3), p + 1),), (1, 2, 3))
        level.setdefault(_canonical(state), state)
    # each relator position's seed rank, in the order the loop visits seeds
    ranks = [0] * len(relators)
    for r, canon in enumerate(sorted(level)):
        ranks[level[canon][1][0][1] - 1] = r
        yield _to_diagram(level[canon], presentation)
    for depth in range(1, budget.max_faces):
        nxt: dict[tuple, _State] = {}
        for r, canon in enumerate(sorted(level)):
            # seed r glues only relators whose seeds rank r or later
            least = r if depth == 1 else 0
            for grown in _grow(level[canon], relators, index, traces, ranks, least):
                nxt.setdefault(_canonical(grown), grown)
        level = nxt
        for canon in sorted(level):
            yield _to_diagram(level[canon], presentation)


def euler_check(D: VanKampenDiagram) -> bool:
    """V = 1 + (|D| + |bD|)/2 and E = (3|D| + |bD|)/2 (disc bookkeeping)."""
    if not isinstance(D, VanKampenDiagram):
        raise TypeError("euler_check needs a disc diagram")
    area, rim = D.area, D.boundary_length
    return (
        2 * D.vertex_count == 2 + area + rim
        and 2 * D.edge_count == 3 * area + rim
    )


def isoperimetric_report(budget: DiagramBudget) -> dict:
    """Both displayed inequalities and their equivalence on every diagram.

    The area form cancel(D) <= 3(d+eps)|D| and the boundary form
    |bD| >= 3(1-2d-2eps)|D| are computed independently, as integer
    cross-multiplications, and must agree diagram by diagram, via the
    identity 3|D| = |bD| + 2 cancel(D).  ``identity_holds`` checks that
    identity with cancel(D) counted from the edge degrees.
    """
    d = budget.presentation.density
    eps = budget.epsilon
    cancel_rate = 3 * (d + eps)
    boundary_rate = 3 * (1 - 2 * d - 2 * eps)
    c_num, c_den = cancel_rate.numerator, cancel_rate.denominator
    b_num, b_den = boundary_rate.numerator, boundary_rate.denominator
    rows = []
    violations = 0
    identity_ok = True
    equivalence_ok = True
    for D in enumerate_reduced_diagrams(budget):
        c = cancel(D)
        area, rim = D.area, D.boundary_length
        cancel_ok = c * c_den <= c_num * area
        boundary_ok = rim * b_den >= b_num * area
        if not cancel_ok:
            violations += 1
        identity_ok = identity_ok and 3 * area == rim + 2 * c
        equivalence_ok = equivalence_ok and cancel_ok == boundary_ok
        rows.append(
            {
                "area": area,
                "boundary_length": rim,
                "cancel": c,
                "cancel_ok": cancel_ok,
                "boundary_ok": boundary_ok,
            }
        )
    return {
        "m": budget.presentation.m,
        "density": str(d),
        "epsilon": str(eps),
        "max_faces": budget.max_faces,
        "diagrams": rows,
        "total": len(rows),
        "violations": violations,
        "identity_holds": identity_ok,
        "equivalence_holds": equivalence_ok,
        "violation_frequency": str(Fraction(violations, len(rows))) if rows else "0",
    }


def sampled_violation_trend(
    m_values: Sequence[int],
    d: Fraction,
    epsilon: Fraction,
    max_faces: int,
    presentations: int,
    seed: int,
) -> dict:
    """Violation counts of the area-form inequality across sampled
    presentations, per m; the desk-scale shadow of the asymptotic claim."""
    per_m = []
    for m in m_values:
        diagrams = 0
        bad_diagrams = 0
        bad_presentations = 0
        for i in range(presentations):
            pres = sample_presentation(m, d, derive_seed(seed, "isop", m, i))
            rep = isoperimetric_report(DiagramBudget(max_faces, pres, epsilon))
            diagrams += rep["total"]
            bad_diagrams += rep["violations"]
            if rep["violations"]:
                bad_presentations += 1
        per_m.append(
            {
                "m": m,
                "presentations": presentations,
                "diagrams": diagrams,
                "violating_diagrams": bad_diagrams,
                "violating_presentations": bad_presentations,
                "frequency": str(Fraction(bad_diagrams, diagrams)) if diagrams else "0",
            }
        )
    return {
        "density": str(d),
        "epsilon": str(epsilon),
        "max_faces": max_faces,
        "per_m": per_m,
    }
