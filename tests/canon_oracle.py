"""The recursive canonical form, kept as the oracle for the level-synchronous one.

``_canonical`` here is the form ``trigroup.enumeration`` computed before its
roots advanced together: every one of the 2·|∂D| boundary roots is encoded to
full depth by ``_encode_faces`` (ties explored exhaustively), and the least
encoding wins.  ``_translate`` and ``_encode_faces`` are unchanged from that
version; ``_canonical``'s loop over the roots is ``_roots``.
``tied_roots`` counts the roots that tie for the least first face key.
"""

from __future__ import annotations

from trigroup.complexes import Walk
from trigroup.enumeration import _State


def _translate(walk: Walk, rot: int, ids: dict) -> tuple[tuple[int, ...], dict]:
    """Rewrite a face walk in canonical edge ids, minting provisional ids
    (in traversal order, first crossing taken as the forward orientation)."""
    local: dict[int, tuple[int, int]] = {}
    out = []
    nxt = len(ids) + 1
    for j in range(3):
        r = walk[(rot + j) % 3]
        e = abs(r)
        hit = ids.get(e) or local.get(e)
        if hit is None:
            local[e] = (nxt, 1 if r > 0 else -1)
            out.append(nxt)
            nxt += 1
        else:
            nid, sg = hit
            out.append(nid * sg * (1 if r > 0 else -1))
    return tuple(out), local


def _encode_faces(ids: dict, remaining: tuple[int, ...], faces) -> tuple:
    if not remaining:
        return ()
    candidates = []
    for f in remaining:
        walk, label = faces[f]
        for rot in range(3):
            if abs(walk[rot]) not in ids:
                continue
            key, local = _translate(walk, rot, ids)
            candidates.append(((key, label), f, local))
    best_key = min(c[0] for c in candidates)
    best = None
    for ckey, f, local in candidates:
        if ckey != best_key:
            continue
        sub_ids = dict(ids)
        sub_ids.update(local)
        enc = (ckey,) + _encode_faces(
            sub_ids, tuple(g for g in remaining if g != f), faces
        )
        if best is None or enc < best:
            best = enc
    return best


def _roots(boundary: Walk):
    """The boundary edge ids of each of the 2·|∂D| roots, forwards first."""
    B = len(boundary)
    for direction in (1, -1):
        for root in range(B):
            if direction == 1:
                bwalk = tuple(boundary[(root + j) % B] for j in range(B))
            else:
                bwalk = tuple(-boundary[(root - j) % B] for j in range(B))
            ids: dict[int, tuple[int, int]] = {}
            for ref in bwalk:
                e = abs(ref)
                if e not in ids:
                    ids[e] = (len(ids) + 1, 1 if ref > 0 else -1)
            yield ids


def _canonical(state: _State) -> tuple:
    faces, boundary = state[1], state[2]
    best = None
    for ids in _roots(boundary):
        enc = (len(boundary),) + _encode_faces(ids, tuple(range(len(faces))), faces)
        if best is None or enc < best:
            best = enc
    return best


def tied_roots(state: _State) -> int:
    """How many roots read the least first face key over all roots."""
    faces, boundary = state[1], state[2]
    firsts = [
        min(
            (_translate(walk, rot, ids)[0], label)
            for walk, label in faces
            for rot in range(3)
            if abs(walk[rot]) in ids
        )
        for ids in _roots(boundary)
    ]
    return firsts.count(min(firsts))
