"""The per-edge indicator predicates behind the forced-letter count, kept as
the oracle for ``trigroup.complexes.forced_counts``.

A face ``f`` keeps edge ``e`` free when it realizes the least label among the
faces through ``e`` and reaches ``e`` no later than every face of its label;
``forced_counts`` computes the same thing for all faces at once.  Nothing in
the package calls these two, so they live with the tests.
"""

from __future__ import annotations

from trigroup.complexes import AbstractLabelledComplex, ref_edge


def _least_positions(Y: AbstractLabelledComplex, e: int) -> dict[int, int]:
    """face -> least walk position of edge ``e`` in that face."""
    by_face: dict[int, int] = {}
    for f, walk in enumerate(Y.faces):
        for t, r in enumerate(walk):
            if ref_edge(r) == e:
                by_face.setdefault(f, t)
    return by_face


def is_least_position(Y: AbstractLabelledComplex, e: int, f: int) -> bool:
    """Does ``f`` hit ``e`` no later than every same-label face? (ties allowed)"""
    by_face = _least_positions(Y, e)
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
    by_face = _least_positions(Y, e)
    if f not in by_face:
        return False
    return Y.labels[f] == min(Y.labels[g] for g in by_face)
