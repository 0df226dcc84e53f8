"""The unfiltered level loop, kept as the oracle for the enumerator's.

``diagrams`` here is ``enumerate_reduced_diagrams`` as it ran before its
one-face seeds skipped the relators whose seeds it visits earlier: every
state of every level is grown by ``_grow`` with no filter, and a child is
kept when no earlier child had its canonical form.
"""

from __future__ import annotations

from typing import Iterator

from trigroup.complexes import VanKampenDiagram
from trigroup.enumeration import _State, _canonical, _grow, _slot_index, _to_diagram, _trace_table
from trigroup.presentation import TriangularPresentation


def diagrams(presentation: TriangularPresentation, max_faces: int) -> Iterator[VanKampenDiagram]:
    relators = presentation.relators
    index = _slot_index(relators)
    traces = _trace_table(relators)
    level: dict[tuple, _State] = {}
    for p, word in enumerate(relators):
        state: _State = (tuple(word), (((1, 2, 3), p + 1),), (1, 2, 3))
        level.setdefault(_canonical(state), state)
    for canon in sorted(level):
        yield _to_diagram(level[canon], presentation)
    for _ in range(max_faces - 1):
        nxt: dict[tuple, _State] = {}
        for canon in sorted(level):
            for grown in _grow(level[canon], relators, index, traces):
                nxt.setdefault(_canonical(grown), grown)
        level = nxt
        for canon in sorted(level):
            yield _to_diagram(level[canon], presentation)
