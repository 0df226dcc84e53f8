"""Independent checks on the records of :func:`trigroup.fulfillment.ratio_sweep`.

A sweep record names a structure by its slot ``classes`` and ``signs``, the
faces of its top label (``top``) and the grouping of the faces below it
(``lower_groups``).  The helpers here rebuild it as a labelled complex for the
brute-force counter and test its shape without the sweep's own forced-letter
code.  :func:`structure_to_complex`, the inverse of
:func:`trigroup.fulfillment.structure_of`, does the rebuilding; no command
needs it, so it lives with the tests.
"""

from trigroup.complexes import AbstractLabelledComplex, abstract_from_walks
from trigroup.fulfillment import FaceStructure, exact_probabilities, ratio_checks


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
