"""Presentation predicates that gate the ``red(D) == 0`` check on enumerated
diagrams.

``red`` counts tied least-position visits per label, so it vanishes on a
reduced diagram only when no two relators agree up to rotation and inversion
and no relator is a proper power.  Nothing in the package needs these
predicates, so they live with the tests.
"""

from __future__ import annotations

from typing import Sequence

from trigroup.words import Word, invert_word, rotations


def canonical_relator_class(w: Word) -> Word:
    """Least representative of ``w`` under rotation and inversion."""
    return min(list(rotations(w)) + list(rotations(invert_word(w))))


def relators_distinct_up_to_symmetry(relators: Sequence[Word]) -> bool:
    """True iff no two relators agree up to rotation and/or inversion."""
    classes = [canonical_relator_class(w) for w in relators]
    return len(set(classes)) == len(classes)


def has_proper_power(relators: Sequence[Word]) -> bool:
    """A length-3 relator is a proper power exactly when it is x*x*x."""
    return any(len(set(w)) == 1 for w in relators)
