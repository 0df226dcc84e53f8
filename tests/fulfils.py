"""``fulfils``: the fulfilment check of ``trigroup.fulfillment`` for one word
tuple, with its check that the tuple holds one word per label.

``montecarlo_fulfillment`` draws its tuples one word per label, so the
package calls ``_letters_agree`` alone.
"""

from __future__ import annotations

from typing import Sequence

from trigroup.complexes import AbstractLabelledComplex
from trigroup.fulfillment import _label_groups, _letters_agree
from trigroup.words import Word


def fulfils(Y: AbstractLabelledComplex, words: Sequence[Word]) -> bool:
    """Does writing ``words[i-1]`` along every face of label ``i`` give each
    edge a single letter (read forward; a backward traversal reads its
    inverse)?  Each face must be as long as its word."""
    n = len(_label_groups(Y.labels))
    if len(words) != n:
        raise ValueError(f"expected {n} words, one per label")
    return _letters_agree(Y, words)
