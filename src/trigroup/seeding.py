"""Deterministic random streams.

Every randomized routine in the package takes an explicit 64-bit seed and
records it in its output.  Derived streams (per task, per presentation, per
trial) come from hashing the parent seed together with a tag path, so the
same configuration always replays the same draws no matter how work is
partitioned.
"""

from __future__ import annotations

import random

UINT64_MASK = (1 << 64) - 1


def derive_seed(seed: int, *tags: object) -> int:
    """Child seed for a tagged subtask of a run seeded with ``seed``.

    >>> derive_seed(7, "sample", 0) == derive_seed(7, "sample", 0)
    True
    >>> derive_seed(7, "sample", 0) != derive_seed(7, "sample", 1)
    True
    """
    import hashlib  # loaded on first use: most commands never derive a seed

    h = hashlib.sha256(str(int(seed) & UINT64_MASK).encode())
    for tag in tags:
        h.update(b"/")
        h.update(repr(tag).encode())
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(seed: int, *tags: object) -> random.Random:
    """A ``random.Random`` for ``seed``, optionally descended through tags."""
    if tags:
        return random.Random(derive_seed(seed, *tags))
    return random.Random(int(seed) & UINT64_MASK)
