"""Free group words and the triangular relator support.

Letters are encoded as nonzero signed integers: ``+k`` is the k-th generator
(1-based), ``-k`` its inverse.  Words are plain tuples of such codes, and
every function here works on the tuples; the string form writes ``+k`` as
the k-th lower-case letter and ``-k`` as its capital.  A *triangle word*
over rank ``m`` is a cyclically reduced word of length three; these are
exactly the possible relators, and there are ``(2m-1)**3 + 1`` of them.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

Word = tuple[int, ...]


def invert_word(codes: Sequence[int]) -> Word:
    return tuple(-c for c in reversed(codes))


def free_reduce(codes: Sequence[int]) -> Word:
    """Delete adjacent inverse pairs until none remain.

    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    """
    out: list[int] = []
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def is_cyclically_reduced(codes: Sequence[int]) -> bool:
    """Freely reduced, and the last letter does not cancel the first.

    >>> is_cyclically_reduced((1, 2, 3, -2, -1)), is_cyclically_reduced((1, 2, 1))
    (False, True)
    """
    w = tuple(codes)
    if free_reduce(w) != w:
        return False
    return not (len(w) >= 2 and w[0] == -w[-1])


def triangle_word_count(m: int) -> int:
    """Number of cyclically reduced length-3 words over rank ``m``.

    Splitting on whether the word starts with a repeated letter gives
    ``2m*(2m-1) + 2m*(2m-2)**2``, which simplifies to:

    >>> [triangle_word_count(m) for m in (1, 2, 3)]
    [2, 28, 126]
    """
    if m < 1:
        raise ValueError("rank must be >= 1")
    return (2 * m - 1) ** 3 + 1


def all_letters(m: int) -> list[int]:
    """All 2m letter codes in canonical order, a < A < b < B < ..."""
    out: list[int] = []
    for g in range(1, m + 1):
        out.extend((g, -g))
    return out


def enumerate_triangle_words(m: int) -> list[Word]:
    """All cyclically reduced length-3 words, lexicographically ordered
    under the letter order of :func:`all_letters`, in which the loops run.

    Complete and duplicate-free; ``len(...) == triangle_word_count(m)``.
    """
    letters = all_letters(m)
    out = []
    for a in letters:
        for b in letters:
            if b == -a:
                continue
            for c in letters:
                if c == -b or c == -a:
                    continue
                out.append((a, b, c))
    return out


def sample_triangle_word(m: int, rng: random.Random) -> Word:
    """One uniform draw from the triangle-word support.

    Rejection from the uniform distribution on all (2m)**3 length-3 words;
    acceptance probability is at least 1/4, so the loop is short.
    """
    n = 2 * m
    while True:
        w = []
        for _ in range(3):
            i = rng.randrange(n)
            code = i // 2 + 1
            w.append(code if i % 2 == 0 else -code)
        if w[1] != -w[0] and w[2] != -w[1] and w[0] != -w[2]:
            return tuple(w)


def word_to_str(codes: Sequence[int]) -> str:
    """Serialize with a..z for generators, A..Z for inverses (rank <= 26)."""
    chars = []
    for c in codes:
        idx = abs(c) - 1
        if idx >= 26:
            raise ValueError("string form only supports rank <= 26")
        chars.append(chr((ord("a") if c > 0 else ord("A")) + idx))
    return "".join(chars)


def word_from_str(text: str) -> Word:
    codes = []
    for ch in text:
        if "a" <= ch <= "z":
            codes.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            codes.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError(f"bad letter {ch!r}")
    return tuple(codes)


def word_to_json(codes: Sequence[int], m: int) -> object:
    """Strings for rank <= 26, signed-integer arrays beyond."""
    if m <= 26:
        return word_to_str(codes)
    return list(codes)


def word_from_json(obj: object) -> Word:
    if isinstance(obj, str):
        return word_from_str(obj)
    if isinstance(obj, list) and all(type(c) is int for c in obj):
        return tuple(obj)
    raise ValueError(f"bad word serialization: {obj!r}")


def rotations(codes: Word) -> Iterator[Word]:
    for k in range(len(codes)):
        yield codes[k:] + codes[:k]
