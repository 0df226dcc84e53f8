"""Random triangular presentations.

A presentation is ``m`` generators together with ``floor((2m-1)**(3d))``
relators drawn uniformly and independently (repetitions allowed) from the
triangle-word support at density ``d``.  The relator count is computed in
exact integer arithmetic: for ``d = p/q`` it is the integer q-th root of
``(2m-1)**(3p)``, never a floating-point floor.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .seeding import UINT64_MASK, make_rng
from .words import (
    Word,
    invert_word,
    is_cyclically_reduced,
    rotations,
    sample_triangle_word,
    word_from_json,
    word_to_json,
)


def integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for nonnegative integer n, by Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    if k == 1 or n in (0, 1):
        return n
    x = 1 << -(-n.bit_length() // k)  # power of two above the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def density_from_str(text: str) -> Fraction:
    """Parse ``"p/q"`` or an exact decimal string like ``"0.35"``.

    Only strings are read: a JSON number such as 0.35 arrives as a binary
    float whose exact value is not 7/20, so it is refused.
    """
    if not isinstance(text, str):
        raise ValueError(f"d = {text!r}: expected a string like \"1/3\"")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # ZeroDivisionError: "1/0"
        raise ValueError(f"d = {text!r}: expected a rational like 1/3") from None


def json_int(value: object, field: str) -> int:
    """``value`` if it is a JSON integer; anything else, 2.5 or Infinity
    included, is a ValueError naming ``field`` (never truncated)."""
    if type(value) is not int:
        raise ValueError(f"{field} = {value!r}: expected an integer")
    return value


def json_count(value: object, field: str) -> int:
    """:func:`json_int` for a count or distance, which must be >= 0."""
    n = json_int(value, field)
    if n < 0:
        raise ValueError(f"{field} = {n}: expected an integer >= 0")
    return n


def json_list(value: object, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} = {value!r}: expected a JSON list")
    return value


def relator_count(m: int, d: Fraction) -> int:
    """floor((2m-1)**(3d)), exactly.

    >>> relator_count(2, Fraction(1, 3))
    3
    >>> relator_count(4, Fraction(2, 5))
    10
    """
    if m < 1:
        raise ValueError("rank must be >= 1")
    d = Fraction(d)
    if not 0 < d < 1:
        raise ValueError("density must lie in (0, 1)")
    base = (2 * m - 1) ** (3 * d.numerator)
    return integer_root(base, d.denominator)


def canonical_relator_class(w: Word) -> Word:
    """Least representative of ``w`` under rotation and inversion."""
    candidates = list(rotations(w)) + list(rotations(invert_word(w)))
    return min(candidates)


def relators_distinct_up_to_symmetry(relators: Sequence[Word]) -> bool:
    """True iff no two relators agree up to rotation and/or inversion."""
    classes = [canonical_relator_class(w) for w in relators]
    return len(set(classes)) == len(classes)


def has_proper_power(relators: Sequence[Word]) -> bool:
    """A length-3 relator is a proper power exactly when it is x*x*x."""
    return any(len(set(w)) == 1 for w in relators)


@dataclass(frozen=True)
class TriangularPresentation:
    m: int
    density: Fraction
    seed: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m = {self.m}: the rank m must be at least 1")
        if not 0 < self.density < 1:
            raise ValueError(f"d = {self.density}: the density d must lie in (0, 1)")
        for w in self.relators:
            if len(w) != 3 or not is_cyclically_reduced(w):
                raise ValueError(f"relator {w} is not a cyclically reduced triangle word")
            if any(abs(c) > self.m for c in w):
                raise ValueError(f"relator {w} uses letters beyond rank {self.m}")

    def __len__(self) -> int:
        return len(self.relators)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "d": f"{self.density.numerator}/{self.density.denominator}",
            "seed": self.seed,
            "relators": [word_to_json(w, self.m) for w in self.relators],
        }

    @staticmethod
    def from_json(obj: dict) -> "TriangularPresentation":
        relators = json_list(obj["relators"], "relators")
        try:
            words = tuple(word_from_json(w) for w in relators)
        except ValueError as exc:
            raise ValueError(f"relators: {exc}") from None
        return TriangularPresentation(
            m=json_int(obj["m"], "m"),
            density=density_from_str(obj["d"]),
            seed=json_int(obj["seed"], "seed"),
            relators=words,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def loads(text: str) -> "TriangularPresentation":
        return TriangularPresentation.from_json(json.loads(text))


def sample_presentation(m: int, d: Fraction, seed: int) -> TriangularPresentation:
    """Draw the model's relator tuple for (m, d) from the given seed."""
    seed = int(seed) & UINT64_MASK
    n = relator_count(m, d)
    rng = make_rng(seed)
    relators = tuple(sample_triangle_word(m, rng) for _ in range(n))
    return TriangularPresentation(m=m, density=Fraction(d), seed=seed, relators=relators)
