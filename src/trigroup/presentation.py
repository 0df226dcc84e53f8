"""Random triangular presentations.

A presentation is ``m`` generators together with ``floor((2m-1)**(3d))``
relators drawn uniformly and independently (repetitions allowed) from the
triangle-word support at density ``d``.  The relator count is computed in
exact integer arithmetic: for ``d = p/q`` it is the integer q-th root of
``(2m-1)**(3p)``, never a floating-point floor.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .seeding import UINT64_MASK, make_rng
from .words import (
    Word,
    is_cyclically_reduced,
    sample_triangle_word,
    word_from_json,
    word_to_json,
)


# sample_presentation draws no more relators than this: about 160 MB of them
MAX_RELATORS = 1 << 20


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


def _check_density(d: Fraction) -> Fraction:
    if not 0 < d < 1:
        raise ValueError(f"d = {d}: the density d must lie in (0, 1)")
    return d


def density_from_str(text: str) -> Fraction:
    """Parse ``"p/q"`` or an exact decimal string like ``"0.35"``, strictly
    between 0 and 1.

    Only strings are read: a JSON number such as 0.35 arrives as a binary
    float whose exact value is not 7/20, so it is refused.
    """
    if not isinstance(text, str):
        raise ValueError(f"d = {text!r}: expected a string like \"1/3\"")
    try:
        d = Fraction(text)
    except (ValueError, ZeroDivisionError):  # ZeroDivisionError: "1/0"
        raise ValueError(f"d = {text!r}: expected a rational like 1/3") from None
    return _check_density(d)


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


def json_require(obj: dict, fields) -> None:
    """Raise a ValueError naming the first of ``fields`` missing from ``obj``."""
    for name in fields:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")


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
    d = _check_density(Fraction(d))
    base = (2 * m - 1) ** (3 * d.numerator)
    return integer_root(base, d.denominator)


class TriangularPresentation:
    __slots__ = ("m", "density", "seed", "relators")

    def __init__(self, m: int, density: Fraction, seed: int, relators: tuple[Word, ...]) -> None:
        self.m = m
        self.density = density
        self.seed = seed
        self.relators = relators
        if m < 1:
            raise ValueError(f"m = {m}: the rank m must be at least 1")
        _check_density(density)
        for w in relators:
            if len(w) != 3 or not is_cyclically_reduced(w):
                raise ValueError(f"relators: relator {w} is not a cyclically reduced triangle word")
            if 0 in w:
                raise ValueError(f"relators: relator {w} holds the letter code 0")
            if any(abs(c) > m for c in w):
                raise ValueError(f"relators: relator {w} uses letters beyond rank {m}")

    def __eq__(self, other: object) -> bool:
        return type(other) is TriangularPresentation and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def __hash__(self) -> int:
        return hash((self.m, self.density, self.seed, self.relators))

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "d": f"{self.density.numerator}/{self.density.denominator}",
            "seed": self.seed,
            "relators": [word_to_json(w, self.m) for w in self.relators],
        }

    @staticmethod
    def from_json(obj: dict) -> "TriangularPresentation":
        json_require(obj, ("m", "d", "seed", "relators"))
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
    if n > MAX_RELATORS:
        raise ValueError(f"--m {m} --d {d} asks for {n} relators, above the limit of"
                         f" {MAX_RELATORS}; choose a smaller --m or --d")
    rng = make_rng(seed)
    relators = tuple(sample_triangle_word(m, rng) for _ in range(n))
    return TriangularPresentation(m=m, density=Fraction(d), seed=seed, relators=relators)
