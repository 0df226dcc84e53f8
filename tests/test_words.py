import itertools
import random
from fractions import Fraction

import pytest
from scipy.stats import chi2

from trigroup.presentation import TriangularPresentation
from trigroup.seeding import make_rng
from trigroup.words import (
    all_letters,
    enumerate_triangle_words,
    free_reduce,
    invert_word,
    is_cyclically_reduced,
    rotations,
    sample_triangle_word,
    triangle_word_count,
    word_from_json,
    word_from_str,
    word_to_json,
    word_to_str,
)


def letter_order_key(w):
    """Lexicographic key under the letter order a < A < b < B < ..."""
    return tuple((abs(c), c < 0) for c in w)


def brute_force_triangle_words(m):
    """Oracle: filter all (2m)**3 length-3 words by the defining property."""
    letters = all_letters(m)
    return [
        w
        for w in itertools.product(letters, repeat=3)
        if is_cyclically_reduced(w)
    ]


def random_word(rng, m, length):
    return tuple(rng.choice(all_letters(m)) for _ in range(length))


class TestLetter:
    """Letter codes: +k is the k-th generator, -k its inverse."""

    def test_encode_decode(self):
        for code, char in ((1, "a"), (-1, "A"), (5, "e"), (-26, "Z")):
            assert word_to_str((code,)) == char
            assert word_from_str(char) == (code,)

    def test_inverse(self):
        assert invert_word((1,)) == (-1,)
        assert invert_word(invert_word((1,))) == (1,)
        assert all_letters(2) == [1, -1, 2, -2]

    def test_validation(self):
        with pytest.raises(ValueError):
            word_to_str((27,))
        with pytest.raises(ValueError):
            word_from_str("a1")
        with pytest.raises(ValueError):
            word_from_json([1, "b"])


class TestSignedWord:
    def test_round_trip(self):
        w = word_from_str("aBc")
        assert w == (1, -2, 3)
        assert word_to_str(w) == "aBc"
        assert word_to_str(invert_word(w)) == "CbA"

    def test_range_check(self):
        with pytest.raises(ValueError, match="beyond rank 3"):
            TriangularPresentation(m=3, density=Fraction(1, 5), seed=0, relators=((1, 2, 4),))


class TestReduction:
    def test_free_reduce_examples(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)
        assert free_reduce((1, 2, 3)) == (1, 2, 3)

    def test_cyclic_reduce_examples(self):
        # (word, its cyclic reduction): a word is cyclically reduced exactly
        # when it is its own reduction
        for w, reduced in (
            ((1, 2, 3, -2, -1), (3,)),
            ((1, 2, -1), (2,)),
            ((-1, 2, 1), (2,)),
            ((1, 2, 1), (1, 2, 1)),
            ((), ()),
        ):
            assert is_cyclically_reduced(reduced)
            assert is_cyclically_reduced(w) == (w == reduced)

    def test_free_reduce_idempotent(self):
        rng = random.Random(100)
        for _ in range(300):
            w = random_word(rng, 3, rng.randrange(0, 12))
            r = free_reduce(w)
            assert free_reduce(r) == r

    def test_cyclic_reduce_idempotent_and_minimal(self):
        # cyclically reduced exactly when no rotation can be freely reduced
        rng = random.Random(101)
        for _ in range(300):
            w = random_word(rng, 3, rng.randrange(0, 10))
            assert is_cyclically_reduced(w) == all(
                free_reduce(r) == r for r in rotations(w)
            )

    def test_cyclic_reduce_invariant_under_rotation(self):
        rng = random.Random(102)
        for _ in range(200):
            w = random_word(rng, 2, rng.randrange(1, 9))
            assert len({is_cyclically_reduced(r) for r in rotations(w)}) == 1

    def test_inverse_involution(self):
        rng = random.Random(103)
        for _ in range(100):
            w = random_word(rng, 4, rng.randrange(0, 8))
            assert invert_word(invert_word(w)) == w
            assert free_reduce(invert_word(free_reduce(w))) == invert_word(free_reduce(w))


class TestTriangleWords:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_count_matches_brute_force(self, m):
        assert triangle_word_count(m) == len(brute_force_triangle_words(m))
        assert triangle_word_count(m) == (2 * m - 1) ** 3 + 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_enumeration_complete_sorted_unique(self, m):
        words = enumerate_triangle_words(m)
        assert len(words) == triangle_word_count(m)
        assert len(set(words)) == len(words)
        assert words == sorted(words, key=letter_order_key)
        assert set(words) == set(brute_force_triangle_words(m))

    def test_enumeration_cap(self):
        assert len(enumerate_triangle_words(7)) == 13 ** 3 + 1

    def test_sampler_support_and_determinism(self):
        words = [sample_triangle_word(2, make_rng(42)) for _ in range(50)]
        again = [sample_triangle_word(2, make_rng(42)) for _ in range(50)]
        assert words[0] == again[0]
        rng = make_rng(42)
        seq = [sample_triangle_word(2, rng) for _ in range(200)]
        assert all(is_cyclically_reduced(w) and len(w) == 3 for w in seq)
        rng2 = make_rng(42)
        assert seq == [sample_triangle_word(2, rng2) for _ in range(200)]

    @pytest.mark.parametrize("m,seed", [(1, 11), (2, 12), (3, 13)])
    def test_sampler_uniform_chi_square(self, m, seed):
        # significance 0.01 over the full support, 1e5 draws
        support = enumerate_triangle_words(m)
        index = {w: i for i, w in enumerate(support)}
        counts = [0] * len(support)
        rng = make_rng(seed)
        n = 100_000
        for _ in range(n):
            counts[index[sample_triangle_word(m, rng)]] += 1
        expected = n / len(support)
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat <= chi2.ppf(0.99, df=len(support) - 1)


class TestSerialization:
    def test_string_round_trip(self):
        for text in ("abc", "aBc", "zZ", ""):
            assert word_to_str(word_from_str(text)) == text

    def test_string_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            word_from_str("a1")

    def test_json_forms(self):
        assert word_to_json((1, -2, 3), m=3) == "aBc"
        assert word_to_json((1, -27, 3), m=27) == [1, -27, 3]
        assert word_from_json("aBc") == (1, -2, 3)
        assert word_from_json([1, -27, 3]) == (1, -27, 3)
        rng = random.Random(104)
        for _ in range(50):
            w = random_word(rng, 26, 3)
            assert word_from_json(word_to_json(w, m=26)) == w
