import json
from fractions import Fraction

import mpmath
import pytest

from trigroup.presentation import (
    TriangularPresentation,
    density_from_str,
    integer_root,
    relator_count,
    sample_presentation,
)
from trigroup.seeding import derive_seed
from trigroup.words import invert_word, is_cyclically_reduced, rotations, word_from_str

from relator_classes import (
    canonical_relator_class,
    has_proper_power,
    relators_distinct_up_to_symmetry,
)


class TestIntegerRoot:
    def test_small_exact(self):
        for n in range(0, 200):
            for k in (1, 2, 3, 5):
                r = integer_root(n, k)
                assert r ** k <= n < (r + 1) ** k

    def test_huge(self):
        n = 3 ** 571 + 12345
        r = integer_root(n, 50)
        assert r ** 50 <= n < (r + 1) ** 50

    def test_exact_powers(self):
        assert integer_root(10 ** 60, 60) == 10
        assert integer_root(10 ** 60 - 1, 60) == 9


class TestRelatorCount:
    @pytest.mark.parametrize(
        "m,d,expected",
        [
            (2, Fraction(1, 3), 3),
            (4, Fraction(2, 5), 10),
            (2, Fraction(19, 50), 3),
            (1, Fraction(1, 2), 1),
        ],
    )
    def test_examples(self, m, d, expected):
        assert relator_count(m, d) == expected

    def test_against_high_precision_oracle(self):
        # independent route: 200-digit mpmath power, floored
        with mpmath.workdps(200):
            for m in (2, 3, 5, 10, 40):
                for d in (Fraction(1, 3), Fraction(7, 20), Fraction(2, 5), Fraction(17, 50)):
                    val = mpmath.power(2 * m - 1, 3 * mpmath.mpf(d.numerator) / d.denominator)
                    assert relator_count(m, d) == int(mpmath.floor(val))

    def test_exact_integer_boundary(self):
        # 3d integral: the power is an exact integer and must not round down
        assert relator_count(3, Fraction(1, 3)) == 5
        assert relator_count(3, Fraction(2, 3)) == 25

    def test_monotone_in_density(self):
        counts = [relator_count(5, Fraction(k, 100)) for k in range(5, 95, 3)]
        assert counts == sorted(counts)

    def test_density_domain(self):
        with pytest.raises(ValueError):
            relator_count(2, Fraction(0))
        with pytest.raises(ValueError):
            relator_count(2, Fraction(1))

    def test_density_parse(self):
        assert density_from_str("0.35") == Fraction(7, 20)
        assert density_from_str("1/3") == Fraction(1, 3)
        for number in (0.35, 1, Fraction(1, 3), None):  # only strings are exact input
            with pytest.raises(ValueError, match="d = "):
                density_from_str(number)


class TestSymmetryChecks:
    def test_rotation_collision(self):
        abc = word_from_str("abc")
        bca = word_from_str("bca")
        assert not relators_distinct_up_to_symmetry([abc, bca])

    def test_inverse_collision(self):
        abc = word_from_str("abc")
        inv = invert_word(abc)  # CBA
        assert not relators_distinct_up_to_symmetry([abc, inv])
        # and rotated inverse
        assert not relators_distinct_up_to_symmetry([abc, inv[1:] + inv[:1]])

    def test_distinct_pair(self):
        assert relators_distinct_up_to_symmetry(
            [word_from_str("aab"), word_from_str("abb")]
        )

    def test_class_is_orbit_invariant(self):
        w = word_from_str("aBc")
        orbit = list(rotations(w)) + list(rotations(invert_word(w)))
        assert {canonical_relator_class(u) for u in orbit} == {canonical_relator_class(w)}

    def test_proper_power(self):
        assert has_proper_power([word_from_str("aaa")])
        assert has_proper_power([word_from_str("BBB")])
        assert not has_proper_power([word_from_str("aab")])


class TestSampling:
    def test_deterministic_and_counted(self):
        p1 = sample_presentation(4, Fraction(2, 5), seed=99)
        p2 = sample_presentation(4, Fraction(2, 5), seed=99)
        assert p1 == p2
        assert len(p1.relators) == 10
        assert all(is_cyclically_reduced(w) and len(w) == 3 for w in p1.relators)
        assert p1.seed == 99

    def test_seed_changes_output(self):
        a = sample_presentation(4, Fraction(2, 5), seed=1)
        b = sample_presentation(4, Fraction(2, 5), seed=2)
        assert a.relators != b.relators

    def test_json_round_trip_and_fields(self):
        p = sample_presentation(2, Fraction(19, 50), seed=7)
        obj = p.to_json()
        assert set(obj) == {"m", "d", "seed", "relators"}
        assert obj["d"] == "19/50"
        assert isinstance(obj["relators"][0], str)
        assert TriangularPresentation.loads(p.dumps()) == p
        # byte stability of the serialized form
        assert p.dumps() == TriangularPresentation.loads(p.dumps()).dumps()

    @pytest.mark.parametrize("field", ["m", "d", "seed", "relators"])
    def test_missing_field_named(self, field):
        obj = sample_presentation(2, Fraction(1, 3), seed=7).to_json()
        del obj[field]
        with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
            TriangularPresentation.loads(json.dumps(obj))

    def test_first_missing_field_named(self):
        with pytest.raises(ValueError, match="^missing field 'd'$"):
            TriangularPresentation.loads('{"m": 2}')

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangularPresentation(2, Fraction(1, 3), 0, ((1, -1, 2),))
        with pytest.raises(ValueError):
            TriangularPresentation(1, Fraction(1, 3), 0, ((1, 2, 1),))
        with pytest.raises(ValueError, match=r"\bm\b"):
            TriangularPresentation(0, Fraction(1, 3), 0, ())
        for d in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 5)):
            with pytest.raises(ValueError, match=r"\bd\b"):
                TriangularPresentation(2, d, 0, ())

    def test_distinctness_failure_rate_decreases_in_rank(self):
        # collisions up to symmetry get rarer as the support grows
        d = Fraction(2, 5)
        trials = 200
        rates = []
        for m in (5, 10, 20, 40):
            fails = 0
            for t in range(trials):
                p = sample_presentation(m, d, seed=derive_seed(2024, "distinct", m, t))
                if not relators_distinct_up_to_symmetry(p.relators):
                    fails += 1
            rates.append(fails / trials)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
