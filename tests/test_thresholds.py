"""Critical density and derived constants."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigroup.thresholds import (
    SLIMNESS_SCALE,
    constants_pipeline,
    constants_sweep,
    d_crit,
    d_crit_digits,
    delta_hyp,
    min_k,
    _lhs_exact,
    _Q41,
    _rhs_exact,
)

D35 = Fraction(7, 20)
#: the slimness scale of the four-point definition of hyperbolicity
SLIMNESS_SCALE_4POINT = 100


def lhs(x: float) -> float:
    """The closing inequality's left side, in floats, written out here."""
    return 4 * (3 * x - 1) / (3 * (1 - 2 * x))


def rhs(x: float) -> float:
    return 2 - 3 * x


def d_prime(d0: Fraction) -> float:
    return constants_pipeline(d0)["d_prime"]


def mp_oracle():
    """Independent 50-digit route for everything sqrt(41)-adjacent."""
    with mpmath.workdps(50):
        dc = mpmath.mpf(11) / 12 - mpmath.sqrt(41) / 12
        dp = (mpmath.mpf(7) / 20 + dc) / 2
        l = 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))
        r = 2 - 3 * dp
        return dc, dp, l, r


def sqrt41_convergents(count):
    """The first continued-fraction convergents p/q of sqrt(41) = [6; 2, 2, 12]."""
    out = []
    p0, q0, p1, q1 = 1, 0, 6, 1
    for i in range(1, count + 1):
        out.append((p1, q1))
        a = 12 if i % 3 == 0 else 2
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return out


# p - q*sqrt(41) is within 1/q of zero; with p < 10^30 the terms cancel to
# about 60 digits, well inside mpmath's 100
CONVERGENTS = [(p, q) for p, q in sqrt41_convergents(40) if p < 10**30]
rationals = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**12)


@st.composite
def q41_numbers(draw):
    if draw(st.booleans()):
        return _Q41(draw(rationals), draw(rationals))
    p, q = draw(st.sampled_from(CONVERGENTS))
    scale = draw(rationals.filter(lambda x: x != 0))
    return _Q41(scale * p, -scale * q)


class TestQ41:
    def test_convergents(self):
        assert (2049, 320) in CONVERGENTS
        assert len(CONVERGENTS) > 20
        assert all(abs(p * p - 41 * q * q) in (1, 5) for p, q in CONVERGENTS)

    @settings(max_examples=300, deadline=None)
    @given(q41_numbers())
    def test_sign_and_floor_against_mpmath(self, x):
        with mpmath.workdps(100):
            value = mpmath.mpf(x.a.numerator) / x.a.denominator + (
                mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(41)
            )
            assert x.sign() == mpmath.sign(value)
            assert x.floor() == int(mpmath.floor(value))

    def test_near_tie(self):
        x = _Q41(Fraction(2049), Fraction(-320))  # 2049^2 = 41*320^2 + 1
        assert x.sign() == 1 and (-x).sign() == -1
        assert x.floor() == 0 and (-x).floor() == -1
        assert _Q41(Fraction(0)).sign() == 0

    def test_rounding_refuses_a_rational(self):
        with pytest.raises(ValueError, match=r"^decimal expansion needs an irrational number$"):
            _Q41(Fraction(1)).rounded(5)

    def test_rounding_near_a_tie(self):
        # 1/8 -+ (2049 - 320*sqrt(41))/10^30 lies 2.4e-34 from the tie 0.125;
        # 20 guard digits cannot tell the side, the bracket must widen
        c = Fraction(1, 10**30)
        above = _Q41(Fraction(1, 8) + 2049 * c, -320 * c)
        assert above.rounded(2) == Decimal("0.13")
        assert (Fraction(1, 4) - above).rounded(2) == Decimal("0.12")

    def test_field_operations(self):
        x = _Q41(Fraction(3, 7), Fraction(-2, 5))
        y = _Q41(Fraction(-11, 4), Fraction(1, 9))
        assert (x * y) / y == x
        assert (x + y) - y == x
        assert 1 / (1 / x) == x
        assert 2 - x == -(x - 2)
        assert _Q41(Fraction(6), Fraction(1)) * _Q41(Fraction(6), Fraction(-1)) == _Q41(Fraction(-5))


def mp_precise(r, digits):
    """The report's decimal fields from mpmath at twice the digits, plus 40
    for the cancellation near lhs(d') = 0, correctly rounded to ``digits``
    and laid out by mpmath's own printer."""
    with mpmath.workdps(2 * digits + 40):
        def frac(text):
            x = Fraction(text)
            return mpmath.mpf(x.numerator) / x.denominator

        dc = mpmath.mpf(11) / 12 - mpmath.sqrt(41) / 12
        dp = (frac(r["d0"]) + dc) / 2
        l = 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))
        pairs = r["k"] * (r["k"] + 1) // 2
        lower_coeff = 3 * pairs * (1 - 2 * dp) + mpmath.mpf((r["k"] + 1) * (r["k"] - 2)) / 2
        lower = lower_coeff * r["L"] + frac(r["A2"])
        upper = 2 * pairs * l * r["L"] + pairs * frac(r["A1"])
        values = {"d_crit": dc, "d_prime": dp, "lhs_d_prime": l, "rhs_d_prime": 2 - 3 * dp,
                  "lower_bound": lower, "upper_bound": upper}
        return {key: mpmath.libmp.to_str(v._mpf_, digits, strip_zeros=False)
                for key, v in values.items()}


class TestDCrit:
    def test_five_decimals(self):
        assert round(d_crit(), 5) == 0.38307

    def test_root_property(self):
        x = d_crit()
        assert abs(lhs(x) - rhs(x)) < 1e-12

    def test_sign_change_across_root(self):
        below, above = d_crit() - 1e-6, d_crit() + 1e-6
        assert lhs(below) - rhs(below) < 0 < lhs(above) - rhs(above)

    def test_digits_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^digits must be positive$"):
            d_crit_digits(0)

    def test_against_mpmath(self):
        dc, _, _, _ = mp_oracle()
        assert abs(float(dc) - d_crit()) < 1e-15
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(d_crit_digits(50)) - dc) < mpmath.mpf("1e-45")


class TestLhsRhs:
    """The two sides the pipeline evaluates, on exact and float input."""

    def test_at_one_third(self):
        assert _lhs_exact(Fraction(1, 3)) == 0
        assert _rhs_exact(Fraction(1, 3)) == 1

    def test_near_d_prime_of_035(self):
        assert abs(_lhs_exact(0.3665365) - 0.49756) < 1e-5
        assert abs(_rhs_exact(0.3665365) - 0.90039) < 1e-5

    def test_exact_rational_route(self):
        assert _lhs_exact(Fraction(1, 4)) == Fraction(-2, 3)
        assert _rhs_exact(Fraction(1, 4)) == Fraction(5, 4)


class TestDPrime:
    def test_midpoint_value(self):
        assert abs(d_prime(D35) - 0.3665365) < 1e-6

    def test_between(self):
        dp = d_prime(D35)
        assert float(D35) < dp < d_crit()

    def test_approaches_d_crit(self):
        close = Fraction(38307, 100000)
        assert d_crit() - d_prime(close) < 3e-6

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError, match="critical"):
            constants_pipeline(Fraction(39, 100))


class TestMinK:
    def test_at_035(self):
        assert min_k(D35) == 3
        dp = d_prime(D35)
        assert abs((rhs(dp) - lhs(dp)) - 0.40283) < 1e-5

    def test_at_one_third(self):
        # k = 1 would need a gap above 1; the gap is only about 0.575
        assert min_k(Fraction(1, 3)) == 2

    def test_minimality_invariant(self):
        for d0 in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 3), D35, Fraction(38, 100)):
            k = min_k(d0)
            dp = d_prime(d0)
            gap = rhs(dp) - lhs(dp)
            assert gap - 1.0 / k > 0
            if k >= 2:
                assert gap - 1.0 / (k - 1) <= 1e-15

    def test_close_to_the_critical_density(self):
        # closed form, not a scan: k runs to 910,612 just below d_crit
        start = time.perf_counter()
        cases = {Fraction("0.3830729"): 910612, Fraction("0.383"): 1002}
        for d0, expected in cases.items():
            assert min_k(d0) == expected
        assert time.perf_counter() - start < 1.0
        with mpmath.workdps(50):
            for d0, k in cases.items():
                dc = mpmath.mpf(11) / 12 - mpmath.sqrt(41) / 12
                dp = (mpmath.mpf(d0.numerator) / d0.denominator + dc) / 2
                gap = (2 - 3 * dp) - 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))
                assert mpmath.mpf(1) / k < gap <= mpmath.mpf(1) / (k - 1)

    def test_nondecreasing(self):
        grid = [Fraction(n, 100) for n in range(1, 39)]
        ks = [min_k(d0) for d0 in grid]
        assert ks == sorted(ks)


class TestDeltaHyp:
    def test_values(self):
        assert delta_hyp(Fraction(1, 3)) == 36
        assert delta_hyp(0) == 12
        assert delta_hyp(0.38) == 50

    def test_pole(self):
        with pytest.raises(ValueError, match="pole"):
            delta_hyp(Fraction(1, 2))


class TestE1Bound:
    """The pipeline's upper estimate C(k+1,2)*(lhs(d')*2L + A1): its
    coefficient lhs(d') and its growth in L."""

    def test_coefficient_vanishes_at_one_third(self):
        assert _lhs_exact(Fraction(1, 3)) == 0

    def test_linear_in_L(self):
        wide = constants_pipeline(D35)
        narrow = constants_pipeline(D35, long_constant=SLIMNESS_SCALE_4POINT)
        assert wide["L"] != narrow["L"]
        assert wide["upper_bound"] / wide["L"] == pytest.approx(
            narrow["upper_bound"] / narrow["L"], rel=1e-12
        )

    def test_at_the_root(self):
        x = d_crit()
        assert abs(lhs(x) * 1000 - (2 - 3 * x) * 1000) < 1e-9

    def test_coefficient_limit_down_to_one_third(self):
        vals = [_lhs_exact(1 / 3 + eps) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 2e-5  # coefficient ~ 12 eps near the edge


class TestPipeline:
    @pytest.mark.parametrize("kwargs, message", [
        ({"long_constant": 0}, "long_constant must be positive"),
        ({"digits": 0}, "digits must be positive"),
    ])
    def test_refuses_nonpositive_settings(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            constants_pipeline(D35, **kwargs)

    def test_frozen_reference_values(self):
        r = constants_pipeline(D35)
        assert r["delta"] == "40"
        assert r["k"] == 3
        assert r["A3"] == "0"
        assert r["L"] == 4 * 800 * 40 + 4 * 40 + 2 == 128162
        assert r["N"] == 3 * (128162 + 2 * 800 * 40) ** 2 == 3 * 192162**2

    def test_bounds_against_hand_formulas(self):
        r = constants_pipeline(D35)
        dp = d_prime(D35)
        lower = 1.5 * (1 - 2 * dp) * 6 * 2 * r["L"] + 2 * r["L"]
        upper = 6 * lhs(dp) * 2 * r["L"]
        assert abs(r["lower_bound"] - lower) < 1e-6 * lower
        assert abs(r["upper_bound"] - upper) < 1e-6 * upper
        assert r["upper_bound"] < r["lower_bound"]

    def test_fifty_digit_route_agrees(self):
        r = constants_pipeline(D35)
        _, dp, l, _ = mp_oracle()
        with mpmath.workdps(60):
            assert abs(mpmath.mpf(r["precise"]["d_prime"]) - dp) < mpmath.mpf("1e-45")
            assert abs(mpmath.mpf(r["precise"]["lhs_d_prime"]) - l) < mpmath.mpf("1e-44")
        for key in ("lower_bound", "upper_bound"):
            assert abs(float(r["precise"][key]) - r[key]) < 1e-12 * r[key]

    def test_pinned_report(self):
        # the decimals reported since the first release, byte for byte
        r = constants_pipeline(D35)
        assert r["precise"] == {
            "N_exact": "110778702732",
            "d_crit": "0.38307298021392927612598186044818222795663165561492",
            "d_prime": "0.36653649010696463806299093022409111397831582780746",
            "lhs_d_prime": "0.49756157020360173900863918715781879441363332447881",
            "lower_bound": "872102.21277680313003655443042232124741119912755546",
            "rhs_d_prime": "0.90039052967910608581102720932772665806505251657763",
            "upper_bound": "765221.83152520807289790258605424446795568088958224",
        }
        assert (r["d_crit"], r["d_prime"]) == (0.38307298021392927, 0.36653649010696465)
        assert (r["lower_bound"], r["upper_bound"]) == (872102.2127768032, 765221.8315252081)

    @pytest.mark.parametrize("d0", [
        Fraction(1, 10), Fraction(7, 20), Fraction(19, 50),
        # lhs(d') changes sign near d0 = 2/3 - d_crit: tiny values of both signs
        Fraction("0.2835936864527"), Fraction("0.2835936865"),
    ])
    def test_precise_fields_correctly_rounded(self, d0):
        for digits in (1, 2, 5, 17, 50):
            for A1, A2, long_constant in ((0, 0, 800), (10**6, 0, 1), (0, 10**9, 100)):
                r = constants_pipeline(d0, A1, A2, long_constant, digits)
                expected = mp_precise(r, digits)
                got = {key: r["precise"][key] for key in expected}
                assert got == expected, (d0, digits, A1, A2, long_constant)

    def test_four_point_variant(self):
        r = constants_pipeline(D35, long_constant=SLIMNESS_SCALE_4POINT)
        assert r["L"] == 4 * 100 * 40 + 4 * 40 + 2 == 16162
        assert r["N"] == 3 * (16162 + 2 * 100 * 40) ** 2

    def test_additive_constants_push_L(self):
        r = constants_pipeline(D35, A1=Fraction(10**6))
        assert r["A3"] == str(6 * 10**6)
        assert r["L"] > 128162
        assert r["upper_bound"] < r["lower_bound"]
        # minimality: one step down the closing inequality fails
        dp_exact = r["precise"]
        with mpmath.workdps(50):
            _, dp, l, _ = mp_oracle()
            alpha = 2 * 6 * (mpmath.mpf(3) / 2 * (1 - 2 * dp) - l) + mpmath.mpf(2)
            a3 = mpmath.mpf(6 * 10**6)
            assert alpha * r["L"] - a3 > 0
            assert alpha * (r["L"] - 1) - a3 <= 0

    def test_margin_below_float_resolution(self):
        # k = 1 and a tiny per-L margin push L to ~1.8e18; the exact margin
        # is positive while both bounds round to the same float
        r = constants_pipeline(Fraction("0.2835936864527"), A1=10**6, long_constant=1)
        assert r["k"] == 1 and r["L"] == 1782982151252038204
        assert r["lower_bound"] == r["upper_bound"]
        assert r["precise"]["upper_bound"] < r["precise"]["lower_bound"]

    def test_A2_lowers_nothing_below_floor(self):
        r = constants_pipeline(D35, A2=Fraction(10**9))
        assert r["L"] == 128162  # A3 < 0: floor still binds
        assert r["A3"] == str(-(10**9))

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError, match="critical"):
            constants_pipeline(Fraction(2, 5))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            constants_pipeline(D35, A1=float("nan"))
        with pytest.raises(ValueError, match="finite"):
            constants_pipeline(D35, A2=float("inf"))

    @pytest.mark.parametrize("A1, A2, name", [
        (0, -Fraction(10) ** 400, "lower_bound"),
        # a negative A1 drags the upper bound alone below every float
        (-Fraction(10) ** 400, 0, "upper_bound"),
    ])
    def test_overflowing_bound_rejected(self, A1, A2, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            constants_pipeline(D35, A1, A2)

    def test_json_dict(self):
        d = constants_pipeline(D35)
        assert d["d0"] == "7/20" and d["delta"] == "40" and d["k"] == 3
        assert d["precise"]["N_exact"] == str(3 * 192162**2)


class TestSweep:
    def test_rows_and_monotone_k(self):
        rows = constants_sweep([Fraction(3, 10), Fraction(1, 3), D35, Fraction(19, 50)])
        assert [r["k"] for r in rows] == [2, 2, 3, 25]
        assert [(r["d0"], r["L"], r["N"]) for r in rows] == [
            ("3/10", 96122, 41542301768),
            ("1/3", 115346, 59820637832),
            ("7/20", 128162, 110778702732),
            ("19/50", 160202, 1442425020100),
        ]
        assert all(set(r) == {"d0", "k", "L", "N"} for r in rows)
        ls = [r["L"] for r in rows]
        assert ls == sorted(ls)

