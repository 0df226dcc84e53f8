"""Critical density, derived constants, and the closing inequality chain.

Everything here is arithmetic in the field Q(sqrt(41)): the critical density
is 11/12 - sqrt(41)/12, and every downstream comparison (choice of k, choice
of L, final bound comparison) is decided exactly on numbers a + b*sqrt(41)
with rational a and b, by comparing a^2 with 41*b^2.  Reported decimals are
computed separately with :mod:`decimal` and correctly rounded to the
requested number of significant digits; float entry points use plain float
arithmetic so the two routes stay independent checks of one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import VanKampenDiagram, ref_edge

# Scale tying the thin-triangle constant to the neighbourhood radii used in
# the stability arguments; the four-point-definition variant is 100.
SLIMNESS_SCALE = 800
SLIMNESS_SCALE_4POINT = 100

GEODESIC_A = "geodesic1"
GEODESIC_B = "geodesic2"
CONNECTOR = "connector"

# digits carried beyond the requested ones before the first rounding attempt
_GUARD_DIGITS = 20


@dataclass(frozen=True)
class _Q41:
    """The number a + b*sqrt(41), with a and b rational."""

    a: Fraction
    b: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "_Q41":
        return x if isinstance(x, _Q41) else _Q41(Fraction(x))

    def __add__(self, other) -> "_Q41":
        o = _Q41.of(other)
        return _Q41(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "_Q41":
        return _Q41(-self.a, -self.b)

    def __sub__(self, other) -> "_Q41":
        return self + -_Q41.of(other)

    def __rsub__(self, other) -> "_Q41":
        return _Q41.of(other) - self

    def __mul__(self, other) -> "_Q41":
        o = _Q41.of(other)
        return _Q41(self.a * o.a + 41 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Q41":
        # multiply by the conjugate; the norm a^2 - 41b^2 vanishes only at 0
        o = _Q41.of(other)
        norm = o.a * o.a - 41 * o.b * o.b
        return self * _Q41(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other) -> "_Q41":
        return _Q41.of(other) / self

    def sign(self) -> int:
        """Exact sign: with a and b of opposite signs, the term with the
        larger square wins (a^2 = 41b^2 is impossible unless both are 0)."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:  # equal signs, or one term is zero
            return sa or sb
        return sa if self.a * self.a > 41 * self.b * self.b else sb

    def floor(self) -> int:
        """Exact floor, from an integer square root and one exact sign test."""
        p, q = self.b.numerator, self.b.denominator
        root = math.isqrt(41 * p * p) // q  # floor(|b| sqrt(41))
        # b sqrt(41) is irrational for b != 0, so its floor is -root - 1 when b < 0
        n = math.floor(self.a) + (root if p >= 0 else -root - 1)
        return n + 1 if (self - (n + 1)).sign() >= 0 else n

    def rounded(self, digits: int) -> Decimal:
        """Correctly rounded to ``digits`` significant digits.

        The value is bracketed with ``_GUARD_DIGITS`` digits to spare, and
        the working precision doubles until both ends of the bracket round
        alike, which ends because an irrational number is never a tie.
        """
        if self.b == 0:
            raise ValueError("decimal expansion needs an irrational number")
        target = Context(prec=digits)
        prec = digits + _GUARD_DIGITS
        while True:
            with localcontext(Context(prec=prec)):
                a = Decimal(self.a.numerator) / self.a.denominator
                t = Decimal(self.b.numerator) / self.b.denominator * Decimal(41).sqrt()
                approx = a + t
                # five roundings of half a unit each move approx by under
                # 25*10^-prec of the terms' size; 10^(2-prec) also covers
                # rounding the bracket ends (copy_abs, unlike abs(), is exact)
                err = (a.copy_abs() + t.copy_abs()).scaleb(2 - prec)
                low, high = target.plus(approx - err), target.plus(approx + err)
            if low == high:
                return low
            prec *= 2


def _decimal_str(x: _Q41, digits: int) -> str:
    """``x`` to ``digits`` significant digits, in the layout of mpmath's
    printer that the reports have always used: fixed point exactly when
    min(-(digits//3), -5) < exponent < digits, otherwise d.ddd...e+N;
    trailing zeros are kept."""
    r = x.rounded(digits)
    sign, coeff, _ = r.as_tuple()
    mant = "".join(map(str, coeff)).ljust(digits, "0")
    exp = r.adjusted()
    if min(-(digits // 3), -5) < exp < digits:
        if exp < 0:
            text = "0." + "0" * (-exp - 1) + mant
        else:
            text = mant[: exp + 1] + "." + mant[exp + 1 :]
    else:
        text = f"{mant[0]}.{mant[1:]}e{exp:+d}"
    return "-" * sign + text


def _float(x: _Q41) -> float:
    """The float nearest the 30-digit decimal value of ``x``."""
    return float(x.rounded(30))


_D_CRIT = _Q41(Fraction(11, 12), Fraction(-1, 12))


def _as_fraction(x, name: str) -> Fraction:
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
        return Fraction(str(x))
    return Fraction(x)


def _lhs_exact(dp):
    return 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))


def _rhs_exact(dp):
    return 2 - 3 * dp


def _d_prime_exact(d0: Fraction) -> _Q41:
    return (d0 + _D_CRIT) / 2


def d_crit() -> float:
    """The density below which the whole pipeline can be closed."""
    return _float(_D_CRIT)


def d_crit_digits(digits: int = 50) -> str:
    if digits < 1:
        raise ValueError("digits must be positive")
    return _decimal_str(_D_CRIT, digits)


def lhs(dp) -> float | Fraction:
    """4(3dp-1)/(3(1-2dp)); defined left of the pole at 1/2.

    Rational input gets an exact rational answer, float input a float.
    """
    if isinstance(dp, float):
        if dp >= 0.5:
            raise ValueError("lhs has a pole at 1/2; need dp < 1/2")
        return 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))
    dp = Fraction(dp)
    if dp >= Fraction(1, 2):
        raise ValueError("lhs has a pole at 1/2; need dp < 1/2")
    return 4 * (3 * dp - 1) / (3 * (1 - 2 * dp))


def rhs(dp) -> float | Fraction:
    """2 - 3dp."""
    if isinstance(dp, float):
        return 2 - 3 * dp
    return 2 - 3 * Fraction(dp)


def _require_subcritical(d0: Fraction) -> None:
    if d0 <= 0:
        raise ValueError(f"d0 = {d0}: a density must be positive")
    if (_D_CRIT - d0).sign() <= 0:
        raise ValueError(f"d0 = {d0} is not below the critical density")


def d_prime(d0) -> float:
    """Midpoint of d0 and the critical density."""
    d0 = _as_fraction(d0, "d0")
    _require_subcritical(d0)
    return _float(_d_prime_exact(d0))


def min_k(d0) -> int:
    """Smallest k >= 1 with lhs(d') < rhs(d') - 1/k, d' the midpoint.

    That is k = floor(1/gap) + 1 for gap = rhs(d') - lhs(d'), computed and
    then confirmed exactly: gap > 1/k and, for k >= 2, gap <= 1/(k-1).
    """
    d0 = _as_fraction(d0, "d0")
    _require_subcritical(d0)
    dp = _d_prime_exact(d0)
    gap = _rhs_exact(dp) - _lhs_exact(dp)
    if gap.sign() <= 0:
        raise ArithmeticError("gap should be positive below the critical density")
    k = (1 / gap).floor() + 1
    if (gap - Fraction(1, k)).sign() <= 0 or (
        k >= 2 and (gap - Fraction(1, k - 1)).sign() > 0
    ):
        raise ArithmeticError(f"k = {k} is not the least k with gap > 1/k")
    return k


def delta_hyp(d) -> Fraction:
    """12/(1-2d), the thin-triangle constant in terms of density."""
    d = _as_fraction(d, "d")
    if d >= Fraction(1, 2):
        raise ValueError("delta_hyp has a pole at 1/2; need d < 1/2")
    return 12 / (1 - 2 * d)


def e1_bound(dp, L: int, A1=0) -> float | Fraction:
    """lhs(dp) * 2L + A1: the budget for one-neighbour boundary edges."""
    if L < 1:
        raise ValueError("L must be at least 1")
    return lhs(dp) * 2 * L + (A1 if isinstance(dp, float) else _as_fraction(A1, "A1"))


@dataclass(frozen=True)
class ConstantsReport:
    d0: Fraction
    d_crit: float
    d_prime: float
    delta: Fraction
    k: int
    A1: Fraction
    A2: Fraction
    A3: Fraction
    long_constant: int
    L: int
    N: int
    lower_bound: float
    upper_bound: float
    precise: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1 or self.L < 1 or self.N < 1:
            raise ValueError("k, L, N must be positive")
        # rounding is monotone: an exact upper < lower can round to equal floats
        if not (self.upper_bound <= self.lower_bound):
            raise ValueError("the closing inequality failed at the chosen parameters")
        for name in ("d_crit", "d_prime", "lower_bound", "upper_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def to_json_dict(self) -> dict:
        return {
            "d0": str(self.d0),
            "d_crit": self.d_crit,
            "d_prime": self.d_prime,
            "delta": str(self.delta),
            "k": self.k,
            "A1": str(self.A1),
            "A2": str(self.A2),
            "A3": str(self.A3),
            "long_constant": self.long_constant,
            "L": self.L,
            "N": self.N,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "precise": dict(self.precise),
        }


def constants_pipeline(
    d0, A1=0, A2=0, long_constant: int = SLIMNESS_SCALE, digits: int = 50
) -> ConstantsReport:
    """Derive (d', delta, k, L, N) and evaluate the two closing bounds.

    L is the smallest integer at least ceil(4*long_constant*delta
    + 4*delta + 2) for which the upper estimate C(k+1,2)*(lhs(d')*2L + A1)
    stays strictly below the lower estimate
    (3/2)(1-2d')*C(k+1,2)*2L + (k+1)(k-2)L/2 + A2; the final count is
    N = k*(L + 2*long_constant*delta)^2.  With A1 = A2 = 0 the choice of k
    already makes every L work, so the floor binds.
    """
    d0 = _as_fraction(d0, "d0")
    A1 = _as_fraction(A1, "A1")
    A2 = _as_fraction(A2, "A2")
    if long_constant < 1:
        raise ValueError("long_constant must be positive")
    if digits < 1:
        raise ValueError("digits must be positive")
    _require_subcritical(d0)
    delta = delta_hyp(d0)
    k = min_k(d0)
    pairs = k * (k + 1) // 2  # C(k+1, 2)
    A3 = pairs * A1 - A2

    dp = _d_prime_exact(d0)
    lhs_dp = _lhs_exact(dp)
    lower_coeff = 2 * pairs * Fraction(3, 2) * (1 - 2 * dp) + Fraction((k + 1) * (k - 2), 2)
    upper_coeff = 2 * pairs * lhs_dp
    # margin(L) = lower(L) - upper(L) = (lower_coeff - upper_coeff)*L + A2 - pairs*A1
    alpha = lower_coeff - upper_coeff
    if alpha.sign() <= 0:
        raise ArithmeticError("per-L margin should grow; k selection is broken")
    floor_L = math.ceil(4 * long_constant * delta + 4 * delta + 2)
    # margin(L) = alpha*L - A3 > 0 exactly when L > A3/alpha
    L = max(floor_L, (A3 / alpha).floor() + 1) if A3 > 0 else floor_L

    lower_exact = lower_coeff * L + A2
    upper_exact = upper_coeff * L + pairs * A1
    if (lower_exact - upper_exact).sign() <= 0:
        raise ArithmeticError("the closing inequality failed at the chosen L")

    reach = Fraction(L) + 2 * long_constant * delta
    n_exact = k * reach * reach
    N = math.ceil(n_exact)

    precise = {
        "d_crit": d_crit_digits(digits),
        "d_prime": _decimal_str(dp, digits),
        "lhs_d_prime": _decimal_str(lhs_dp, digits),
        "rhs_d_prime": _decimal_str(_rhs_exact(dp), digits),
        "lower_bound": _decimal_str(lower_exact, digits),
        "upper_bound": _decimal_str(upper_exact, digits),
        "N_exact": str(n_exact),
    }
    return ConstantsReport(
        d0=d0,
        d_crit=d_crit(),
        d_prime=_float(dp),
        delta=delta,
        k=k,
        A1=A1,
        A2=A2,
        A3=A3,
        long_constant=long_constant,
        L=L,
        N=N,
        lower_bound=_float(lower_exact),
        upper_bound=_float(upper_exact),
        precise=precise,
    )


def constants_sweep(d0_values: Sequence, A1=0, A2=0, long_constant: int = SLIMNESS_SCALE) -> list[dict]:
    """(d0, k, L, N) rows over a grid of subcritical densities."""
    rows = []
    for d0 in d0_values:
        report = constants_pipeline(d0, A1, A2, long_constant)
        rows.append(
            {"d0": str(report.d0), "k": report.k, "L": report.L, "N": report.N}
        )
    return rows


# ---------------------------------------------------------------------------
# boundary partition of a geodesic-sided diagram


def partition_boundary(D: VanKampenDiagram, side_marks: Sequence[str]) -> tuple[int, int, int]:
    """Sort boundary edges into connector (E0) and geodesic (E1/E2) classes.

    ``side_marks[i]`` marks ``D.boundary[i]`` as lying on the first geodesic
    side, the second, or a connector.  Each geodesic side must form one
    contiguous cyclic run (connectors may be empty).  A geodesic edge counts
    as E2 when the third vertex of its face lies on a geodesic side, E1
    otherwise.
    """
    marks = list(side_marks)
    B = D.boundary_length
    if len(marks) != B:
        raise ValueError("need exactly one mark per boundary edge")
    allowed = {GEODESIC_A, GEODESIC_B, CONNECTOR}
    if not set(marks) <= allowed:
        raise ValueError(f"marks must be drawn from {sorted(allowed)}")
    for kind in (GEODESIC_A, GEODESIC_B):
        positions = [i for i, mk in enumerate(marks) if mk == kind]
        if not positions:
            raise ValueError(f"boundary needs a nonempty {kind} side")
        runs = sum(
            1
            for i in positions
            if marks[(i - 1) % B] != kind
        )
        if runs != 1:
            raise ValueError(f"{kind} side must be one contiguous arc")

    face_of_edge: dict[int, int] = {}
    for f, walk in enumerate(D.faces):
        for r in walk:
            face_of_edge.setdefault(ref_edge(r), f)

    geodesic_vertices = set()
    for i, mk in enumerate(marks):
        if mk != CONNECTOR:
            geodesic_vertices.add(D.ref_tail(D.boundary[i]))
            geodesic_vertices.add(D.ref_head(D.boundary[i]))

    e0 = e1 = e2 = 0
    for i, mk in enumerate(marks):
        if mk == CONNECTOR:
            e0 += 1
            continue
        e = ref_edge(D.boundary[i])
        walk = D.faces[face_of_edge[e]]
        j = next(t for t, r in enumerate(walk) if ref_edge(r) == e)
        third = D.ref_head(walk[(j + 1) % 3])
        if third in geodesic_vertices:
            e2 += 1
        else:
            e1 += 1
    return e0, e1, e2
