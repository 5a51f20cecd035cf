"""Interval arithmetic: construction, soundness, tightness, special functions.

Reference values are frozen decimal strings computed independently at 50
significant digits.  Containment checks compare through Decimal/Fraction so
no float rounding can blur the assertion itself.
"""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brun.interval import (
    EULER_GAMMA,
    Interval,
    _SERIES_MAX,
    _cf_convergent,
    _e1_point,
    ei_neg,
    rational_pow,
)
from conftest import assert_pinned

E1_AT_1 = Decimal("0.219383934395520273677163775460121649031047293")
E1_AT_2_5 = Decimal("0.0249149178702697354956280122746096359458483847")
E1_AT_12 = Decimal("0.000000475108182467249393259461269666144183573679128")
E1_AT_LN100 = Decimal("0.00182974349962551474198752954011431627669170929")
LN_2 = Decimal("0.693147180559945309417232121458176568075500134")
SQRT_2 = Decimal("1.41421356237309504880168872420969807856967188")
GAMMA = Decimal("0.577215664901532860606512090082402431042159336")
POW_4E18_NEG02 = Decimal("0.0001903653938715877584632749845617855983429")
POW_4E18_NEG15 = Decimal("0.0001903653938715878489896147288119097778655")


def contains_decimal(iv: Interval, d: Decimal) -> bool:
    return Decimal(iv.lo) <= d <= Decimal(iv.hi)


def contains_fraction(iv: Interval, q: Fraction) -> bool:
    return Fraction(iv.lo) <= q <= Fraction(iv.hi)


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_degenerate_infinite(self):
        with pytest.raises(ValueError):
            Interval(math.inf, math.inf)
        with pytest.raises(ValueError):
            Interval(-math.inf, -math.inf)

    def test_half_lines_allowed(self):
        Interval(3.0, math.inf)
        Interval(-math.inf, 3.0)
        Interval(-math.inf, math.inf)

    def test_from_int_exact(self):
        iv = Interval.from_int(2**53)
        assert iv.lo == iv.hi == float(2**53)

    def test_from_int_inexact(self):
        # 2^53 + 1 lies between the doubles 2^53 and 2^53 + 2
        iv = Interval.from_int(2**53 + 1)
        assert (iv.lo, iv.hi) == (2.0**53, 2.0**53 + 2)

    def test_from_fraction_third(self):
        iv = Interval.from_fraction(Fraction(1, 3))
        assert Fraction(iv.lo) < Fraction(1, 3) < Fraction(iv.hi)
        assert iv.hi == math.nextafter(iv.lo, math.inf)

    def test_from_decimal(self):
        iv = Interval.from_decimal(Decimal("0.1"))
        assert Decimal(iv.lo) < Decimal("0.1") < Decimal(iv.hi)
        assert iv.hi == math.nextafter(iv.lo, math.inf)

    def test_from_decimal_overflow(self):
        iv = Interval.from_decimal(Decimal("1e400"))
        assert (iv.lo, iv.hi) == (sys.float_info.max, math.inf)

    def test_unrepresentable_values_raise(self):
        with pytest.raises(OverflowError):
            Interval.from_int(10**400)
        with pytest.raises(OverflowError):
            Interval.from_fraction(Fraction(10**400, 3))
        with pytest.raises(ValueError):
            Interval.from_decimal(Decimal("NaN"))

    @given(st.one_of(
        # rationals from about 1e300 down past the subnormals
        st.builds(Fraction, st.integers(-10**300, 10**300), st.integers(1, 10**330)),
        st.integers(2**53, 2**1023).flatmap(lambda n: st.sampled_from([n, -n])),
        st.builds(
            lambda c, e: Decimal(f"{c}e{e}"),
            st.integers(-10**30 + 1, 10**30 - 1),
            st.integers(-300, 300),
        ),
        st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    ))
    def test_exact_value_enters_at_one_ulp(self, q):
        convert = {
            int: Interval.from_int,
            Fraction: Interval.from_fraction,
            Decimal: Interval.from_decimal,
        }[type(q)]
        iv = convert(q)
        exact = Fraction(q)
        if iv.lo == iv.hi:
            assert Fraction(iv.lo) == exact
        else:
            # the largest double below and the least above; a decimal
            # beyond the doubles ends at an infinity
            assert iv.lo == -math.inf or Fraction(iv.lo) < exact
            assert iv.hi == math.inf or exact < Fraction(iv.hi)
            assert iv.hi == math.nextafter(iv.lo, math.inf)


class TestArithmetic:
    def test_div_point_tight(self):
        q = Interval.point(1.0) / Interval.point(3.0)
        assert contains_fraction(q, Fraction(1, 3))
        assert q.width <= 2 * math.ulp(q.lo)

    def test_add_contains(self):
        s = Interval.point(0.1) + Interval.point(0.2)
        assert contains_fraction(s, Fraction(0.1) + Fraction(0.2))

    def test_scalar_coercion(self):
        assert contains_fraction(Interval.point(1.0) + 1, Fraction(2))
        assert contains_fraction(2 * Interval.point(3.0), Fraction(6))
        assert contains_fraction(1 - Interval.point(0.25), Fraction(3, 4))
        assert contains_fraction(1 / Interval.point(4.0), Fraction(1, 4))

    def test_exact_rationals_are_not_operands(self):
        # Fraction and Decimal enter through from_fraction / from_decimal,
        # which show the outward rounding at the call site; bool is no number
        for other in (Fraction(1, 3), Decimal("0.1"), True):
            with pytest.raises(TypeError):
                Interval(1, 2) + other
            with pytest.raises(TypeError):
                other * Interval(1, 2)

    def test_mul_sign_cases(self):
        a = Interval(-2.0, 3.0)
        b = Interval(-5.0, 7.0)
        prod = a * b
        # extreme corners: -2*7 = -14, 3*-5 = -15, 3*7 = 21
        assert prod.lo <= -15.0 <= prod.hi or prod.lo <= -15.0
        assert prod.lo <= -15.0
        assert prod.hi >= 21.0

    def test_mul_zero_times_unbounded(self):
        z = Interval.point(0.0)
        u = Interval(-math.inf, math.inf)
        prod = z * u
        assert 0.0 in prod
        assert prod.width <= 4 * 5e-324

    def test_mul_nan_corner(self):
        prod = Interval(0.0, 2.0) * Interval(3.0, math.inf)
        assert prod.lo <= 0.0
        assert prod.hi == math.inf

    def test_div_by_zero_straddle(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / Interval(-1.0, 1.0)
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / Interval(0.0, 1.0)

    def test_neg_exact(self):
        iv = Interval(1.25, 2.5)
        assert -iv == Interval(-2.5, -1.25)

    def test_abs(self):
        assert abs(Interval(-3.0, 2.0)) == Interval(0.0, 3.0)
        assert abs(Interval(-3.0, -2.0)) == Interval(2.0, 3.0)
        assert abs(Interval(2.0, 3.0)) == Interval(2.0, 3.0)

    def test_overflow_add_stays_sound(self):
        big = Interval.point(1.7e308)
        s = big + big
        assert s.hi == math.inf
        assert s.lo >= 1.7e308


class TestElementary:
    def test_log_of_2(self):
        lg = Interval.point(2.0).log()
        assert contains_decimal(lg, LN_2)
        assert lg.width <= 4 * math.ulp(lg.lo)

    def test_log_zero_endpoint(self):
        lg = Interval(0.0, 1.0).log()
        assert lg.lo == -math.inf
        assert lg.hi >= 0.0

    def test_log_negative_raises(self):
        with pytest.raises(ValueError):
            Interval(-1.0, 1.0).log()

    @pytest.mark.parametrize("call, message", [
        (lambda: Interval(0.0, 0.0).log(), r"log of \[0, 0\] is degenerate"),
        (lambda: Interval(-2.0, -1.5).log1p(), r"log1p domain: \[-2.0, -1.5\]"),
        (lambda: Interval(-1.0, -1.0).log1p(), r"log1p of \[-1, -1\] is degenerate"),
        (lambda: Interval(-1.0, 0.0).sqrt(), r"sqrt domain: \[-1.0, 0.0\]"),
    ], ids=["log-zero", "log1p-below", "log1p-minus-one", "sqrt-negative"])
    def test_domain_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_exp_log_roundtrip(self):
        x = Interval.point(7.25)
        back = x.log().exp()
        assert x.issubset(back)
        # 4 nudges from log are amplified by exp'(log 7.25) = 7.25, plus
        # 4 nudges from exp itself
        assert back.width <= 16 * math.ulp(7.25)

    def test_exp_underflow_clamps(self):
        e = Interval.point(-1000.0).exp()
        assert e.lo == 0.0
        assert e.hi > 0.0

    def test_exp_overflow(self):
        e = Interval.point(1000.0).exp()
        assert e.hi == math.inf
        assert e.lo > 1e307

    def test_sqrt_2(self):
        r = Interval.point(2.0).sqrt()
        assert contains_decimal(r, SQRT_2)
        assert r.width <= 2 * math.ulp(r.lo)

    def test_log1p_tight_near_zero(self):
        x = 1e-12
        l1 = Interval.point(x).log1p()
        # log(1+x) = x - x^2/2 + ...; plain log(1 + x) would lose half
        # the digits here
        ref = Fraction(x) - Fraction(x) ** 2 / 2 + Fraction(x) ** 3 / 3
        assert contains_fraction(l1, ref)
        assert l1.width <= 4 * math.ulp(x)

    def test_rational_pow_exact_exponent(self):
        p = rational_pow(Interval.point(4.0e18), -1, 5)
        assert contains_decimal(p, POW_4E18_NEG15)
        # log(4e18) = 42.8 carries 4 nudges of 7.1e-15 into the exponent,
        # so the relative width lands near 1e-14
        assert p.width / p.lo < 5e-14
        # the nearest double to -1/5 lands 2.5 ulp away at this base, so
        # math.pow with that double and a two-nudge budget would be unsound
        assert abs(float(POW_4E18_NEG02 - POW_4E18_NEG15)) > 2 * math.ulp(p.lo)

    def test_rational_pow_matches_sqrt(self):
        x = Interval(2.0, 3.0)
        a = rational_pow(x, 1, 2)
        b = x.sqrt()
        assert a.intersects(b)
        assert max(a.hi, b.hi) - min(a.lo, b.lo) <= b.width + 1e-14


class TestEulerGamma:
    def test_adjacent_and_bracketing(self):
        assert math.nextafter(EULER_GAMMA.lo, math.inf) == EULER_GAMMA.hi
        assert contains_decimal(EULER_GAMMA, GAMMA)


class TestExponentialIntegral:
    def test_e1_series_regime(self):
        assert contains_decimal(_e1_point(1.0), E1_AT_1)
        assert contains_decimal(_e1_point(2.5), E1_AT_2_5)
        assert contains_decimal(_e1_point(12.0), E1_AT_12)

    def test_e1_at_log_hundred(self):
        z = float("4.6051701859880913680")
        assert contains_decimal(_e1_point(z), E1_AT_LN100)

    def test_e1_tight(self):
        # the series regime cancels a ~3 magnitude sum down to E1, so its
        # width budget is absolute, not relative
        for z, ref in [(1.0, E1_AT_1), (2.5, E1_AT_2_5), (12.0, E1_AT_12)]:
            iv = _e1_point(z)
            assert iv.width < 1e-14

    def test_e1_against_mpmath_across_regimes(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for z in [0.3, 1.0, 5.0, 11.9, 12.0, 12.0000001, 13.7, 50.0,
                  345.6, 699.5, 700.0, 700.5, 705.0, 1000.0]:
            iv = _e1_point(z)
            truth = mpmath.e1(mpmath.mpf(z))
            assert mpmath.mpf(iv.lo) <= truth <= mpmath.mpf(iv.hi), z
            if z <= 12:
                assert iv.width <= 1e-14, z
            elif z <= 700:
                assert iv.width <= 1e-13 * float(truth), z

    # the continued fraction's hex ends; a change to where the regimes
    # split must not move them.  Four moved inward when the bracket entered
    # at one ulp, each nested in its earlier pin here
    E1_BEFORE = {
        12.0000001: ("0x1.fe24ba8bb630bp-22", "0x1.fe24ba8bb6315p-22"),
        13.7: ("0x1.494f451a797f9p-24", "0x1.494f451a79802p-24"),
        345.6: ("0x1.f4965b3cdcdaep-508", "0x1.f4965b3cdcdb9p-508"),
        699.5: ("0x1.4dbd6d7635666p-1019", "0x1.4dbd6d763566dp-1019"),
    }

    @pytest.mark.parametrize("z, lo, hi", [
        (12.0000001, "0x1.fe24ba8bb630cp-22", "0x1.fe24ba8bb6315p-22"),
        (13.7, "0x1.494f451a797fap-24", "0x1.494f451a79802p-24"),
        (50.0, "0x1.24b743abe9213p-78", "0x1.24b743abe9219p-78"),
        (345.6, "0x1.f4965b3cdcdaep-508", "0x1.f4965b3cdcdb7p-508"),
        (699.5, "0x1.4dbd6d7635667p-1019", "0x1.4dbd6d763566dp-1019"),
    ])
    def test_e1_contfrac_bits(self, z, lo, hi):
        assert_pinned(_e1_point(z), (lo, hi), self.E1_BEFORE.get(z, (lo, hi)))

    def test_contfrac_depth_meets_its_goal_past_the_series(self):
        # _e1_contfrac brackets with depths 32 and 33 alone; they are within
        # 2^-50 relative from the least double above the split on, and
        # closer as z grows, so a split low enough to miss that fails here
        for z in [math.nextafter(_SERIES_MAX, math.inf), 13.0, 20.0]:
            zq = Fraction(z)
            v32, v33 = _cf_convergent(zq, 32), _cf_convergent(zq, 33)
            assert abs(v33 - v32) <= max(v32, v33) / 2**50, z

    @pytest.mark.parametrize("z", [700.5, 705.0, 1000.0, 4000.0, 1e300])
    def test_e1_deep_tail_signs(self, z):
        assert _e1_point(z).lo >= 0.0
        assert ei_neg(Interval.point(-z)).hi <= 0.0

    def test_ei_neg_at_minus_one(self):
        iv = ei_neg(Interval.point(-1.0))
        assert contains_decimal(iv, -E1_AT_1)

    def test_ei_neg_monotone_endpoints(self):
        iv = ei_neg(Interval(-3.0, -2.0))
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for y in [-3.0, -2.5, -2.0]:
            truth = mpmath.ei(mpmath.mpf(y))
            assert mpmath.mpf(iv.lo) <= truth <= mpmath.mpf(iv.hi)

    def test_ei_neg_deep_underflow(self):
        iv = ei_neg(Interval.point(-4000.0))
        # true value is around -1.66e-1741, far below double resolution
        assert iv.lo >= -1e-323
        assert iv.hi <= 0.0
        assert -5e-324 in iv

    def test_ei_neg_unbounded_left(self):
        iv = ei_neg(Interval(-math.inf, -1.0))
        assert iv.hi == 0.0
        assert contains_decimal(iv, -E1_AT_1)

    def test_ei_neg_domain(self):
        with pytest.raises(ValueError):
            ei_neg(Interval(-1.0, 0.0))
        with pytest.raises(ValueError):
            ei_neg(Interval(-1.0, 1.0))


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)
positive = st.floats(
    allow_nan=False, allow_infinity=False, min_value=1e-150, max_value=1e150
)


def make_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


class TestProperties:
    @given(finite, finite, finite, finite)
    def test_add_sub_mul_sound(self, a, b, c, d):
        x = make_interval(a, b)
        y = make_interval(c, d)
        for op, fop in [
            (x + y, lambda p, q: p + q),
            (x - y, lambda p, q: p - q),
            (x * y, lambda p, q: p * q),
        ]:
            for p in (x.lo, x.hi):
                for q in (y.lo, y.hi):
                    exact = fop(Fraction(p), Fraction(q))
                    assert contains_fraction(op, exact)

    @given(finite, finite, positive, positive)
    def test_div_sound(self, a, b, c, d):
        x = make_interval(a, b)
        y = make_interval(c, d)
        quot = x / y
        for p in (x.lo, x.hi):
            for q in (y.lo, y.hi):
                assert contains_fraction(quot, Fraction(p) / Fraction(q))

    @given(positive, positive)
    def test_log_exp_monotone_containment(self, a, b):
        x = make_interval(a, b)
        assert x.issubset(x.log().exp())

    @given(positive, positive)
    def test_sqrt_squares_back(self, a, b):
        x = make_interval(a, b)
        r = x.sqrt()
        assert x.issubset(r * r)

    @given(st.floats(min_value=-700.0, max_value=-1e-3,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_ei_neg_contains_truth(self, y):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        iv = ei_neg(Interval.point(y))
        truth = mpmath.ei(mpmath.mpf(y))
        assert mpmath.mpf(iv.lo) <= truth <= mpmath.mpf(iv.hi)


# ----------------------------------------------------------------------
# The scalar operations against a reference: each operation's formula
# written out on (lo, hi) float pairs, and every result passed through
# float() and three separate checks (NaN, order, an infinite point) instead
# of interval._interval's one comparison.  Ends must agree bit for bit (hex
# tells -0 from +0); an operation that raises must raise the same
# exception and text.


def _ref_new(lo, hi):
    lo, hi = float(lo), float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoint is NaN")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo!r} > hi={hi!r}")
    if lo == hi and math.isinf(lo):
        raise ValueError("degenerate infinite interval")
    return lo, hi


def _dn(x, steps=1):
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _upn(x, steps=1):
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def _ref_bracket(q):
    lo = hi = float(q)
    if math.isnan(lo):
        raise ValueError("NaN is not an exact value")
    return _ref_new(_dn(lo) if lo > q else lo, _upn(hi) if hi < q else hi)


def _ref_coerce(y):
    if isinstance(y, tuple):
        return y
    return _ref_bracket(y) if isinstance(y, int) else _ref_new(y, y)


def _ref_add(x, y):
    return _ref_new(_dn(x[0] + y[0]), _upn(x[1] + y[1]))


def _ref_sub(x, y):
    return _ref_new(_dn(x[0] - y[1]), _upn(x[1] - y[0]))


def _ref_mul(x, y):
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    cands = [p for p in products if not math.isnan(p)] or [0.0]
    return _ref_new(_dn(min(cands)), _upn(max(cands)))


def _ref_div(x, y):
    if y[0] <= 0.0 <= y[1]:
        raise ZeroDivisionError(f"divisor interval contains zero: [{y[0]!r}, {y[1]!r}]")
    quotients = (x[0] / y[0], x[0] / y[1], x[1] / y[0], x[1] / y[1])
    cands = [q for q in quotients if not math.isnan(q)]
    return _ref_new(_dn(min(cands)), _upn(max(cands)))


def _ref_log(x, fn=math.log, floor=0.0, name="log"):
    if x[0] < floor:
        raise ValueError(f"{name} domain: [{x[0]!r}, {x[1]!r}]")
    if x[1] <= floor:
        raise ValueError(f"{name} of [{floor:.0f}, {floor:.0f}] is degenerate")
    lo = -math.inf if x[0] == floor else _dn(fn(x[0]), 2)
    hi = math.inf if math.isinf(x[1]) else _upn(fn(x[1]), 2)
    return _ref_new(lo, hi)


def _ref_exp(x):
    try:
        lo = 0.0 if x[0] == -math.inf else max(0.0, _dn(math.exp(x[0]), 2))
    except OverflowError:
        lo = _dn(sys.float_info.max, 2)
    try:
        hi = math.inf if math.isinf(x[1]) else _upn(math.exp(x[1]), 2)
    except OverflowError:
        hi = math.inf
    return _ref_new(lo, hi)


def _ref_sqrt(x):
    if x[0] < 0.0:
        raise ValueError(f"sqrt domain: [{x[0]!r}, {x[1]!r}]")
    return _ref_new(
        max(0.0, _dn(math.sqrt(x[0]))), _upn(math.sqrt(x[1])) if not math.isinf(x[1]) else math.inf
    )


def _ref_abs(x):
    if x[0] >= 0.0:
        return x
    return _ref_new(-x[1], -x[0]) if x[1] <= 0.0 else _ref_new(0.0, max(-x[0], x[1]))


def _ref_rational_pow(x, num, den):
    if den == 0:
        raise ZeroDivisionError("rational_pow: zero denominator")
    q = Fraction(num, den)
    return (1.0, 1.0) if q == 0 else _ref_exp(_ref_mul(_ref_bracket(q), _ref_log(x)))


def _outcome(compute):
    """The result's ends as hex, or the exception's type and text."""
    try:
        got = compute()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Interval):
        got = (got.lo, got.hi)
    assert all(type(end) is float for end in got)
    return got[0].hex(), got[1].hex()


_SPECIAL = [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324,
            sys.float_info.max, -sys.float_info.max]
_end = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False))
# ends include 0 and inf together, so 0 * inf and inf / inf corners occur
_ends = st.tuples(_end, _end).map(sorted).filter(lambda e: not (e[0] == e[1] and math.isinf(e[0])))
_scalar = st.one_of(_end, st.integers(-2**70, 2**70), st.integers(-3, 3))


class TestSameBits:
    BINARY = [
        (_ref_add, lambda x, y: x + y),
        (_ref_sub, lambda x, y: x - y),
        (_ref_mul, lambda x, y: x * y),
        (_ref_div, lambda x, y: x / y),
    ]

    @given(_ends, _ends, _scalar)
    @settings(max_examples=400, deadline=None)
    def test_binary_operations(self, x, y, s):
        xi, yi = Interval(*x), Interval(*y)
        for ref, op in self.BINARY:
            assert _outcome(lambda: op(xi, yi)) == _outcome(lambda: ref(x, y))
            # a float or int operand, on the right and then on the left
            assert _outcome(lambda: op(xi, s)) == _outcome(lambda: ref(x, _ref_coerce(s)))
            assert _outcome(lambda: op(s, xi)) == _outcome(
                lambda: (ref(x, _ref_coerce(s)) if ref in (_ref_add, _ref_mul)
                         else ref(_ref_coerce(s), x))
            )

    @given(_ends, st.integers(-4, 4), st.integers(-3, 5))
    @settings(max_examples=400, deadline=None)
    def test_unary_operations(self, x, num, den):
        xi = Interval(*x)
        pairs = [
            (lambda: -xi, lambda: _ref_new(-x[1], -x[0])),
            (lambda: abs(xi), lambda: _ref_abs(x)),
            (xi.log, lambda: _ref_log(x)),
            (xi.log1p, lambda: _ref_log(x, math.log1p, -1.0, "log1p")),
            (xi.exp, lambda: _ref_exp(x)),
            (xi.sqrt, lambda: _ref_sqrt(x)),
            (lambda: rational_pow(xi, num, den), lambda: _ref_rational_pow(x, num, den)),
        ]
        for new, ref in pairs:
            assert _outcome(new) == _outcome(ref)

    @given(st.one_of(_end, st.just(math.nan), st.integers(-3, 3)),
           st.one_of(_end, st.just(math.nan), st.integers(-3, 3)))
    def test_construction(self, lo, hi):
        assert _outcome(lambda: Interval(lo, hi)) == _outcome(lambda: _ref_new(lo, hi))
        assert _outcome(lambda: Interval.point(hi)) == _outcome(lambda: _ref_new(hi, hi))

    @pytest.mark.parametrize("down, up, message", [
        (math.nan, 1.0, "interval endpoint is NaN"),
        (1.0, math.nan, "interval endpoint is NaN"),
        (2.0, 1.0, "empty interval: lo=2.0 > hi=1.0"),
        (math.inf, math.inf, "degenerate infinite interval"),
        (-math.inf, -math.inf, "degenerate infinite interval"),
    ])
    def test_invalid_result_raises_the_constructors_text(self, monkeypatch, down, up, message):
        from brun import interval

        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Interval(down, up)
        # every operation's result passes the same check
        monkeypatch.setattr(interval, "_down", lambda x: down)
        monkeypatch.setattr(interval, "_up", lambda x: up)
        for op in (lambda a: a + a, lambda a: a - 1, lambda a: a * a, lambda a: 2.0 / a):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                op(Interval(1.0, 2.0))
