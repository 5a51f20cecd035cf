"""Divisor-sum error term: exact-sum containment and the supremum scan."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brun.divisor_error import (
    _POW_PAD,
    GAMMA0,
    GAMMA1,
    divisor_sum,
    error_term,
    scan_c,
)
from brun.interval import Interval


def exact_divisor_sum(x: int) -> Fraction:
    counts = [0] * (x + 1)
    for k in range(1, x + 1):
        for m in range(k, x + 1, k):
            counts[m] += 1
    return sum(Fraction(counts[n], n) for n in range(1, x + 1))


class TestGammaWindows:
    def test_contain_true_constants(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        g0 = mpmath.euler
        g1 = mpmath.stieltjes(1)
        assert mpmath.mpf(GAMMA0.lo) <= g0 <= mpmath.mpf(GAMMA0.hi)
        assert mpmath.mpf(GAMMA1.lo) <= g1 <= mpmath.mpf(GAMMA1.hi)


class TestDivisorSum:
    def test_small_exact(self):
        for x in (1, 2, 3, 10, 50):
            iv = divisor_sum(x)
            exact = exact_divisor_sum(x)
            assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)

    def test_thousand_exact_and_tight(self):
        iv = divisor_sum(1000)
        exact = exact_divisor_sum(1000)
        assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)
        assert iv.width < 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            divisor_sum(0)


class TestErrorTerm:
    def test_at_one_closed_form(self):
        # E(1) = 1 - g0^2 + 2 g1
        iv = error_term(1)
        closed = 1 - GAMMA0 * GAMMA0 + 2 * GAMMA1
        assert iv.intersects(closed)
        assert 0.52119038 in iv
        assert iv.width < 1e-6

    def test_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        x = 1000
        iv = error_term(x)
        d_exact = exact_divisor_sum(x)
        g0 = mpmath.euler
        g1 = mpmath.stieltjes(1)
        lg = mpmath.log(x)
        truth = (
            mpmath.mpf(d_exact.numerator) / d_exact.denominator
            - lg**2 / 2
            - 2 * g0 * lg
            - g0**2
            + 2 * g1
        )
        assert mpmath.mpf(iv.lo) <= truth <= mpmath.mpf(iv.hi)

    def test_negative_just_below_two(self):
        # D jumps at 2; immediately before, E(x) is already about -0.5,
        # which is why the scan must track both signs
        iv = error_term(1)
        a2_low = 0.5 * math.log(2.0) ** 2 + 2 * GAMMA0.lo * math.log(2.0)
        assert 1.0 - (a2_low + (GAMMA0 * GAMMA0 - 2 * GAMMA1).lo) < -0.4


class TestScan:
    def test_third_window(self):
        scan = scan_c(Fraction(1, 3), 10**4)
        assert 1.6407 <= scan.bound.lo
        assert scan.bound.hi <= 1.6409
        assert scan.bound.width < 5e-6

    def test_third_peak_location(self):
        scan = scan_c(Fraction(1, 3), 10**4)
        assert scan.argmax == pytest.approx(7.345e-4, rel=1e-3)

    def test_third_refutes_smaller_constant(self):
        scan = scan_c(Fraction(1, 3), 10**3)
        assert scan.bound.lo > 1.16

    def test_two_fifths(self):
        scan = scan_c(Fraction(2, 5), 10**4)
        assert scan.bound.hi <= 1.0503
        assert scan.bound.lo > 1.0502

    def test_head_dominates_scanned_part(self):
        scan = scan_c(Fraction(1, 3), 10**4)
        assert scan.head.hi > scan.scanned.hi
        assert scan.bound.hi == scan.head.hi

    def test_deterministic(self):
        a = scan_c(Fraction(1, 3), 2000)
        b = scan_c(Fraction(1, 3), 2000)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_c(Fraction(3, 2), 100)
        with pytest.raises(ValueError):
            scan_c(Fraction(1, 3), 0)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=25, deadline=None)
    def test_pointwise_domination(self, x):
        # any achieved value |E(x)| x^alpha must sit below the scan bound
        alpha = Fraction(1, 3)
        scan = scan_c(alpha, 2000)
        iv = abs(error_term(x))
        achieved = iv.lo * math.pow(x, float(alpha)) * (1.0 - 1e-12)
        assert achieved <= scan.bound.hi


class TestPowerPad:
    """``_POW_PAD`` against 40-digit powers with the exact rational exponent."""

    @pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(1, 3)])
    def test_np_power(self, alpha):
        rng = np.random.default_rng(2018)
        x = np.exp(rng.uniform(math.log(3.5), math.log(1e10), 3000))
        got = np.power(x, float(alpha))
        worst = 0.0
        with mpmath.workdps(40):
            a = mpmath.mpf(alpha.numerator) / alpha.denominator
            for xi, yi in zip(x.tolist(), got.tolist()):
                exact = mpmath.mpf(xi) ** a
                worst = max(worst, float(abs((yi - exact) / exact)))
        assert worst <= _POW_PAD / 2, worst / _POW_PAD
