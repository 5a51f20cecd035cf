"""Divisor-sum error term: exact-sum containment and the supremum scan."""

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brun import divisor_error
from brun.divisor_error import (
    _BLOCK,
    _POW_PAD,
    GAMMA0,
    GAMMA1,
    _divisor_counts,
    _log_range,
    _model_range,
    _scan_supremum,
    _vdn,
    _vup,
    divisor_sum,
    error_term,
    scan_c,
)
from conftest import assert_pinned, hex_ends


def divisor_counts_by_multiples(x: int) -> list:
    """d(n) for n = 0..x, one pass over the multiples of every k <= x."""
    counts = [0] * (x + 1)
    for k in range(1, x + 1):
        for m in range(k, x + 1, k):
            counts[m] += 1
    return counts


def exact_divisor_sum(x: int) -> Fraction:
    counts = divisor_counts_by_multiples(x)
    return sum(Fraction(counts[n], n) for n in range(1, x + 1))


# Captured before the scan walked n in blocks, at xmax around its block
# size B = 2^15.  The head and bound moved inward, and the argmax with
# them, when alpha entered as the two doubles next to it; each moved pin
# is followed by the one it nests in.
B = 1 << 15
SCAN_ALPHAS = (Fraction(1, 3), Fraction(2, 5), Fraction(9, 20))
HEAD_PINS = {  # alpha: (head, head before)
    Fraction(1, 3): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
    ),
    Fraction(2, 5): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
    ),
    Fraction(9, 20): (
        ("0x1.8f7c7c703b3cep-1", "0x1.8f7c988ae19a4p-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.8f7c988ae19a8p-1"),
    ),
}
SCAN_PINS = {  # (alpha, xmax): (bound, bound before, scanned, argmax)
    (Fraction(1, 3), 1): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.0ad972526ca6ep-1", "0x1.0ad97ce80f7adp-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), 2): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.503599f677e89p-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), B - 1): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.6304aedb294aap-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), B): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.6304aedb294aap-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), B + 1): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.6304aedb294aap-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), 2 * B + 1): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.6304aedb294aap-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(1, 3), 10**6): (
        ("0x1.a40cb0724f544p+0", "0x1.a40cc3f04f862p+0"),
        ("0x1.a40cb0724f53bp+0", "0x1.a40cc3f04f86ep+0"),
        ("0x1.362302372df07p-1", "0x1.6304aedb294aap-1"),
        "0x1.81181a80225b8p-11",
    ),
    (Fraction(2, 5), 1): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.0ad972526ca6ep-1", "0x1.0ad97ce80f7adp-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), 2): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.44cded0abd4c1p-1", "0x1.601c300e42b8ep-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), B - 1): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), B): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), B + 1): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), 2 * B + 1): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(2, 5), 10**6): (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
        ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
        "0x1.029084d1dafc8p-9",
    ),
    (Fraction(9, 20), 1): (
        ("0x1.8f7c7c703b3cep-1", "0x1.8f7c988ae19a4p-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.8f7c988ae19a8p-1"),
        ("0x1.0ad972526ca6ep-1", "0x1.0ad97ce80f7adp-1"),
        "0x1.bea65e29ab6edp-9",
    ),
    (Fraction(9, 20), 2): (
        ("0x1.8f7c7c703b3cep-1", "0x1.8f7c988ae19a4p-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.8f7c988ae19a8p-1"),
        ("0x1.504233a5f3f78p-1", "0x1.6c86f97d957c3p-1"),
        "0x1.bea65e29ab6edp-9",
    ),
    (Fraction(9, 20), B - 1): (
        ("0x1.8f7c7c703b3cep-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.86968580177ebp-1", "0x1.96a35fa1fdfaep-1"),
        "0x1.8000000000000p+3",
    ),
    (Fraction(9, 20), B): (
        ("0x1.8f7c7c703b3cep-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.86968580177ebp-1", "0x1.96a35fa1fdfaep-1"),
        "0x1.8000000000000p+3",
    ),
    (Fraction(9, 20), B + 1): (
        ("0x1.8f7c7c703b3cep-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.86968580177ebp-1", "0x1.96a35fa1fdfaep-1"),
        "0x1.8000000000000p+3",
    ),
    (Fraction(9, 20), 2 * B + 1): (
        ("0x1.8f7c7c703b3cep-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.86968580177ebp-1", "0x1.96a35fa1fdfaep-1"),
        "0x1.8000000000000p+3",
    ),
    (Fraction(9, 20), 10**6): (
        ("0x1.8f7c7c703b3cep-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.8f7c7c703b3c7p-1", "0x1.96a35fa1fdfaep-1"),
        ("0x1.86968580177ebp-1", "0x1.96a35fa1fdfaep-1"),
        "0x1.8000000000000p+3",
    ),
}
POINT_PINS = {  # x: (divisor_sum, error_term)
    1: (
        ("0x1.fffffffffffffp-1", "0x1.0000000000002p+0"),
        ("0x1.0ad972526cacdp-1", "0x1.0ad97ce80f74dp-1"),
    ),
    2: (
        ("0x1.fffffffffffffp+0", "0x1.0000000000002p+1"),
        ("0x1.ec4fb862e715bp-2", "0x1.ec4fd6dbcf5d5p-2"),
    ),
    10: (
        ("0x1.8027027027025p+2", "0x1.802702702702ap+2"),
        ("0x1.b72f41402af3fp-3", "0x1.b72fa965f4ba1p-3"),
    ),
    1000: (
        ("0x1.028c2d947c4adp+5", "0x1.028c2d947c4cep+5"),
        ("0x1.ae4605a8dbfffp-8", "0x1.ae627e3204001p-8"),
    ),
    10**5: (
        ("0x1.402c9a9f8c8d2p+6", "0x1.402c9a9f8ceefp+6"),
        ("0x1.252561d07ffffp-13", "0x1.2aa2eff380001p-13"),
    ),
}


class TestVectorSteps:
    """``_vdn``/``_vup`` equal ``np.nextafter`` toward -inf/+inf bit for bit."""

    STEPS = [(_vdn, -math.inf), (_vup, math.inf)]
    TINY = 2.2250738585072014e-308
    SPECIAL = [0.0, 5e-324, TINY, 1.0, sys.float_info.max, math.inf]

    @staticmethod
    def assert_same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])

    @staticmethod
    def nextafter(a, toward):
        # np.nextafter itself flags overflow, underflow and signalling NaNs
        with np.errstate(all="ignore"):
            return np.nextafter(a, toward)

    @pytest.mark.parametrize("step, toward", STEPS)
    def test_random_bit_patterns(self, step, toward):
        rng = np.random.default_rng(2018)
        info = np.iinfo(np.int64)
        bits = rng.integers(info.min, info.max, 10**5, dtype=np.int64, endpoint=True)
        x = bits.view(np.float64)
        with np.errstate(invalid="ignore"):  # signalling NaNs among the patterns
            got = step(x)
        self.assert_same(got, self.nextafter(x, toward))

    @pytest.mark.parametrize("step, toward", STEPS)
    def test_special_values_without_warnings(self, step, toward):
        widest_nan = np.array([0x7FFF_FFFF_FFFF_FFFF, -1], dtype=np.int64).view(np.float64)
        x = np.array(self.SPECIAL + [-v for v in self.SPECIAL] + [math.nan])
        x = np.concatenate([x, widest_nan])
        # a Python float, a numpy scalar and a 0-d array
        singles = (1.5, np.float64(-0.0), np.array(math.inf))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = step(x)
            got_singles = [step(v) for v in singles]
        self.assert_same(got, self.nextafter(x, toward))
        assert np.isnan(got[-3:]).all()
        for got_one, v in zip(got_singles, singles):
            self.assert_same(got_one, self.nextafter(v, toward))


class TestGammaWindows:
    def test_contain_true_constants(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        g0 = mpmath.euler
        g1 = mpmath.stieltjes(1)
        assert mpmath.mpf(GAMMA0.lo) <= g0 <= mpmath.mpf(GAMMA0.hi)
        assert mpmath.mpf(GAMMA1.lo) <= g1 <= mpmath.mpf(GAMMA1.hi)


class TestDivisorSum:
    def test_divisor_counts_brute_force(self):
        counts = divisor_counts_by_multiples(300)
        for xmax in range(1, 301):
            got = _divisor_counts(xmax)
            assert got.dtype == np.int32
            assert got.tolist() == counts[1 : xmax + 1], xmax

    def test_small_exact(self):
        for x in (1, 2, 3, 10, 50):
            iv = divisor_sum(x)
            exact = exact_divisor_sum(x)
            assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)

    def test_thousand_exact_and_tight(self):
        iv = divisor_sum(1000)
        exact = exact_divisor_sum(1000)
        assert Fraction(iv.lo) <= exact <= Fraction(iv.hi)
        # 1000 floored terms lose under 2^-52 each; one ulp per end
        assert iv.width <= 1000 * 2**-52 + 2 * math.ulp(iv.hi)

    def test_units_overflow_guard(self, monkeypatch):
        # d(m) 2^52 no longer fits in int64 from d(m) = 2^11 on
        def counts(xmax):
            return np.full(xmax, 1 << 11, dtype=np.int64)

        monkeypatch.setattr(divisor_error, "_divisor_counts", counts)
        with pytest.raises(ValueError, match="overflow"):
            divisor_sum(10)
        with pytest.raises(ValueError, match="overflow"):
            scan_c(Fraction(2, 5), 10)

    def test_domain(self):
        with pytest.raises(ValueError):
            divisor_sum(0)

    @pytest.mark.parametrize("x", sorted(POINT_PINS))
    def test_point_bits(self, x):
        sum_pin, error_pin = POINT_PINS[x]
        assert hex_ends(divisor_sum(x)) == sum_pin
        assert hex_ends(error_term(x)) == error_pin


class TestErrorTerm:
    def test_zero_raises(self):
        with pytest.raises(ValueError, match="error_term needs x >= 1: 0"):
            error_term(0)

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

    def test_exact_bits(self):
        # bound, head and argmax were captured before the divisor counts
        # were built from divisor pairs, and moved when alpha entered at
        # one ulp; the scanned part nests in its pin from before the
        # prefix sums added exact integers
        scan = scan_c(Fraction(2, 5), 10**5)
        for iv in (scan.bound, scan.head):
            assert_pinned(
                iv,
                ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
                ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
            )
        assert_pinned(
            scan.scanned,
            ("0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"),
            ("0x1.5ae021eb6d752p-1", "0x1.7dfef9da61bedp-1"),
        )
        assert scan.argmax.hex() == "0x1.029084d1dafc8p-9"

    @pytest.mark.parametrize("alpha, xmax", sorted(SCAN_PINS))
    def test_bits_around_blocks(self, alpha, xmax):
        bound, before, scanned, argmax = SCAN_PINS[alpha, xmax]
        scan = scan_c(alpha, xmax)
        assert_pinned(scan.bound, bound, before)
        assert_pinned(scan.head, *HEAD_PINS[alpha])
        assert hex_ends(scan.scanned) == scanned
        assert scan.argmax.hex() == argmax

    def test_block_size_invariant(self, monkeypatch):
        # blocks of 1, 2, 3 and 7 points put a block end at every kind of
        # n: the carried sum, the overlap point and the running maxima
        # must reproduce the default walk bit for bit
        cases = [(a, x) for a in SCAN_ALPHAS for x in (1, 2, 3, 7, 8, 15, 2000)]
        want = {case: _scan_supremum(*case) for case in cases}
        for block in (1, 2, 3, 7):
            monkeypatch.setattr(divisor_error, "_BLOCK", block)
            for case in cases:
                (got, got_at), (ref, ref_at) = _scan_supremum(*case), want[case]
                assert hex_ends(got) == hex_ends(ref), (block, case)
                assert got_at.hex() == ref_at.hex(), (block, case)

    def test_block_size_invariant_divisor_sum(self, monkeypatch):
        # the last block's last unit is D(x) whatever the block ends
        xs = (1, 2, 3, 7, 8, 15, 2000)
        want = {x: hex_ends(divisor_sum(x)) for x in xs}
        for block in (1, 2, 3, 7):
            monkeypatch.setattr(divisor_error, "_BLOCK", block)
            for x in xs:
                assert hex_ends(divisor_sum(x)) == want[x], (block, x)

    def test_first_argmax_on_ties(self, monkeypatch):
        # a model window wide enough to hold every D(n) gives each point the
        # same achieved value, so the location must stay at n = 1
        def wide_model(n):
            return np.zeros_like(n), np.full_like(n, 1e6)

        monkeypatch.setattr(divisor_error, "_model_range", wide_model)
        for block in (1, 2, 3, 7, _BLOCK):
            monkeypatch.setattr(divisor_error, "_BLOCK", block)
            scanned, where = _scan_supremum(Fraction(2, 5), 50)
            assert scanned.lo == 0.0
            assert where == 1.0, block

    @staticmethod
    def traced_peak_mib(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_memory_peak(self):
        # one whole-range array of int32 divisor counts (4 MB) plus one
        # block of temporaries (about 1.3 MB); int64 counts in blocks of
        # 2^15 peaked at 13.6 MiB
        peak = self.traced_peak_mib(scan_c, Fraction(2, 5), 10**6)
        assert peak < 7, peak

    def test_memory_peak_divisor_sum(self):
        # the same counts and one block of int64 units; three whole-range
        # int64 arrays peaked at 15.3 MiB
        peak = self.traced_peak_mib(divisor_sum, 10**6)
        assert peak < 6, peak

    def test_deterministic(self):
        a = scan_c(Fraction(1, 3), 2000)
        b = scan_c(Fraction(1, 3), 2000)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            scan_c(Fraction(3, 2), 100)
        with pytest.raises(ValueError):
            scan_c(Fraction(1, 3), 0)

    @pytest.mark.parametrize("alpha", [
        Fraction(1, 10**400), Fraction(1, 10**323), Fraction(3, 2**1074) - Fraction(1, 2**1100),
    ])
    def test_alpha_too_small_to_halve(self, alpha):
        # the head divides by an enclosure of alpha/2, which would contain 0
        with pytest.raises(ValueError, match="alpha/2 not enclosed above 0"):
            scan_c(alpha, 100)

    @pytest.mark.parametrize("alpha", [Fraction(3, 2**1074), Fraction(1, 10**320)])
    def test_tiny_alpha_bound_is_sound(self, alpha):
        # the head's supremum, about 2 / (e alpha)^2, overflows a double
        scan = scan_c(alpha, 100)
        assert scan.bound.lo > 0.52 and scan.bound.hi == math.inf

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


class TestAnalyticBounds:
    """The two-ulp ``np.log`` pipeline against 40-digit log n and A(n)."""

    XMAX = 10**6

    def test_log_and_model_oracle(self):
        rng = np.random.default_rng(2018)
        sample = np.exp(rng.uniform(0.0, math.log(self.XMAX), 3000)).astype(np.int64)
        powers = [2**k for k in range(self.XMAX.bit_length())]
        ns = sorted(set(range(1, 2001)) | set(powers) | set(sample.tolist()))
        assert ns[-1] <= self.XMAX
        n = np.arange(1, self.XMAX + 1, dtype=np.float64)
        log_lo, log_hi = _log_range(n)
        a_lo, a_hi = _model_range(n)
        with mpmath.workdps(40):
            g0 = mpmath.euler
            g1 = mpmath.stieltjes(1)
            for n in ns:
                log_n = mpmath.log(n)
                a = log_n * log_n / 2 + 2 * g0 * log_n + g0 * g0 - 2 * g1
                i = n - 1
                assert mpmath.mpf(log_lo[i]) <= log_n <= mpmath.mpf(log_hi[i]), n
                assert mpmath.mpf(a_lo[i]) <= a <= mpmath.mpf(a_hi[i]), n
