"""Density series g, the H product bound, and the twin prime constant."""

import functools
import math
import multiprocessing
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brun import sieve
from brun.euler_product import (
    _VEC_PAD,
    _h_local_log_terms,
    _log_sum,
    _segment_sum,
    _shard_log_sum,
    _twin_local_log_terms,
    g_factor_log,
    g_value,
    h_bound,
    twin_constant,
)
from brun.interval import Interval
from brun.rv_bound import DEFAULT_H_LOG
from conftest import assert_pinned, hex_ends, segment_size, usable_cpus

# frozen 30-digit references, computed independently
GFL_3 = Decimal("1.92322629793825809250042793358")
GFL_2 = Decimal("1.05785106398282508102243570912")
S1_1E5 = Decimal("6.758778614165955429185491")
FIRST_1E6 = Decimal("-0.014940064695641108657")
INTEGRAL_1E6 = Decimal("0.069896725051327961766")
# the twin prime constant to 21 digits
TWIN_C = Decimal("1.32032363169373914786")


def contains(iv: Interval, d: Decimal) -> bool:
    return Decimal(iv.lo) <= d <= Decimal(iv.hi)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestGValues:
    def test_powers_of_two(self):
        assert g_value(2) == 0
        assert g_value(4) == Fraction(-3, 4)
        assert g_value(8) == Fraction(1, 4)
        assert g_value(16) == 0

    def test_odd_prime_powers(self):
        assert g_value(3) == Fraction(4, 3)
        assert g_value(9) == Fraction(-11, 9)
        assert g_value(27) == Fraction(2, 9)
        assert g_value(81) == 0
        assert g_value(5) == Fraction(4, 15)
        assert g_value(25) == Fraction(-17, 75)
        assert g_value(125) == Fraction(2, 75)

    def test_one(self):
        assert g_value(1) == 1

    def test_zero_raises(self):
        with pytest.raises(ValueError, match="g is defined on positive integers: 0"):
            g_value(0)

    def test_gfactor_rejects_composite(self):
        with pytest.raises(ValueError, match="not a prime"):
            g_factor_log(9, Fraction(-2, 5))

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_on_coprime_parts(self, m, n):
        if math.gcd(m, n) == 1:
            assert g_value(m * n) == g_value(m) * g_value(n)


class TestLocalFactorLog:
    def test_at_three(self):
        iv = g_factor_log(3, Fraction(-2, 5))
        assert contains(iv, GFL_3)
        assert iv.width < 1e-13

    def test_at_two(self):
        iv = g_factor_log(2, Fraction(-2, 5))
        assert contains(iv, GFL_2)

    def test_rejects_bad_s(self):
        for s in (Fraction(1, 3), Fraction(-1, 2), Fraction(0), Fraction(-2, 3)):
            with pytest.raises(ValueError):
                g_factor_log(3, s)


@pytest.mark.usefixtures("pool_requests")  # terms closures record blocks in-process
class TestPrimeBlocks:
    """The prime blocks both products sum: one per class array of a segment."""

    @staticmethod
    def fold(cutoff):
        blocks = []

        def terms(pf):
            blocks.append([int(p) for p in pf])
            return np.zeros_like(pf)

        total, pi_cutoff = _log_sum(cutoff, terms)
        assert total == Interval(0.0, 0.0)
        return blocks, pi_cutoff

    def check(self, cutoff, blocks, pi_cutoff):
        odd_primes = [n for n in range(3, cutoff + 1) if is_prime(n)]
        assert pi_cutoff == len(odd_primes) + (cutoff >= 2), cutoff
        assert sorted(p for b in blocks for p in b) == odd_primes, cutoff
        assert bool(blocks) == (cutoff >= 3), cutoff
        # the first segment's blocks: [3] and one per class
        assert cutoff < 3 or any(3 in b for b in blocks[:3]), cutoff

    def test_one_block_per_cutoff(self):
        # one segment up to 400: its [3] and one block per class
        for cutoff in range(401):
            blocks, pi_cutoff = self.fold(cutoff)
            assert len(blocks) == 3 * (cutoff >= 3)
            self.check(cutoff, blocks, pi_cutoff)

    def test_short_segments(self, pool_requests):
        # from 6 segments a worker the shards are folded in turn, in-process
        for size in (2, 7, 30):
            with segment_size(size):
                for cutoff in range(401):
                    self.check(cutoff, *self.fold(cutoff))
        assert bool(pool_requests) == (usable_cpus() >= 2)

    def test_class_order_leaves_bits(self, monkeypatch):
        # every part of every segment is added exactly, so the order in which
        # members() hands over the classes cannot matter
        members, seen = sieve._Segment.members, []

        def reversed_members(segment):
            seen.append(segment.lo)
            return members(segment)[::-1]

        monkeypatch.setattr(sieve._Segment, "members", reversed_members)
        report = h_bound(10**6, Fraction(2, 5))
        assert_pinned(
            report.partial_log_sum,
            ("0x1.b368c4754023fp+2", "0x1.b368c475402a0p+2"),
            ("0x1.b368c4754023ep+2", "0x1.b368c475402a1p+2"),
        )
        assert_pinned(
            report.h,
            ("0x1.c264d02fed2c0p+9", "0x1.dbd6b66a8bf0ep+9"),
            ("0x1.c264d02fed2b9p+9", "0x1.dbd6b66a8bf1dp+9"),
        )
        assert_pinned(
            twin_constant(10**6),
            ("0x1.5200ba7efc024p+0", "0x1.5200bc42998adp+0"),
            ("0x1.5200ba7efc024p+0", "0x1.5200bc42998aep+0"),
        )
        assert seen == [3, 3]


BLOCK = 1 << 15  # _segment_sum's block length


@st.composite
def term_arrays(draw):
    """One float64 array: drawn floats, or a seeded bulk of a drawn length.

    Magnitudes run from 2^-1074 to 2^600, of one sign or mixed, with zeros
    and subnormals; the bulk lengths straddle the block length."""
    finite = st.floats(-(2.0**600), 2.0**600, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        return np.array(draw(st.lists(finite, max_size=12)), dtype=np.float64)
    n = draw(st.sampled_from([0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1]))
    lo = draw(st.integers(-1073, 600))
    hi = min(lo + draw(st.sampled_from([0, 1, 8, 60, 1700])), 600)  # exponent window
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(lo, hi + 1, n))
    sign = draw(st.sampled_from([1.0, -1.0, 0.0]))  # 0.0: mixed signs
    x *= sign or rng.choice([-1.0, 1.0], n)
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    return x


def exact_sum(arrays) -> Fraction:
    """The exact sum of the float64 ``arrays``, added in units of 2^-1074."""
    units = 0
    for x in np.concatenate([np.empty(0), *arrays]).tolist():
        n, d = x.as_integer_ratio()  # d = 2^k with k <= 1074
        units += n << (1075 - d.bit_length())
    return Fraction(units, 1 << 1074)


class TestSegmentSum:
    """The parts ``_segment_sum`` returns add up to the arrays' exact sum."""

    @staticmethod
    def check(*arrays):
        kept = [a.copy() for a in arrays]
        parts = _segment_sum(iter(arrays))
        assert all(math.isfinite(x) for x in parts)
        assert sum(map(Fraction, parts)) == exact_sum(arrays)
        for a, b in zip(arrays, kept):
            assert np.array_equal(a, b)  # the caller's arrays are not written

    @given(st.lists(term_arrays(), min_size=1, max_size=3))
    @example([np.array([2.0**600, 1.0, -(2.0**600), 2.0**-1074])])  # fsum drops the last
    @settings(max_examples=150, deadline=None)
    def test_parts_are_exact(self, arrays):
        self.check(*arrays)

    def test_empty(self):
        assert _segment_sum(iter([])) == []
        self.check(np.empty(0))
        self.check(np.empty(0), np.array([-0.0]), np.empty(0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0**1022])
    def test_raises_without_finite_grid(self, bad):
        # a NaN or infinity, or a term whose grid sigma overflows
        for at in (0, BLOCK + 3):
            x = np.ones(BLOCK + 5)
            x[at] = bad
            with pytest.raises(ValueError):
                _segment_sum(iter([np.ones(3), x]))


class TestVectorPad:
    """``_VEC_PAD`` against 40-digit values of both kinds of local log terms."""

    @staticmethod
    def worst_relative_error(terms, exact) -> float:
        rng = np.random.default_rng(2018)
        x = np.exp(rng.uniform(math.log(3.5), math.log(1e10), 3000))
        got = terms(x)
        worst = 0.0
        with mpmath.workdps(40):
            for xi, yi in zip(x.tolist(), got.tolist()):
                want = exact(mpmath.mpf(xi))
                worst = max(worst, float(abs((yi - want) / want)))
        return worst

    @pytest.mark.parametrize("alpha", [Fraction(2, 5), Fraction(1, 3)])
    def test_local_log_terms(self, alpha):
        def exact(p):
            a = mpmath.mpf(alpha.numerator) / alpha.denominator
            num = (
                4 * p ** (1 + a)
                + 3 * p ** (1 + 2 * a)
                + 2 * p ** (2 * a)
                + 2 * p ** (3 * a)
            )
            return mpmath.log1p(num / (p * p * (p - 2)))

        worst = self.worst_relative_error(lambda x: _h_local_log_terms(x, alpha), exact)
        assert worst <= _VEC_PAD / 2, worst / _VEC_PAD

    def test_twin_local_log_terms(self):
        def exact(p):
            return mpmath.log1p(-1 / ((p - 1) * (p - 1)))

        worst = self.worst_relative_error(_twin_local_log_terms, exact)
        assert worst <= _VEC_PAD / 2, worst / _VEC_PAD


@pytest.mark.usefixtures("pool_requests")  # short segments: shards folded in-process
class TestLogSum:
    """The exact sum of the float terms, padded once, against a 40-digit oracle."""

    @pytest.mark.parametrize("segment", [7, 30, 4096])
    def test_twin_partial_sum_contains_oracle(self, segment):
        with segment_size(segment):
            total, pi_cutoff = _log_sum(10**4, _twin_local_log_terms)
        assert pi_cutoff == 1229
        with mpmath.workdps(40):
            exact = mpmath.fsum(
                mpmath.log1p(-mpmath.mpf(1) / ((p - 1) * (p - 1)))
                for p in range(3, 10**4 + 1)
                if is_prime(p)
            )
            assert mpmath.mpf(total.lo) <= exact <= mpmath.mpf(total.hi)
        # the pad budget 2 eps |Y|, plus directed rounding: each end is the
        # double next to its exact value, at most 1 ulp from it
        assert total.width <= 2 * _VEC_PAD * -total.lo + 2 * math.ulp(total.lo)

    @pytest.mark.parametrize(
        "cutoff, segments",
        # sizes 7 and 30 would take 1.4M and 333k segments, minutes, at 1e7
        [(10**5, (7, 30, 4096, 10007, 1 << 20)), (10**7, (4096, 10007, 1 << 20))],
    )
    def test_bits_do_not_depend_on_segment_size(self, cutoff, segments):
        def ends():
            report = h_bound(cutoff, Fraction(2, 5))
            return [hex_ends(report.partial_log_sum), hex_ends(report.log_bound),
                    hex_ends(report.h), hex_ends(twin_constant(cutoff))]

        default = ends()
        for segment in segments:
            with segment_size(segment):
                assert ends() == default, segment


class TestProductPool:
    """Both products fold shards of their segments in forked workers."""

    def test_pool_from_six_segments_a_worker(self, pool_requests):
        # 1e8 is 12 default segments, six for each of two workers; 1e7 is 2
        h_bound(10**7, Fraction(2, 5))
        assert pool_requests == []
        expected = [(2, "fork")] if usable_cpus() >= 2 else []
        h_bound(10**8, Fraction(2, 5))
        assert pool_requests == expected
        pool_requests.clear()
        twin_constant(10**8)
        assert pool_requests == expected

    @pytest.mark.parametrize("segment", [7, 30])
    def test_shares_add_up_exactly(self, segment):
        h_terms = functools.partial(_h_local_log_terms, alpha=Fraction(2, 5))
        with segment_size(segment):
            for terms in (_twin_local_log_terms, h_terms):
                serial = _shard_log_sum(10**4, terms, (0, 1))
                assert serial[0] == 1228 and isinstance(serial[1], Fraction)
                for n in (1, 2, 3, 5):
                    shares = [_shard_log_sum(10**4, terms, (i, n)) for i in range(n)]
                    assert tuple(map(sum, zip(*shares))) == serial, n

    @pytest.mark.skipif(
        usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods(),
        reason="h_bound runs in the calling process",
    )
    def test_workers_exit(self):
        h_bound(10**8, Fraction(2, 5))
        assert multiprocessing.active_children() == []


class TestHBound:
    def test_partial_log_sum_oracle(self):
        report = h_bound(10**5, Fraction(2, 5))
        assert contains(report.partial_log_sum, S1_1E5)
        assert report.partial_log_sum.width < 1e-12

    def test_tail_terms_at_one_million(self):
        report = h_bound(10**6, Fraction(2, 5))
        assert contains(report.tail_first_term, FIRST_1E6)
        assert contains(report.tail_integral_term, INTEGRAL_1E6)
        assert report.tail_first_term.hi < 0.0
        assert report.tail_integral_term.lo > 0.0

    def test_pi_cutoff_exact(self):
        assert h_bound(10**6, Fraction(2, 5)).pi_cutoff == 78498

    def test_upper_end_weakly_decreasing(self):
        h6 = h_bound(10**6, Fraction(2, 5)).h.hi
        h7 = h_bound(10**7, Fraction(2, 5)).h.hi
        assert h7 <= h6
        # k1 = r(cutoff) with no extra factor; at most the earlier
        # 951.677494 and 950.719339
        assert h6 == pytest.approx(951.677442, abs=1e-5)
        assert h7 == pytest.approx(950.719310, abs=1e-5)
        assert h6 <= 951.677494 and h7 <= 950.719339

    def test_lower_end_is_partial_product(self):
        report = h_bound(10**5, Fraction(2, 5))
        assert report.h.lo == pytest.approx(math.exp(report.partial_log_sum.lo), rel=1e-12)
        assert report.h.lo < report.h.hi

    def test_enclosures_nest_as_cutoff_grows(self):
        # more primes move mass from the tail estimate into the certified
        # partial sum, so the upper end can only improve
        reports = [h_bound(10**k, Fraction(2, 5)) for k in (5, 6, 7, 8)]
        for a, b in zip(reports, reports[1:]):
            assert b.h.hi <= a.h.hi, b.cutoff
            assert b.h.lo >= a.h.lo, b.cutoff
        for a in reports:
            assert a.log_bound.intersects(DEFAULT_H_LOG), a.cutoff
            for b in reports:
                assert a.log_bound.intersects(b.log_bound), (a.cutoff, b.cutoff)

    def test_exact_bits(self):
        # pins the exactly added float terms, not only their value; each pin
        # nests in the one from before s1 and the log bound were one exact
        # sum rounded once
        report = h_bound(10**5, Fraction(2, 5))  # the CLI artifact pin's cutoff
        assert_pinned(
            report.partial_log_sum,
            ("0x1.b08fd42d2fcb9p+2", "0x1.b08fd42d2fd19p+2"),
            ("0x1.b08fd42d2fcb8p+2", "0x1.b08fd42d2fd1ap+2"),
        )
        assert_pinned(
            report.h,
            ("0x1.aecb6b8faa776p+9", "0x1.dd224d7b8b19cp+9"),
            ("0x1.aecb6b8faa76fp+9", "0x1.dd224d7b8b1abp+9"),
        )
        report = h_bound(10**6, Fraction(2, 5))
        assert report.pi_cutoff == 78498
        assert_pinned(
            report.log_bound,
            ("0x1.b368c4754023fp+2", "0x1.b6ed2d65fb5e7p+2"),
            ("0x1.b368c4754023ep+2", "0x1.b6ed2d65fb5e9p+2"),
        )
        assert_pinned(
            report.partial_log_sum,
            ("0x1.b368c4754023fp+2", "0x1.b368c475402a0p+2"),
            ("0x1.b368c4754023ep+2", "0x1.b368c475402a1p+2"),
        )
        assert_pinned(
            report.h,
            ("0x1.c264d02fed2c0p+9", "0x1.dbd6b66a8bf0ep+9"),
            ("0x1.c264d02fed2b9p+9", "0x1.dbd6b66a8bf1dp+9"),
        )
        # the last segment holds no primes
        assert_pinned(
            h_bound(2**24 + 20, Fraction(2, 5)).partial_log_sum,
            ("0x1.b526634da1a92p+2", "0x1.b526634da1af3p+2"),
            ("0x1.b526634da1a91p+2", "0x1.b526634da1af4p+2"),
        )
        # the benchmark's own cutoff
        report = h_bound(10**8, Fraction(2, 5))
        assert report.pi_cutoff == 5761455
        assert_pinned(
            report.partial_log_sum,
            ("0x1.b5be473e30998p+2", "0x1.b5be473e309fap+2"),
            ("0x1.b5be473e30997p+2", "0x1.b5be473e309fbp+2"),
        )
        assert_pinned(
            report.log_bound,
            ("0x1.b5be473e30998p+2", "0x1.b6d5b93b5b568p+2"),
            ("0x1.b5be473e30997p+2", "0x1.b6d5b93b5b56ap+2"),
        )
        assert_pinned(
            report.h,
            ("0x1.d31f5a982e321p+9", "0x1.db28757eaac5dp+9"),
            ("0x1.d31f5a982e31ap+9", "0x1.db28757eaac6cp+9"),
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            h_bound(10, Fraction(2, 5))
        with pytest.raises(ValueError):
            h_bound(10**6, Fraction(1, 2))
        with pytest.raises(ValueError):
            h_bound(10**6, Fraction(-1, 5))


class TestTwinConstant:
    def test_million_cutoff_window(self):
        iv = twin_constant(10**6)
        assert contains(iv, TWIN_C)
        assert 1.320323 <= iv.lo
        assert iv.hi <= 1.320324

    def test_exact_bits(self):
        # the pin at 1e6 nests in the one from before exact sums entered at
        # one ulp, the one at 2**24 + 20 in the one the per-term padded fold
        # gave, the one at 1e8 in the one per-segment rounding gave;
        # 2**24 + 20 ends in a short segment without primes
        assert_pinned(
            twin_constant(10**6),
            ("0x1.5200ba7efc024p+0", "0x1.5200bc42998adp+0"),
            ("0x1.5200ba7efc024p+0", "0x1.5200bc42998aep+0"),
        )
        assert_pinned(
            twin_constant(2**24 + 20),
            ("0x1.5200babf718f3p+0", "0x1.5200bad57b602p+0"),
            ("0x1.5200babf718f2p+0", "0x1.5200bad57b603p+0"),
        )
        assert_pinned(
            twin_constant(10**8),
            ("0x1.5200bac1df08ap+0", "0x1.5200bac530059p+0"),
            ("0x1.5200bac1df089p+0", "0x1.5200bac530059p+0"),
        )

    def test_memory_peak(self):
        # tracemalloc's peak over one warm call read 15.74 MiB with 2^24
        # segments and 13.45 MiB with the default 2^23; a version that held
        # the previous terms array while the next one was computed read
        # 18.27 MiB at 2^24 and 15.59 MiB at 2^23
        twin_constant(10**7)
        tracemalloc.start()
        try:
            twin_constant(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.1 * 2**20, peak / 2**20

    def test_small_cutoff_coarse_tail(self):
        iv = twin_constant(3)
        assert iv.hi == pytest.approx(1.5, abs=1e-12)
        assert iv.lo == pytest.approx(1.5 * math.exp(-1.0), rel=1e-9)
        assert contains(iv, TWIN_C)

    def test_refined_tail_nests_in_coarse_range(self):
        for cutoff in (1000, 10**4, 10**5):
            iv = twin_constant(cutoff)
            assert contains(iv, TWIN_C), cutoff

    def test_enclosures_nest_as_cutoff_grows(self):
        enclosures = [twin_constant(10**k) for k in (4, 5, 6, 7, 8)]
        for a, b in zip(enclosures, enclosures[1:]):
            assert b.issubset(a)
        for a in enclosures:
            for b in enclosures:
                assert a.intersects(b)

    def test_domain(self):
        with pytest.raises(ValueError):
            twin_constant(2)
