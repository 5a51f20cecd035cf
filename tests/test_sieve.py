"""Twin sieve: counts against trial division, certified sums, partitioning."""

import hashlib
import math
import multiprocessing
import os
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brun.euler_product import h_bound
from brun.sieve import (
    DEFAULT_SEGMENT_SIZE,
    _map_shards,
    _segment_starts,
    _sieved_segments,
    census,
    prime_count,
    twin_lower_members,
)
from conftest import assert_pinned, segment_size, usable_cpus


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def twins_by_trial_division(limit: int) -> list:
    return [p for p in range(3, limit + 1, 2) if is_prime(p) and is_prime(p + 2)]


def primes_by_wheel(limit: int, size: int) -> list:
    """All primes <= limit from the segment kernel's own prime lists."""
    with segment_size(size):
        segments = list(_sieved_segments(limit))
    odd = sorted(int(p) for s in segments for part in s.members() for p in part)
    return ([2] if limit >= 2 else []) + odd


def twins_by_two_masks(limit: int, size: int) -> list:
    """Twin lower members <= limit from both class masks of two-mask segments.

    A pair split by a segment edge has its members in two segments, so the
    class masks are gathered by k before they are combined."""
    minus = np.zeros(limit // 6 + 2, dtype=bool)
    plus = np.zeros_like(minus)
    with segment_size(size):
        segments = list(_sieved_segments(limit + 2))
    for s in segments:
        for gathered, mask in zip((minus, plus), s.masks):
            gathered[s.k0 : s.k0 + len(mask)] |= mask
    p = 6 * np.nonzero(minus & plus)[0] - 1
    return [3] * (limit >= 3) + [int(q) for q in p if q <= limit]


class TestCounts:
    def test_twin_list_small(self):
        assert twin_lower_members(100).tolist() == [3, 5, 11, 17, 29, 41, 59, 71]

    def test_twins_match_trial_division_to_2e4(self):
        limit = 20000
        assert twin_lower_members(limit).tolist() == twins_by_trial_division(limit)

    def test_pi2_of_one_million(self):
        assert census(10**6).pi2 == 8169

    def test_prime_count_known(self):
        assert prime_count(1) == 0
        assert prime_count(2) == 1
        assert prime_count(10) == 4
        assert prime_count(100) == 25
        assert type(prime_count(100)) is int  # a numpy integer would not serialize to JSON
        assert prime_count(10**6) == 78498

    def test_tiny_limits(self):
        assert census(2).pi2 == 0
        assert census(3).pi2 == 1  # the pair (3, 5), counted at 3
        assert census(4).pi2 == 1
        assert census(5).pi2 == 2
        assert census(11).pi2 == 3
        assert census(12).pi2 == 3

    def test_pair_counted_at_lower_member(self):
        # 1019 and 1021 are twins; the pair belongs to pi2(1019) already
        assert census(1019).pi2 == census(1020).pi2 == census(1021).pi2
        assert census(1018).pi2 == census(1019).pi2 - 1


class TestCertifiedSum:
    def test_brun_partial_contains_exact_sum(self):
        limit = 10**5
        exact = sum(
            Fraction(1, p) + Fraction(1, p + 2)
            for p in twins_by_trial_division(limit)
        )
        c = census(limit)
        assert Fraction(c.brun_partial.lo) <= exact <= Fraction(c.brun_partial.hi)

    def test_brun_partial_contains_exact_sum_1e6(self):
        limit = 10**6
        # exact sum by binary splitting of unreduced (numerator, denominator)
        terms = [(2 * p + 2, p * (p + 2)) for p in twins_by_trial_division(limit)]
        while len(terms) > 1:
            odd = terms[-1:] if len(terms) % 2 else []
            pairs = zip(terms[::2], terms[1::2])
            terms = [(a * d + b * c, b * d) for (a, b), (c, d) in pairs] + odd
        exact = Fraction(*terms[0])
        c = census(limit)
        assert c.pi2 == 8169
        assert Fraction(c.brun_partial.lo) <= exact <= Fraction(c.brun_partial.hi)

    def test_brun_partial_width_budget(self):
        c = census(10**6)
        # the integer sum is short of the exact one by less than one 2^-61
        # unit per reciprocal, so the exact bracket is 2 pi2 units wide;
        # rounding an end outward (to nearest, then one ulp out) moves it
        # by less than 1.5 ulp
        budget = 2 * c.pi2 * 2.0**-61 + 3 * math.ulp(c.brun_partial.hi)
        assert c.brun_partial.width <= budget

    def test_empty_census(self):
        c = census(2)
        assert c.brun_partial.lo == c.brun_partial.hi == 0.0


class TestPartitionIndependence:
    def test_segment_sizes_and_threads(self):
        limit = 2 * 10**5
        reference = census(limit)
        primes = prime_count(limit)
        members = twin_lower_members(limit).tolist()
        for size in (4096, 10007, 1 << 16, limit * 2):
            with segment_size(size):
                for threads in (1, 2, 3):
                    assert census(limit, threads=threads) == reference, (size, threads)
                assert prime_count(limit) == primes, size
                assert twin_lower_members(limit).tolist() == members, size

    def test_boundary_splits_a_pair(self):
        # segment size 9 puts a boundary between 11 and 13
        with segment_size(9):
            c = census(30)
        assert c == census(30)
        assert c.pi2 == 5  # 3, 5, 11, 17, 29

    @given(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=2, max_value=512),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_partition_is_identical(self, limit, size):
        b, count, members = census(limit), prime_count(limit), twin_lower_members(limit).tolist()
        with segment_size(size):
            assert census(limit) == b
            assert prime_count(limit) == count
            assert twin_lower_members(limit).tolist() == members

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_counts_match_trial_division(self, limit):
        assert census(limit).pi2 == len(twins_by_trial_division(limit))

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=2, max_value=600),
    )
    @settings(max_examples=40, deadline=None)
    def test_prime_count_matches_trial_division(self, limit, size):
        expected = sum(1 for n in range(limit + 1) if is_prime(n))
        with segment_size(size):
            assert prime_count(limit) == expected


class TestWorkers:
    """census(threads=n) sieves interleaved shards in forked worker processes."""

    @pytest.mark.parametrize("size", (2, 9, 4096))
    def test_threads_match_serial(self, size):
        # too few segments for a pool, and size 9's boundary between 11 and 13
        # in a pool of 111 segments
        for limit in (0, 2, 3, 4, 5, 13, 100, 1000):
            with segment_size(size):
                serial = census(limit)
                for threads in (2, 3):
                    assert census(limit, threads) == serial, (limit, threads)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("twins", (False, True))
    def test_shards_partition_the_segments(self, twins):
        def members(segments):
            return sorted(int(p) for s in segments for part in s.members() for p in part)

        for limit, size in ((100, 9), (5000, 64), (20000, 4096)):
            with segment_size(size):
                whole = members(_sieved_segments(limit, twins))
                for n in (1, 2, 3, 5):
                    shards = [_sieved_segments(limit, twins, shard=(i, n)) for i in range(n)]
                    assert members(s for shard in shards for s in shard) == whole, (limit, n)

    def test_pool_counts_the_segments_the_loop_yields(self, monkeypatch, pool_requests):
        # a start that is even and the limit itself holds no odd number and
        # yields no segment (size 9, limit 12: one segment, not two); with
        # 10^6 usable CPUs the pool asks for (segments // 6) workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(10**6), raising=False)
        for size in range(2, 20):
            with segment_size(size):
                for limit in range(301):
                    yielded = sum(1 for _ in _sieved_segments(limit))
                    assert len(_segment_starts(limit)) == yielded, (limit, size)
                    shards = _map_shards(lambda shard: shard, limit)
                    assert len(shards) == max(yielded // 6, 1), (limit, size)
        assert pool_requests

    def test_worker_count_is_capped(self, pool_requests):
        with segment_size(4096):
            reference = census(10**5)
            assert census(10**5, threads=10**6) == reference
        assert all(n <= usable_cpus() and method == "fork" for n, method in pool_requests)
        assert len(pool_requests) == (usable_cpus() > 1)

    def test_one_segment_opens_no_pool(self, pool_requests):
        assert census(10**5, threads=8) == census(10**5)
        assert pool_requests == []

    def test_pool_only_with_six_segments_a_worker(self, pool_requests):
        # 1e7 is 2 default segments, where a pool took 0.030 s against the
        # serial 0.014 s; 1e8 is 12, six for each of two workers
        census(10**7, threads=2)
        assert pool_requests == []
        census(10**8, threads=2)
        assert pool_requests == ([(2, "fork")] if usable_cpus() >= 2 else [])

    def test_one_usable_cpu_opens_no_pool(self, monkeypatch, pool_requests):
        # a process pinned to one CPU folds serially, whatever os.cpu_count() says
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        census(10**8, threads=2)
        h_bound(10**8, Fraction(2, 5))
        assert pool_requests == []


def nested_in(c, outer: tuple) -> bool:
    lo, hi = (float.fromhex(x) for x in outer)
    return lo <= c.brun_partial.lo <= c.brun_partial.hi <= hi


class TestPinnedOutputs:
    """Values of the integer census sum.  The census must also nest in the
    enclosures of the term-by-term directed sum it replaced."""

    def test_census_1e8(self):
        c = census(10**8)
        assert c.pi2 == 440312
        assert_pinned(
            c.brun_partial,
            ("0x1.c241bd942e188p+0", "0x1.c241bd942e841p+0"),
            ("0x1.c241bd942e187p+0", "0x1.c241bd942e841p+0"),
        )
        assert nested_in(c, ("0x1.c241bd93c2c39p+0", "0x1.c241bd9499c2ap+0"))

    def test_census_odd_segment_threads(self):
        with segment_size(10007):
            c = census(10**7, threads=2)
        assert c.pi2 == 58980
        assert_pinned(
            c.brun_partial,
            ("0x1.bd04f79c65537p+0", "0x1.bd04f79c6561ep+0"),
            ("0x1.bd04f79c65536p+0", "0x1.bd04f79c6561fp+0"),
        )
        assert nested_in(c, ("0x1.bd04f79c56eeep+0", "0x1.bd04f79c73bb7p+0"))

    def test_prime_count_1e8(self):
        assert prime_count(10**8) == 5761455

    def test_twin_members_digest(self):
        members = twin_lower_members(10**7)
        assert len(members) == 58980
        digest = hashlib.sha256(members.astype("<i8").tobytes()).hexdigest()
        assert digest == "5891c81eddec804c0fce7acf5e2da3456b53eb41bcf2e277df96e4fb098d29c0"


class TestWheelEdges:
    """The 6k -/+ 1 masks, the pre-sieve pattern and segment edges."""

    SEGMENTS = (2, 3, 5, 6, 7, 12, 13)
    PERIOD = 6 * 5005  # the pattern repeats every 5005 values of k

    def test_every_small_limit(self):
        flags = [is_prime(n) for n in range(403)]
        for limit in range(401):
            count = sum(flags[: limit + 1])
            twins = [p for p in range(3, limit + 1) if flags[p] and flags[p + 2]]
            reference = census(limit)
            exact = sum(Fraction(2 * p + 2, p * (p + 2)) for p in twins)
            assert reference.pi2 == len(twins), limit
            assert Fraction(reference.brun_partial.lo) <= exact <= Fraction(reference.brun_partial.hi)
            for size in self.SEGMENTS:
                with segment_size(size):
                    assert prime_count(limit) == count, (limit, size)
                    assert twin_lower_members(limit).tolist() == twins, (limit, size)
                    assert census(limit) == reference, (limit, size)

    def test_presieved_primes_and_their_products(self):
        for size in self.SEGMENTS + (4096,):
            primes = set(primes_by_wheel(200, size))
            assert {2, 3, 5, 7, 11, 13, 17, 19} <= primes, size
            assert not {25, 35, 49, 121, 143, 169} & primes, size
            assert sorted(primes) == [n for n in range(201) if is_prime(n)]

    def test_limits_and_segments_across_the_period(self):
        for center in (self.PERIOD, 2 * self.PERIOD):
            window = range(center - 40, center + 41)
            base = prime_count(center - 41)
            flags = [is_prime(n) for n in window]
            twins = twins_by_trial_division(center + 40)
            for size in (1000, center - 9, center + 4):
                with segment_size(size):
                    for i, limit in enumerate(window):
                        expected = base + sum(flags[: i + 1])
                        assert prime_count(limit) == expected, (limit, size)
                        pairs = bisect_right(twins, limit)
                        assert census(limit).pi2 == pairs, (limit, size)
            limit = center + 40
            primes = [n for n in range(limit + 1) if is_prime(n)]
            for size in (7, 13, 4096, center - 9):
                assert primes_by_wheel(limit, size) == primes, size
                with segment_size(size):
                    assert twin_lower_members(limit).tolist() == twins, size

    def test_segment_edges_between_pair_members(self):
        # segments start at 3, so a size dividing b - 2 ends one at b; with
        # b = p or p + 1 the pair (p, p + 2) straddles the edge
        twins = twins_by_trial_division(2000)
        for p in twins[1:]:
            for b in (p, p + 1):
                sizes = [d for d in range(2, b - 1) if (b - 2) % d == 0 and (b - 2) // d <= 40]
                for size in sizes:
                    for limit in (b, p + 2, p + 8):
                        expected = twins[: bisect_right(twins, limit)]
                        reference = census(limit)
                        with segment_size(size):
                            assert twin_lower_members(limit).tolist() == expected, (limit, size)
                            assert census(limit) == reference, (limit, size)

    def test_presieved_pairs(self):
        # the pattern removes 5, 7, 11 and 13; the twin mask gets the pairs
        # (5, 7) and (11, 13) back whatever segment holds k = 1 and k = 2
        for size in range(2, 20):
            with segment_size(size):
                for limit in range(20):
                    expected = [p for p in (3, 5, 11, 17) if p <= limit]
                    assert twin_lower_members(limit).tolist() == expected, (limit, size)
                    assert census(limit).pi2 == len(expected), (limit, size)
        with segment_size(100):
            first = next(_sieved_segments(100, twins=True))
        assert first.masks[0][:3].tolist() == [True, True, True]  # k = 1, 2, 3: 5, 11, 17

    def test_twin_segment_is_one_mask(self):
        # a twin segment's k have 6k in [lo - 1, b + 3], which spans at most
        # size + 4 integers, so the mask has at most ceil((size + 4) / 6)
        # bytes: size // 6 + 1 at 2^23
        for size in self.SEGMENTS + (1000, 1001, 1002, 1003, 1004, 1005):
            with segment_size(size):
                for s in _sieved_segments(20000, twins=True):
                    assert len(s.masks) == 1
                    assert len(s.masks[0]) <= -(-(size + 4) // 6), (size, s.lo)
        size = DEFAULT_SEGMENT_SIZE
        for s in _sieved_segments(3 * size, twins=True):
            assert len(s.masks) == 1 and len(s.masks[0]) <= size // 6 + 1, s.lo

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=2, max_value=600),
        st.integers(min_value=2, max_value=600),
    )
    @settings(max_examples=60, deadline=None)
    def test_twin_mask_matches_two_masks(self, limit, twin_size, class_size):
        with segment_size(twin_size):
            members = twin_lower_members(limit).tolist()
        assert members == twins_by_two_masks(limit, class_size)

    def test_prime_lists_across_mask_fills(self):
        # segments spanning many pattern periods, starting anywhere in one
        limit = 1_500_000
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\0\0"
        for n in range(2, math.isqrt(limit) + 1):
            if flags[n]:
                flags[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
        expected = [n for n in range(limit + 1) if flags[n]]
        for size in (480_487, 1 << 20):
            assert primes_by_wheel(limit, size) == expected, size


class TestValidation:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            census(-1)
        with pytest.raises(ValueError):
            census(100, threads=0)
        # the segment size is the constant DEFAULT_SEGMENT_SIZE, no parameter
        for f in (census, prime_count, twin_lower_members):
            with pytest.raises(TypeError):
                f(100, segment_size=4096)
