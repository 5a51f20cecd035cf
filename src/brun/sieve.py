"""Segmented twin prime sieve with a certified partial sum.

One generator, ``_sieved_segments``, is the package's only segment loop.
Its kernel is a segmented Eratosthenes on the wheel of 6: every prime
above 3 is 6k - 1 or 6k + 1, so a segment's ``masks`` are two k-indexed
numpy byte masks, one per class, a sixth of the segment each.  A twin
segment's are one mask, one byte per k, flagging k with 6k - 1 and 6k + 1
both prime; each base prime crosses off both of its residues in it.  A
5005-periodic k-pattern pre-sieves 5, 7, 11 and 13, and base primes from
17 on cross off the rest.  It yields segments in ascending order, or the
shard that ``_map_shards`` (the one process pool) gives a forked worker.
Consumers read them through ``members()`` and ``count()``: ``census`` and
``twin_lower_members`` map over twin segments, ``prime_count`` and both
Euler products over two-mask ones.

The census adds the partial sum of 1/p + 1/(p+2) over twin pairs as an
exact integer at the fixed binary scale 2^61: each reciprocal becomes
floor(2^61 / q) units.  Integer addition is exact, so the total is the
same whatever the segments, their order or the process that sieved
them, and the enclosure is rounded outward once, at the end.

A twin pair (p, p+2) is counted at its lower member: pi2(x) counts pairs
with p <= x, and the partial sum includes both reciprocals of such pairs
even when p + 2 > x.  Every pair but (3, 5) is (6k - 1, 6k + 1).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .interval import Interval, _frac_bracket

__all__ = ["TwinCensus", "census", "prime_count", "twin_lower_members"]

# a twin mask has one byte per k: 2^23 numbers take 1.4 MB, as two 2^22 class masks did
DEFAULT_SEGMENT_SIZE = 1 << 23

# the fixed-point unit of the census and table partial sums is 2^-61
_SCALE = 1 << 61

# primes the k-pattern removes; each is 6k -/+ 1 for k = 1 or 2
_PRESIEVED = (5, 7, 11, 13)
_PERIOD = 5 * 7 * 11 * 13
_OFFSETS = (-1, 1)  # the classes 6k - 1 and 6k + 1


def _class_pattern(s: int) -> np.ndarray:
    """Flags k in [0, _PERIOD) with 6k + s prime to 5, 7, 11, 13."""
    v = 6 * np.arange(_PERIOD, dtype=np.int64) + s
    keep = np.ones(len(v), dtype=bool)
    for q in _PRESIEVED:
        keep &= v % q != 0
    keep.flags.writeable = False
    return keep


_PATTERNS = tuple(map(_class_pattern, _OFFSETS))


@dataclass(frozen=True)
class TwinCensus:
    """Exact twin pair count up to ``limit`` plus the certified partial sum."""

    limit: int
    pi2: int
    brun_partial: Interval


def _base_prime_array(limit: int) -> np.ndarray:
    """All primes <= limit by a dense sieve; limit stays around sqrt(x)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@dataclass(frozen=True)
class _Segment:
    """The odd primes of [lo, b], b the segment's end, on the wheel of 6.

    ``masks[j][i]`` flags the member 6(k0 + i) + _OFFSETS[j], in [lo, b]:
    the 6k - 1 and 6k + 1 class masks, or one twin mask, which flags lower
    members and reaches b + 2 so that the segment owning p sees p + 2 past
    its edge (6k + 1 <= b + 2, so 6k - 1 <= b).  lo == 3 marks the first
    segment, which owns the prime 3.
    """

    lo: int
    k0: int
    masks: tuple

    def members(self) -> tuple:
        """One ascending int64 array per mask, and [3] in the first segment."""
        parts = tuple(6 * (self.k0 + np.nonzero(m)[0]) + s for s, m in zip(_OFFSETS, self.masks))
        return (np.array([3], dtype=np.int64),) + parts if self.lo == 3 else parts

    def count(self) -> int:
        """The number of members."""
        return int(sum(map(np.count_nonzero, self.masks))) + (self.lo == 3)


def _segment_starts(limit: int) -> range:
    """The starts of [3, limit]'s segments, DEFAULT_SEGMENT_SIZE apart (read here, at
    call time), less a last start that is even and equal to limit: it holds no odd number."""
    starts = range(3, limit + 1, DEFAULT_SEGMENT_SIZE)
    return starts[:-1] if limit % 2 == 0 and starts and starts[-1] == limit else starts


def _sieved_segments(limit: int, twins: bool = False, shard: tuple = (0, 1)):
    """Yield the ``_Segment``s of [3, limit], ascending.

    Each runs from one of ``_segment_starts(limit)`` to the next, the last
    to limit; lo is its start rounded up to odd.  ``twins`` yields twin
    segments; ``shard`` = (i, n) only segments i, i + n, ..., spreading the
    top ones.  Consumers ``map`` over it, which frees each segment before
    the next is sieved; under glibc, holding one across the next sieve cost
    census(1e9) 42k page faults, not 2.6k.
    """
    starts = _segment_starts(limit)
    if not starts:
        return
    # below 17 the wheel and the pattern have done the work; each base
    # prime crosses off, in each class, the k = root (mod p) from p^2 on
    p = _base_prime_array(math.isqrt(limit + 2 * twins) + 1)
    p = p[p >= 17]
    inv6 = np.where(p % 6 == 5, (p + 1) // 6, p - (p - 1) // 6)  # 6 * inv6 = 1 (mod p)
    root = np.stack((inv6, p - inv6))  # p | 6k - 1, resp. p | 6k + 1
    k_min = (p * p + np.array([[6], [4]])) // 6  # least k with 6k -/+ 1 >= p^2
    first = k_min + (root - k_min) % p
    patterns = [_PATTERNS[0] & _PATTERNS[1]] if twins else _PATTERNS

    def sieve(lo, b):
        hi = b + 2 * twins
        k0 = (lo + 4) // 6  # least k with 6k + 1 >= lo
        size = max((hi + 1) // 6 - k0 + 1, 0)
        # the pattern tiled from k = 0, cut to the segment's window of k
        offset = k0 % _PERIOD
        reps = -(-(offset + size) // _PERIOD)
        masks = [np.tile(pattern, reps)[offset : offset + size] for pattern in patterns]
        minus, plus = masks[0], masks[-1]  # one array in twin mode
        for i in (1 - k0, 2 - k0):  # restore 5, 7 (k = 1) and 11, 13 (k = 2)
            if 0 <= i < size:
                minus[i] = plus[i] = True
        n = int(np.searchsorted(p, math.isqrt(hi), side="right"))
        d = first[:, :n] - k0
        # first index at or after k0 in each class: d itself, or d mod p once
        # k0 has passed the prime's first multiple
        starts = np.maximum(d, d % p[:n])
        for mask, row in zip((minus, plus), starts):
            hit = row < size  # short segments miss most primes; skip their slice calls
            for q, i in zip(p[:n][hit].tolist(), row[hit].tolist()):
                mask[i::q] = False
        if size:
            if 6 * k0 - 1 < lo:
                minus[0] = False
            if 6 * (k0 + size - 1) + 1 > hi:
                plus[-1] = False
        return _Segment(lo, k0, tuple(masks))

    i, n = shard
    for a in starts[i::n]:
        yield sieve(a | 1, min(a + starts.step - 1, limit))


def _twin_units(segment: _Segment):
    """(count, sum of floor(2^61 / q) over both members q) of a segment's pairs.

    An int64 sum is at most 2^61 times a partial sum < B < 2.2886: no overflow."""
    parts = segment.members()
    return sum(map(len, parts)), sum(int((_SCALE // p + _SCALE // (p + 2)).sum()) for p in parts)


def _census_units(limit: int, shard: tuple) -> tuple:
    """(pi2, units) of one shard's twin segments: ``_twin_units`` added up."""
    pairs = list(map(_twin_units, _sieved_segments(limit, twins=True, shard=shard)))
    return sum(count for count, _ in pairs), sum(units for _, units in pairs)


def _map_shards(fold, limit: int, cap: int | None = None) -> list:
    """[fold(shard)] for the shards (i, n) of [3, limit]'s segments: n forked
    processes fold one each, n = min(cap, segments // 6, usable CPUs), as a
    pool pays from six segments (``_segment_starts``) a worker; with n < 2
    or no ``fork`` the calling process folds (0, 1).  ``fold`` must be picklable."""
    segments = len(_segment_starts(limit))
    # the CPUs this process may run on: its affinity set, where the platform has one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(segments // 6, cpus or 1, segments if cap is None else cap)
    if n > 1:  # a serial pass imports neither
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if n < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fold((0, 1))]
    # forked workers inherit numpy, spawned ones would import it again
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fold, [(i, n) for i in range(n)]))


def census(limit: int, threads: int = 1) -> TwinCensus:
    """Count twin pairs up to ``limit`` and enclose their reciprocal sum.

    The sum is added in units of 2^-61, each 1/q as floor(2^61 / q).  A
    floor loses less than one unit, so the exact sum lies in
    [units, units + 2 pi2] * 2^-61; that bracket is rounded outward once.
    Up to ``threads`` forked processes sieve a shard each (``_map_shards``).
    ``threads`` (at least 1) is a performance knob only: every choice, and
    every segment size, yields the same pi2 and bit-identical brun_partial
    endpoints.
    """
    if limit < 0:
        raise ValueError(f"negative limit: {limit}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1: {threads}")
    fold = functools.partial(_census_units, limit)
    pi2, units = map(sum, zip(*_map_shards(fold, limit, threads)))
    partial = _frac_bracket(Fraction(units, _SCALE), Fraction(units + 2 * pi2, _SCALE))
    return TwinCensus(limit=limit, pi2=pi2, brun_partial=partial)


def twin_lower_members(limit: int) -> np.ndarray:
    """All p <= limit with p and p + 2 prime, ascending int64 array."""
    segments = map(_Segment.members, _sieved_segments(limit, twins=True))
    parts = [p for members in segments for p in members]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def prime_count(limit: int) -> int:
    """pi(limit), exactly, by the same segmented machinery."""
    odd = sum(map(_Segment.count, _sieved_segments(limit)))
    return odd + 1 if limit >= 2 else 0  # the prime 2
