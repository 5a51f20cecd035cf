"""Segmented twin prime sieve with a certified running sum.

One generator, ``_sieved_segments``, is the package's only segment loop:
a plain segmented Eratosthenes over odd numbers, vectorized with numpy
byte masks, that hands each segment's mask to a callback and yields the
results in ascending order.  ``census``, ``twin_lower_members`` and
``prime_count`` here, and both Euler products in ``euler_product``, are
written as such callbacks.

What makes the census worth a module is its accumulation contract: the
partial sum of 1/p + 1/(p+2) over twin pairs is carried as a pair of
directed-rounding floats, added term by term in ascending prime order on
the calling thread.  Because the chain never depends on where segment
boundaries fall, the same limit produces bit-identical enclosure endpoints
for every segment size and thread count.

A twin pair (p, p+2) is counted at its lower member: pi2(x) counts pairs
with p <= x, and the running sum includes both reciprocals of such pairs
even when p + 2 > x.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .interval import _NINF, _PINF, Interval, _vdn, _vup

__all__ = ["TwinCensus", "census", "prime_count", "twin_lower_members"]

DEFAULT_SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class TwinCensus:
    """Exact twin pair count up to ``limit`` plus the certified partial sum."""

    limit: int
    pi2: int
    brun_partial: Interval


def _base_prime_array(limit: int) -> np.ndarray:
    """All primes <= limit by a dense sieve; limit stays around sqrt(x)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _odd_mask(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primality mask for the odd numbers of [lo, hi], lo odd, lo >= 3, by odd base primes."""
    size = (hi - lo) // 2 + 1
    mask = np.ones(size, dtype=bool)
    for p in base_primes:
        p = int(p)
        if p * p > hi:
            break
        start = ((lo + p - 1) // p) * p
        if start < p * p:
            start = p * p
        if start % 2 == 0:
            start += p
        if start > hi:
            continue
        mask[(start - lo) // 2 :: p] = False
    return mask


def _sieved_segments(limit: int, segment_size: int, work, threads: int = 1, overhang: int = 0):
    """Yield ``work(lo, b, mask)`` for the segments of [3, limit], ascending.

    Segments hold segment_size numbers, the last one fewer; lo is the
    segment start rounded up to odd, and ``mask`` flags the primes among
    the odd numbers of [lo, b + overhang], so work may look past b.  With
    threads > 1 segments are worked on concurrently; results stay in order.
    """
    if segment_size < 2:
        raise ValueError(f"segment_size too small: {segment_size}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1: {threads}")
    segments = []
    a = 3
    while a <= limit:
        b = min(a + segment_size - 1, limit)
        lo = a if a % 2 == 1 else a + 1
        if lo <= b:
            segments.append((lo, b))
        a = b + 1
    if not segments:
        return
    base_primes = _base_prime_array(math.isqrt(limit + overhang) + 1)[1:]  # drop 2

    def sieve(segment):
        lo, b = segment
        return work(lo, b, _odd_mask(lo, b + overhang, base_primes))

    if threads == 1:
        yield from map(sieve, segments)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(sieve, segments)


def _twin_lower(lo: int, b: int, mask: np.ndarray) -> np.ndarray:
    """Twin lower members in [lo, b], ascending, from the mask of [lo, b + 2].

    The mask reaches 2 past the segment so a pair whose upper member pokes
    past the segment edge is still seen by the segment that owns p.
    """
    pair = mask[:-1] & mask[1:]
    p = lo + 2 * np.nonzero(pair)[0].astype(np.int64)
    return p[p <= b]


def _twin_terms(lo: int, b: int, mask: np.ndarray):
    """(count, lower-bound terms, upper-bound terms) of one segment's twin pairs."""
    p = _twin_lower(lo, b, mask)
    pf = p.astype(np.float64)
    inv_lo = _vdn(_vdn(1.0 / pf) + _vdn(1.0 / (pf + 2.0)))
    inv_hi = _vup(_vup(1.0 / pf) + _vup(1.0 / (pf + 2.0)))
    return len(p), inv_lo, inv_hi


def census(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> TwinCensus:
    """Count twin pairs up to ``limit`` and enclose their reciprocal sum.

    ``segment_size`` and ``threads`` are performance knobs only: every
    choice yields the same pi2 and bit-identical brun_partial endpoints.
    Workers sieve segments concurrently; the accumulation happens on this
    thread, strictly in ascending segment order, one term at a time.
    """
    if limit < 0:
        raise ValueError(f"negative limit: {limit}")
    pi2 = 0
    acc_lo = 0.0
    acc_hi = 0.0
    nextafter = math.nextafter
    segments = _sieved_segments(limit, segment_size, _twin_terms, threads, overhang=2)
    for count, inv_lo, inv_hi in segments:
        pi2 += count
        for t in inv_lo.tolist():
            acc_lo = nextafter(acc_lo + t, _NINF)
        for t in inv_hi.tolist():
            acc_hi = nextafter(acc_hi + t, _PINF)
    return TwinCensus(limit=limit, pi2=pi2, brun_partial=Interval(acc_lo, acc_hi))


def twin_lower_members(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All p <= limit with p and p + 2 prime, ascending int64 array."""
    parts = list(_sieved_segments(limit, segment_size, _twin_lower, overhang=2))
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def prime_count(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> int:
    """pi(limit), exactly, by the same segmented machinery."""

    def count(lo, b, mask):
        return int(np.count_nonzero(mask))

    odd = sum(_sieved_segments(limit, segment_size, count, threads))
    return odd + 1 if limit >= 2 else 0  # the prime 2
