"""Error term of the divisor harmonic sum, and its scaled supremum.

Write D(x) = sum_{n <= x} d(n)/n with d the divisor-count function.  The
smooth model for D is

    A(x) = (1/2) log^2 x + 2 g0 log x + g0^2 - 2 g1

with g0 the Euler-Mascheroni constant and g1 the first Stieltjes
constant, and the error term is E(x) = D(x) - A(x) (so E(x) = -A(x) on
0 < x < 1, where the sum is empty).  The sieve tail bound downstream
needs a constant c with |E(x)| <= c * x^(-alpha) for all x in the scanned
range, i.e. an enclosure of

    sup |E(x)| x^alpha  over  0 < x <= xmax.

On (0, 1) the supremum is resolved analytically: critical points of
|E| x^alpha are roots of a quadratic in u = log x, and the boundary
limit at x -> 1- contributes g0^2 - 2 g1.  On [1, xmax] the scan is
vectorized over unit intervals [n, n+1), where E decreases between the
jumps at integers, so endpoint values dominate; it walks n in blocks
small enough for their temporaries to stay in cache.

The prefix sums D(n) are exact int64 sums of the terms d(m)/m floored to
units of 2^-52, rounded outward once on conversion to float, in one
block walk (``_unit_blocks``) that serves ``divisor_sum`` and the scan.
The counts are int32: d(n) <= 2 sqrt(n) < 2^31 for n < 2^60.  Every
other float in the pipeline carries directed rounding: one-ulp steps on
the float64 bit pattern (``_vdn``/``_vup``, equal to np.nextafter) for
single operations and a relative pad for np.power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .interval import Interval

__all__ = [
    "GAMMA0",
    "GAMMA1",
    "DivisorErrorScan",
    "divisor_sum",
    "error_term",
    "scan_c",
]

#: Coarse enclosures of the Euler-Mascheroni constant g0 = 0.5772156649...
#: and the first Stieltjes constant g1 = -0.0728158454... (tested against
#: mpmath).  Deliberately seven digits wide: the downstream constants were
#: derived with exactly these windows, and the scan results are insensitive
#: to the extra width.  A(x) is Riesel & Vaughan's model (1983, Ark. Mat. 21;
#: their E bound at alpha = 1/3 is c = 1.641; lemma not checked offline).
GAMMA0 = Interval(0.5772156, 0.5772157)
GAMMA1 = Interval(-0.0728159, -0.0728158)
_C0 = GAMMA0 * GAMMA0 - 2 * GAMMA1  # A(1), positive

# covers np.power: exponent nearest-rounding contributes
# ln(x) * u/2 relative, the evaluation another couple of ulps
_POW_PAD = 2e-14

# n per block of the D(n) walk: the scan's float64 temporaries take about
# 1.3 MB, and scan_c(2/5, 1e6) peaks at 5.3 MiB (6.8 at 2^14, 9.8 at 2^15)
_BLOCK = 1 << 13


# The array forms of interval's one-ulp steps, as integer steps on the
# float64 bit pattern.  Patterns of one sign are ordered like the numbers
# they encode, so viewed as int64 the next double up is bits + 1 for +0 up
# to max, and bits - 1 for a negative number, whose magnitude shrinks (-inf
# steps to -max).  That is np.nextafter(a, +-inf) bit for bit once -0 is
# folded into +0, whose step up is the least subnormal, +inf is clamped to
# max, which steps back up to +inf, and NaN is held fixed.  The step down
# from a is minus the step up from -a.


def _step_up(x):
    # x is a fresh float64 array that holds no -0
    np.minimum(x, sys.float_info.max, out=x)
    bits = x.view(np.int64)
    up = bits >> 63  # -1 below zero, else 0
    up |= 1
    up += bits
    return np.maximum(up.view(np.float64), x)  # NaN propagates


def _vup(a):
    return _step_up(np.asarray(np.add(a, 0.0)))  # -0 + 0 is +0


def _vdn(a):
    return -_step_up(np.asarray(np.subtract(0.0, a)))  # 0 - a is -a, with +0 for -0


@dataclass(frozen=True)
class DivisorErrorScan:
    """Certified supremum of |E(x)| x^alpha over 0 < x <= xmax."""

    alpha: Fraction
    xmax: int
    bound: Interval
    argmax: float
    head: Interval  # supremum over (0, 1)
    scanned: Interval  # supremum over [1, xmax]


def _divisor_counts(xmax: int) -> np.ndarray:
    # divisors pair up as k <= n/k: each k <= sqrt(n) counts itself and
    # its cofactor, once only when n = k^2
    counts = np.zeros(xmax, dtype=np.int32)
    for k in range(1, math.isqrt(xmax) + 1):
        counts[k * k - 1 :: k] += 2
        counts[k * k - 1] -= 1
    return counts


def _checked_counts(xmax: int) -> np.ndarray:
    """int32 d(n) for n = 1..xmax, whose terms and sums fit int64 units of 2^-52.

    A term's d(m) * 2^52, widened to int64, fits while d(m) < 2^11; so
    does the sum, as D(n) < 2^11 for n < e^60, beyond any array in memory.
    """
    counts = _divisor_counts(xmax)
    if counts.max() >= 1 << 11:
        raise ValueError(f"divisor counts up to {xmax} overflow int64 units")
    return counts


def _unit_blocks(xmax: int):
    """Yield each block's int64 points n and the exact int64 units of D(n)."""
    counts = _checked_counts(xmax)
    units = 0  # of D(n0 - 1)
    for n0 in range(1, xmax + 1, _BLOCK):
        n = np.arange(n0, min(n0 + _BLOCK, xmax + 1), dtype=np.int64)
        # widen first: numpy keeps an int32 shift in int32
        terms = (counts[n0 - 1 : n0 - 1 + len(n)].astype(np.int64) << 52) // n
        terms[0] += units
        block_units = np.cumsum(terms, out=terms)
        units = int(block_units[-1])
        yield n, block_units


def _sum_bounds(units, n):
    """Directed bounds for D(n) from the exact sum of its floored terms.

    Each term d(m)/m is floored to units of 2^-52 and the units add
    exactly in int64, so D(n) lies in [units, units + n] * 2^-52.
    """
    lo = _vdn(np.ldexp(units.astype(np.float64), -52))
    hi = _vup(np.ldexp((units + n).astype(np.float64), -52))
    return lo, hi


def _log_range(n: np.ndarray):
    """Directed bounds for log n at whole float64 n >= 1: two ulps cover np.log."""
    log_n = np.log(n)
    return np.maximum(_vdn(_vdn(log_n)), 0.0), _vup(_vup(log_n))  # log n >= 0 here


def _model_range(n: np.ndarray):
    """Directed bounds for A(n) at whole float64 n >= 1, using the gamma windows."""
    log_lo, log_hi = _log_range(n)
    # A is increasing in g0 and decreasing in g1 when log n >= 0
    a_lo = _vdn(_vdn(0.5 * log_lo * log_lo) + _vdn(_vdn(2.0 * GAMMA0.lo * log_lo) + _C0.lo))
    a_hi = _vup(_vup(0.5 * log_hi * log_hi) + _vup(_vup(2.0 * GAMMA0.hi * log_hi) + _C0.hi))
    return a_lo, a_hi


def divisor_sum(x: int) -> Interval:
    """Enclosure of D(x) = sum_{n <= x} d(n)/n."""
    if x < 1:
        raise ValueError(f"divisor_sum needs x >= 1: {x}")
    for _, units in _unit_blocks(x):
        pass
    lo, hi = _sum_bounds(units[-1], x)
    return Interval(lo, hi)


def error_term(x: int) -> Interval:
    """Enclosure of E(x) at an integer x >= 1.

    Width is dominated by the deliberate coarseness of the gamma
    windows, roughly 1e-6 at x = 1000, not by rounding.
    """
    if x < 1:
        raise ValueError(f"error_term needs x >= 1: {x}")
    s = divisor_sum(x)
    a_lo, a_hi = _model_range(np.array([x], dtype=np.float64))
    return Interval(_vdn(s.lo - a_hi[0]), _vup(s.hi - a_lo[0]))


def _head_supremum(alpha: Interval) -> tuple:
    """Supremum of |E(x)| x^alpha over 0 < x < 1, plus its location.

    In u = log x < 0 coordinates the target is |q(u)| e^(alpha u) with
    q(u) = u^2/2 + 2 g0 u + c0.  Its critical points solve

        (alpha/2) u^2 + (1 + 2 alpha g0) u + (2 g0 + alpha c0) = 0

    and the x -> 1- boundary contributes c0 itself; the x -> 0+ limit
    vanishes.  Candidates are evaluated over their root enclosures, so
    the maximum of the upper ends is a true upper bound.
    """
    g0 = GAMMA0
    c0 = _C0

    def value(u: Interval) -> Interval:
        q = u * u * 0.5 + 2 * g0 * u + c0
        return abs(q) * (alpha * u).exp()

    a = alpha * 0.5
    b = alpha * g0 * 2 + 1
    c = g0 * 2 + alpha * c0
    disc = b * b - a * c * 4
    candidates = [(c0, 1.0)]  # boundary as x -> 1-
    if disc.hi > 0.0:
        sq = Interval(max(0.0, disc.lo), disc.hi).sqrt()
        for root in ((-b - sq) / (a * 2), (-b + sq) / (a * 2)):
            if root.lo < 0.0:  # only u < 0 lies in (0, 1)
                capped = Interval(root.lo, min(root.hi, 0.0))
                candidates.append((value(capped), math.exp(capped.mid)))
    lo = max(v.lo for v, _ in candidates)
    hi = max(v.hi for v, _ in candidates)
    where = max(candidates, key=lambda pair: pair[0].hi)[1]
    return Interval(lo, hi), where


def _scan_supremum(alpha: Fraction, xmax: int) -> tuple:
    """Supremum of |E(x)| x^alpha over [1, xmax], plus its location.

    The walk over n = 1..xmax is ``_unit_blocks``'s, keeping the running
    maximum of the upper bound and the first argmax of the lower bound.
    """
    af = float(alpha)
    upper, lower, where = 0.0, -math.inf, 1.0
    for n, block_units in _unit_blocks(xmax):
        n0, n1 = int(n[0]), int(n[-1]) + 1  # the block is n0 <= n < n1
        s_lo, s_hi = _sum_bounds(block_units, n)
        # A(m) and m^alpha also at m = n1, the next block's first point
        m = np.arange(n0, min(n1, xmax) + 1, dtype=np.float64)
        a_lo, a_hi = _model_range(m)
        power = np.power(m, af)
        k, j = len(n), len(m) - 1  # points, and points with a successor

        pos_lo = _vdn(s_lo - a_hi[:k])  # lower end of E(n)
        neg_lo = _vdn(a_lo[:k] - s_hi)  # lower end of -E(n)
        abs_at = np.maximum(np.abs(pos_lo), np.abs(neg_lo))
        # value just before the jump at n+1: the sum still reads D(n)
        abs_pre = np.maximum(
            np.abs(_vdn(s_lo[:j] - a_hi[1:])), np.abs(_vdn(a_lo[1:] - s_hi[:j]))
        )
        # unit interval [n, n+1): E decreases between jumps, so the
        # endpoint values dominate |E|, and x^alpha is below (n+1)^alpha
        pow_hi = _vup(power * (1.0 + _POW_PAD))
        per_interval = _vup(np.maximum(abs_at[:j], abs_pre) * pow_hi[1:])
        upper = max(upper, float(per_interval.max(initial=0.0)))
        if j < k:  # the last point, xmax
            upper = max(upper, float(_vup(abs_at[-1] * pow_hi[-1])))

        # certified lower bound: achieved values at integer points
        pow_lo = _vdn(power[:k] * (1.0 - _POW_PAD))
        achieved = _vdn(np.maximum(np.maximum(pos_lo, neg_lo), 0.0) * pow_lo)
        i = int(np.argmax(achieved))
        if achieved[i] > lower:  # ties keep the smaller n
            lower, where = float(achieved[i]), float(n0 + i)
    return Interval(max(lower, 0.0), upper), where


def scan_c(alpha: Union[Fraction, float], xmax: int) -> DivisorErrorScan:
    """Enclose sup |E(x)| x^alpha over 0 < x <= xmax.

    ``alpha`` is taken exactly: pass a Fraction for non-representable
    rationals like 1/3.  Needs 0 < alpha < 1.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha out of range (0, 1): {alpha}")
    if xmax < 1:
        raise ValueError(f"xmax must be >= 1: {xmax}")
    alpha_iv = Interval.from_fraction(alpha)
    head, head_at = _head_supremum(alpha_iv)
    scanned, scan_at = _scan_supremum(alpha, xmax)
    bound = Interval(max(head.lo, scanned.lo), max(head.hi, scanned.hi))
    argmax = head_at if head.hi >= scanned.hi else scan_at
    return DivisorErrorScan(
        alpha=alpha,
        xmax=xmax,
        bound=bound,
        argmax=argmax,
        head=head,
        scanned=scanned,
    )
