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
jumps at integers, so endpoint values dominate.

The prefix sums D(n) are exact int64 sums of the terms d(m)/m floored to
units of 2^-52, rounded outward once on conversion to float.  Every
other float in the pipeline carries directed rounding: numpy nextafter
nudges for single operations and a relative pad for np.power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .interval import Interval, _vdn, _vup

__all__ = [
    "GAMMA0",
    "GAMMA1",
    "DivisorErrorScan",
    "divisor_sum",
    "error_term",
    "scan_c",
]

#: Coarse enclosures of the Euler-Mascheroni constant and the first
#: Stieltjes constant.  Deliberately seven digits wide: the downstream
#: constants were derived with exactly these windows, and the scan
#: results are insensitive to the extra width.
GAMMA0 = Interval(0.5772156, 0.5772157)
GAMMA1 = Interval(-0.0728159, -0.0728158)

# covers np.power: exponent nearest-rounding contributes
# ln(x) * u/2 relative, the evaluation another couple of ulps
_POW_PAD = 2e-14


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
    counts = np.zeros(xmax, dtype=np.int64)
    for k in range(1, math.isqrt(xmax) + 1):
        counts[k * k - 1 :: k] += 2
        counts[k * k - 1] -= 1
    return counts


def _cumulative_sum_bounds(xmax: int):
    """Directed bounds for D(n), n = 1..xmax.

    Each term d(m)/m is floored to units of 2^-52 and the units add
    exactly in int64, so D(n) lies in [units, units + n] * 2^-52.  A
    term's d(m) * 2^52 fits in int64 while d(m) < 2^11; so does the sum,
    as D(n) < 2^11 for n < e^60, far beyond any array in memory.
    """
    counts = _divisor_counts(xmax)
    if counts.max() >= 1 << 11:
        raise ValueError(f"divisor counts up to {xmax} overflow int64 units")
    n = np.arange(1, xmax + 1, dtype=np.int64)
    units = np.cumsum((counts << 52) // n)
    lo = _vdn(np.ldexp(units.astype(np.float64), -52))
    hi = _vup(np.ldexp((units + n).astype(np.float64), -52))
    return lo, hi


def _log_bounds(xmax: int):
    """Directed bounds for log n, n = 1..xmax: two ulps cover np.log."""
    log_n = np.log(np.arange(1, xmax + 1, dtype=np.float64))
    return np.maximum(_vdn(_vdn(log_n)), 0.0), _vup(_vup(log_n))  # log n >= 0 here


def _analytic_bounds(xmax: int):
    """Directed bounds for A(n), n = 1..xmax, using the gamma windows."""
    log_lo, log_hi = _log_bounds(xmax)
    c0 = GAMMA0 * GAMMA0 - 2 * GAMMA1  # positive
    # A is increasing in g0 and decreasing in g1 when log n >= 0
    a_lo = _vdn(_vdn(0.5 * log_lo * log_lo) + _vdn(_vdn(2.0 * GAMMA0.lo * log_lo) + c0.lo))
    a_hi = _vup(_vup(0.5 * log_hi * log_hi) + _vup(_vup(2.0 * GAMMA0.hi * log_hi) + c0.hi))
    return a_lo, a_hi


def divisor_sum(x: int) -> Interval:
    """Enclosure of D(x) = sum_{n <= x} d(n)/n."""
    if x < 1:
        raise ValueError(f"divisor_sum needs x >= 1: {x}")
    s_lo, s_hi = _cumulative_sum_bounds(x)
    return Interval(float(s_lo[-1]), float(s_hi[-1]))


def error_term(x: int) -> Interval:
    """Enclosure of E(x) at an integer x >= 1.

    Width is dominated by the deliberate coarseness of the gamma
    windows, roughly 1e-6 at x = 1000, not by rounding.
    """
    if x < 1:
        raise ValueError(f"error_term needs x >= 1: {x}")
    s_lo, s_hi = _cumulative_sum_bounds(x)
    a_lo, a_hi = _analytic_bounds(x)
    return Interval(_vdn(s_lo[-1] - a_hi[-1]), _vup(s_hi[-1] - a_lo[-1]))


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
    c0 = g0 * g0 - 2 * GAMMA1

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
    """Supremum of |E(x)| x^alpha over [1, xmax], plus its location."""
    s_lo, s_hi = _cumulative_sum_bounds(xmax)
    a_lo, a_hi = _analytic_bounds(xmax)
    af = float(alpha)
    n = np.arange(1, xmax + 1, dtype=np.float64)
    pow_lo = _vdn(np.power(n, af) * (1.0 - _POW_PAD))
    pow_hi = _vup(np.power(n + 1.0, af) * (1.0 + _POW_PAD))
    pow_hi_at_n = _vup(np.power(n, af) * (1.0 + _POW_PAD))

    abs_at = np.maximum(np.abs(_vdn(s_lo - a_hi)), np.abs(_vup(s_hi - a_lo)))
    # value just before the jump at n+1: the sum still reads D(n)
    abs_pre = np.maximum(
        np.abs(_vdn(s_lo[:-1] - a_hi[1:])), np.abs(_vup(s_hi[:-1] - a_lo[1:]))
    )
    # unit interval [n, n+1): E decreases between jumps, so the endpoint
    # values dominate |E|, and x^alpha is below (n+1)^alpha
    per_interval = _vup(np.maximum(abs_at[:-1], abs_pre) * pow_hi[:-1])
    last_point = _vup(abs_at[-1] * pow_hi_at_n[-1])
    upper = max(float(per_interval.max(initial=0.0)), float(last_point))

    # certified lower bound: achieved values at integer points
    abs_at_lo = np.maximum(
        np.maximum(_vdn(s_lo - a_hi), 0.0), np.maximum(_vdn(a_lo - s_hi), 0.0)
    )
    achieved = _vdn(abs_at_lo * pow_lo)
    lower = float(achieved.max(initial=0.0))
    where = float(n[int(np.argmax(achieved))]) if xmax >= 1 else 1.0
    return Interval(lower, upper), where


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
