"""The twin-sieve density series and the twin prime constant.

The sieve upper bound downstream needs two Euler products.

The first is H(s) = sum_n |g(n)| n^(-s), evaluated at a negative rational
s = -alpha with 0 < alpha < 1/2.  Here g is the multiplicative density
multiplier of the twin sieve, supported on cube-free numbers:

    g(2) = 0       g(4) = -3/4               g(8) = 1/4
    g(p) = 4/(p(p-2))   g(p^2) = -(3p+2)/(p^2(p-2))   g(p^3) = 2/(p^2(p-2))

for odd primes p, and g(p^k) = 0 for k >= 4.  H factors over primes, so
log H = sum_p log(1 + |g(p)| p^alpha + |g(p^2)| p^(2 alpha) +
|g(p^3)| p^(3 alpha)).  The sum over p <= cutoff is evaluated directly:
float64 terms per sieve segment, split by error-free extraction into parts
whose sum is exact, every part added exactly as a rational, and the total
padded by a blanket relative error bound and rounded outward once.  Nothing
is rounded per segment, so the bits do not depend on the segment size.  The
tail over p > cutoff is bounded through partial summation against an
explicit Chebyshev-type bound on pi(t), which turns it into a first term
plus an exponential integral.

The second product is the twin prime constant
C = 2 prod_{p > 2} (1 - 1/(p-1)^2), enclosed the same way: certified
partial product, then a rigorous tail estimate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .interval import Interval, _frac_bracket, ei_neg, rational_pow
from .sieve import _map_shards, _Segment, _sieved_segments

__all__ = [
    "HBoundReport",
    "g_factor_log",
    "g_value",
    "h_bound",
    "twin_constant",
]

#: K in the Chebyshev-type upper bound pi(t) <= (1 + K/log t) t/log t,
#: which Dusart 1999 (Math. Comp. 68) states for t > 1 (not checked against
#: the paper offline); tests/test_explicit.py checks it on [2, 1e8].
_PI_BOUND_K = Fraction("1.2762")

#: Tail estimates refuse cutoffs below this, a domain choice and not the
#: range of the bound above: 599 is where, as recalled and not checked
#: offline, the same paper's pi(t) >= (1 + 1/log t) t/log t starts.
_PI_BOUND_FLOOR = 599

# blanket relative error bound for one float64 log term against its
# true value, relative to the computed term: the worst h term tallies
# about 36 units of 2^-53 (power evaluation with a rounded rational
# exponent dominates), padded to 64; a twin term takes a few units.
# Tests hold both term kinds to half of it against 40-digit values.
_VEC_PAD = 7.2e-15


def _g_local(p: int) -> tuple:
    """Exact (g(p), g(p^2), g(p^3)) for one prime p."""
    if p == 2:
        return Fraction(0), Fraction(-3, 4), Fraction(1, 4)
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"not a prime: {p}")
    d = p * (p - 2)
    return Fraction(4, d), Fraction(-(3 * p + 2), p * d), Fraction(2, p * d)


def g_value(n: int) -> Fraction:
    """g(n) for any n >= 1, by multiplicativity over the factorization."""
    if n < 1:
        raise ValueError(f"g is defined on positive integers: {n}")
    result = Fraction(1)
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k > 3:
                return Fraction(0)
            result *= _g_local(p)[k - 1]
            if result == 0:
                return result
        p += 1 if p == 2 else 2
    if m > 1:
        result *= _g_local(m)[0]
    return result


def g_factor_log(p: int, s: Fraction) -> Interval:
    """log of the local H factor at p: log(1 + sum_k |g(p^k)| p^(-k s)).

    ``s`` must be a negative rational with -1/2 < s < 0.
    """
    s = Fraction(s)
    if not Fraction(-1, 2) < s < 0:
        raise ValueError(f"s out of range (-1/2, 0): {s}")
    base = Interval.from_int(p)
    total = Interval(0.0, 0.0)
    for k, g in enumerate(_g_local(p), 1):
        coeff = abs(g)
        if coeff == 0:
            continue
        e = -k * s
        power = rational_pow(base, e.numerator, e.denominator)
        total = total + Interval.from_fraction(coeff) * power
    return total.log1p()


def _segment_sum(arrays) -> list:
    """Floats whose exact sum is the exact sum of the float64 ``arrays``.

    Error-free extraction (ExtractVector in Rump, Ogita and Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci. Comput.
    31(1), 2008): for n terms r, |r| < 2^e, and sigma = 2^(e + bitlen(n+1)),
    q = (r + sigma) - sigma and r - q are exact and q sums exactly in any
    order.  Blocks of 2^15 are copied to scratch and extracted to zero, each
    level's q.sum() one part; a non-finite term or sigma raises ValueError.
    """
    rs, qs, parts = np.empty(1 << 15), np.empty(1 << 15), []
    for a in arrays:
        for i in range(0, len(a), len(rs)):
            r, q = rs[: len(a) - i], qs[: len(a) - i]
            np.copyto(r, a[i : i + len(r)])
            while top := float(np.abs(r, out=q).max()):
                k = math.frexp(top)[1] + (len(r) + 1).bit_length()
                if not math.isfinite(top) or k > 1023:  # sigma = 2^k overflows
                    raise ValueError(f"no finite extraction grid for a term of {top!r}")
                sigma = math.ldexp(1.0, k)
                np.subtract(np.add(r, sigma, out=q), sigma, out=q)
                np.subtract(r, q, out=r)
                parts.append(float(q.sum()))
        del a  # free each terms array before the next is computed
    return parts


def _shard_log_sum(cutoff: int, terms, shard: tuple) -> tuple:
    """(members, exact sum of the ``_segment_sum`` parts) of one shard's segments."""
    segments = _sieved_segments(cutoff, shard=shard)
    count, total = 0, Fraction(0)
    for parts in map(_Segment.members, segments):
        count += sum(map(len, parts))
        total += sum(map(Fraction, _segment_sum(terms(p.astype(np.float64)) for p in parts)))
    return count, total


def _log_sum(cutoff: int, terms) -> tuple:
    """(enclosure of the sum of ``terms`` over the odd primes <= cutoff, pi(cutoff)).

    ``terms`` maps an array of odd primes, as float64, to float64 terms y,
    all of one sign, each within eps |y| of its true value, eps = _VEC_PAD.
    It sees one class array of a segment's ``members()`` at a time, maybe in
    a forked worker (``_map_shards``), so it must be picklable.  Every part
    of every segment's ``_segment_sum`` is added exactly: neither the segment
    size, the class order nor the worker count can move a bit (a NaN raises).
    """
    # T is the true sum and Y the exact sum of the float terms y.  The
    # terms of one product share a sign (h terms are log1p of a positive
    # number, twin terms log1p(-1/(p-1)^2) < 0), so sum |y| = |Y| and
    # |T - Y| <= eps |Y|.
    fold = functools.partial(_shard_log_sum, cutoff, terms)
    count, total = map(sum, zip(*_map_shards(fold, cutoff)))
    pad = Fraction(_VEC_PAD) * abs(total)
    return _frac_bracket(total - pad, total + pad), count + (cutoff >= 2)  # the prime 2


def _h_local_log_terms(pf: np.ndarray, alpha: Fraction) -> np.ndarray:
    # numerator 4 p^(1+a) + 3 p^(1+2a) + 2 p^(2a) + 2 p^(3a) over p^2 (p-2);
    # exponents rounded once from exact rationals
    e1 = float(1 + alpha)
    e2 = float(1 + 2 * alpha)
    e3 = float(2 * alpha)
    e4 = float(3 * alpha)
    num = (
        4.0 * np.power(pf, e1)
        + 3.0 * np.power(pf, e2)
        + 2.0 * np.power(pf, e3)
        + 2.0 * np.power(pf, e4)
    )
    return np.log1p(num / (pf * pf * (pf - 2.0)))


def _twin_local_log_terms(pf: np.ndarray) -> np.ndarray:
    # log(1 - 1/(p-1)^2), negative for every p >= 3
    q = pf - 1.0
    return np.log1p(-1.0 / (q * q))


def _chebyshev_k2(cutoff_iv: Interval) -> Interval:
    return Interval.from_fraction(_PI_BOUND_K) / cutoff_iv.log() + 1


@dataclass(frozen=True)
class HBoundReport:
    """Certified enclosure of H(-alpha) from a finite prime cutoff."""

    cutoff: int
    alpha: Fraction
    pi_cutoff: int
    partial_log_sum: Interval
    tail_first_term: Interval
    tail_integral_term: Interval
    log_bound: Interval
    h: Interval


def _tail_envelope_coefficient(t: Interval, alpha: Fraction) -> Interval:
    """r(t) = (4 t^(1-a) + 3 t + 2 + 2 t^a) / (t - 2).

    The local H sum at a prime p equals r(p) p^(-beta) with
    beta = 2 - 2 alpha, and r(cutoff) caps every tail factor: r decreases
    on t > 2, since for t > 0 and 0 < a < 1 every term of

        (t - 2)^2 r'(t) = -4a t^(1-a) - 2(1-a) t^a - 8(1-a) t^(-a)
                          - 4a t^(a-1) - 8

    is negative (tests/test_explicit.py checks it against mpmath).
    """
    one_minus = 1 - alpha
    return (
        4 * rational_pow(t, one_minus.numerator, one_minus.denominator)
        + 3 * t
        + 2
        + 2 * rational_pow(t, alpha.numerator, alpha.denominator)
    ) / (t - 2)


def h_bound(cutoff: int, alpha: Fraction) -> HBoundReport:
    """Enclose H(-alpha) using primes up to ``cutoff``.

    The lower end is the partial product alone (every tail factor
    exceeds 1); the upper end adds the tail bound.  Each end is the exact
    sum of its terms' recorded ends, rounded once.  From 1e8 on, forked
    workers sum the partial product (``_log_sum``, the same bits).  Requires
    cutoff >= 599 so the Chebyshev-type bound on pi is available, and
    0 < alpha < 1/2 so the tail series converges with room.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < Fraction(1, 2):
        raise ValueError(f"alpha out of range (0, 1/2): {alpha}")
    if cutoff < _PI_BOUND_FLOOR:
        raise ValueError(f"cutoff below {_PI_BOUND_FLOOR}: {cutoff}")

    beta = 2 - 2 * alpha  # tail factors decay like t^(-beta)

    # s1 is the local log sum over p <= cutoff, p = 2 included
    odd, pi_cutoff = _log_sum(cutoff, functools.partial(_h_local_log_terms, alpha=alpha))
    g2 = g_factor_log(2, -alpha)
    s1 = _frac_bracket(Fraction(odd.lo) + Fraction(g2.lo), Fraction(odd.hi) + Fraction(g2.hi))

    t0 = Interval.from_int(cutoff)
    # one constant K >= r(p) for every prime p > cutoff, since r decreases
    k1 = Interval.point(_tail_envelope_coefficient(t0, alpha).hi)
    k2 = _chebyshev_k2(t0)

    p_beta = rational_pow(t0, -beta.numerator, beta.denominator)
    first = -((k1 * p_beta).log1p() * pi_cutoff)
    z = Interval.from_fraction(beta - 1) * t0.log()
    integral = Interval.from_fraction(beta) * k1 * k2 * -ei_neg(-z)

    log_hi = Fraction(s1.hi) + Fraction(first.hi) + Fraction(integral.hi)
    log_bound = _frac_bracket(Fraction(s1.lo), log_hi)
    return HBoundReport(
        cutoff=cutoff,
        alpha=alpha,
        pi_cutoff=pi_cutoff,
        partial_log_sum=s1,
        tail_first_term=first,
        tail_integral_term=integral,
        log_bound=log_bound,
        h=log_bound.exp(),
    )


def twin_constant(cutoff: int) -> Interval:
    """Enclosure of the twin prime constant 2 prod_{p>2} (1 - 1/(p-1)^2).

    The partial product over p <= cutoff, summed as in ``h_bound``, is an
    upper bound already; the lower end divides off a certified tail.  For
    cutoff >= 601 the tail uses partial summation against the Chebyshev-type
    pi bound; smaller cutoffs fall back to the crude integral tail 2/(cutoff - 1).
    """
    if cutoff < 3:
        raise ValueError(f"cutoff must be >= 3: {cutoff}")
    log_sum, pi_cutoff = _log_sum(cutoff, _twin_local_log_terms)
    partial = 2 * log_sum.exp()

    t0 = Interval.from_int(cutoff)
    if cutoff >= _PI_BOUND_FLOOR + 2:
        # sum_{p > cutoff} -log(1 - x_p) <= sum x_p + x_p^2 with
        # x_p = 1/(p-1)^2, then partial summation: the integral
        # int_cutoff^inf f(t) dt = 1/(t0-1) + 1/(3 (t0-1)^3)
        q = t0 - 1
        f0 = 1 / (q * q) + 1 / (q * q * q * q)
        k2 = _chebyshev_k2(t0)
        integral = 1 / q + 1 / (3 * q * q * q)
        tail_hi = (-(f0 * pi_cutoff) + (k2 / t0.log()) * (t0 * f0 + integral)).hi
    else:
        tail_hi = (2 / (t0 - 1)).hi
    damp = Interval(-tail_hi, 0.0).exp()
    return Interval((partial * damp).lo, partial.hi)
