"""Explicit analytic inputs on the certified path, checked against the
package's own prime counts."""

from fractions import Fraction

import mpmath
import numpy as np

from brun.euler_product import _PI_BOUND_FLOOR, _PI_BOUND_K
from brun.sieve import _sieved_segments

PI_LIMIT = 10**8


def pi_bound_ratios(limit: int, k: Fraction) -> tuple:
    """pi(p) over (1 + k/log p) p/log p at every prime 11 <= p <= limit, in float64.

    Returns the primes, their counts pi(p) and the ratios.  The right side
    rises for t > e^2, and pi is constant between primes, so the bound
    holds for every real t in [11, limit] if it holds at every such prime.
    """
    kf = float(k)
    primes, counts, ratios = [], [], []
    pi = 1  # the prime 2; the segments hold the odd primes
    for seg in _sieved_segments(limit):
        p = np.sort(np.concatenate(seg.members()))
        pi_p = pi + np.arange(1, len(p) + 1)
        pi += len(p)
        keep = p >= 11
        p, pi_p = p[keep], pi_p[keep]
        log_p = np.log(p.astype(np.float64))
        ratios.append(pi_p / ((1.0 + kf / log_p) * p / log_p))
        primes.append(p)
        counts.append(pi_p)
    return np.concatenate(primes), np.concatenate(counts), np.concatenate(ratios)


def exact_bound_holds(p: int, pi_p: int, k: Fraction) -> bool:
    """pi(p) <= (1 + k/log p) p/log p, with 40-digit logs and a margin far above their error."""
    with mpmath.workdps(40):
        log_p = mpmath.log(p)
        bound = (1 + mpmath.mpf(k.numerator) / k.denominator / log_p) * p / log_p
        return pi_p <= bound - mpmath.mpf(10) ** -30


class TestPiUpperBound:
    def test_at_every_prime_to_1e8(self):
        primes, counts, ratios = pi_bound_ratios(PI_LIMIT, _PI_BOUND_K)
        assert counts[-1] == 5761455  # pi(1e8): the walk saw every prime
        # float64 puts each ratio within a few ulps; the exact check below
        # covers the tightest points
        worst = int(np.argmax(ratios))
        assert ratios[worst] < 1.0, (primes[worst], counts[worst], ratios[worst])
        for i in np.argsort(ratios)[-20:]:
            assert exact_bound_holds(int(primes[i]), int(counts[i]), _PI_BOUND_K), primes[i]

    def test_tightest_point(self):
        # pi(1627) = 258: 1.2762 holds there with a ratio of 0.999989, and
        # 1.2761 would not (the bound reads 257.9999)
        assert exact_bound_holds(1627, 258, _PI_BOUND_K)
        assert not exact_bound_holds(1627, 258, Fraction("1.2761"))

    def test_holds_below_the_floor(self):
        # the tail floor is not where the bound starts to hold
        primes, counts, ratios = pi_bound_ratios(_PI_BOUND_FLOOR, _PI_BOUND_K)
        assert primes[0] == 11 and primes[-1] <= _PI_BOUND_FLOOR
        for p, pi_p in zip(primes.tolist(), counts.tolist()):
            assert exact_bound_holds(p, pi_p, _PI_BOUND_K), p
