"""Explicit analytic inputs on the certified path, checked against the
package's own prime counts."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from brun.euler_product import _PI_BOUND_FLOOR, _PI_BOUND_K, _tail_envelope_coefficient
from brun.interval import Interval
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

    def test_holds_from_two(self):
        # the right side is not monotone below e^2, so [2, 11] is walked on
        # a grid of step 1/100: it stays above 5.5 (its least value, 5.527,
        # is at log t = 1.4655), and pi(t) <= pi(11) = 5 there
        with mpmath.workdps(40):
            k = mpmath.mpf(_PI_BOUND_K.numerator) / _PI_BOUND_K.denominator
            for i in range(901):
                t = 2 + mpmath.mpf(i) / 100
                log_t = mpmath.log(t)
                bound = (1 + k / log_t) * t / log_t
                assert bound > 5.5, t
                assert sum(p <= t for p in (2, 3, 5, 7, 11)) <= bound, t

    def test_holds_below_the_floor(self):
        # the tail floor is not where the bound starts to hold
        primes, counts, ratios = pi_bound_ratios(_PI_BOUND_FLOOR, _PI_BOUND_K)
        assert primes[0] == 11 and primes[-1] <= _PI_BOUND_FLOOR
        for p, pi_p in zip(primes.tolist(), counts.tolist()):
            assert exact_bound_holds(p, pi_p, _PI_BOUND_K), p


@pytest.mark.parametrize("alpha", [Fraction(1, 20), Fraction(1, 3), Fraction(2, 5), Fraction(49, 100)])
def test_tail_envelope_decreases(alpha):
    # _tail_envelope_coefficient's docstring: (t - 2)^2 r'(t) is a sum of
    # negative terms.  r tends to 3, so a difference quotient at 1e300 loses
    # 300 digits: it runs 300 digits above the 40 it is checked to
    with mpmath.workdps(340):
        a = mpmath.mpf(alpha.numerator) / alpha.denominator

        def r(t):
            return (4 * t ** (1 - a) + 3 * t + 2 + 2 * t**a) / (t - 2)

        for t in map(mpmath.mpf, np.geomspace(3.0, 1e300, 31).tolist()):
            terms = [-4 * a * t ** (1 - a), -2 * (1 - a) * t**a, -8 * (1 - a) * t**-a,
                     -4 * a * t ** (a - 1), -8]
            slope = sum(terms) / (t - 2) ** 2
            assert all(term < 0 for term in terms), t
            assert abs(mpmath.diff(r, t, h=t / 10**40) - slope) <= -slope / 10**40, t
            # the formula is the one h_bound evaluates
            iv = _tail_envelope_coefficient(Interval.point(float(t)), alpha)
            assert iv.lo <= r(t) <= iv.hi, t
