"""An independent replay of the certified numbers, in mpmath's interval
arithmetic at 90 bits.

The replay takes only the package's results: it rebuilds the correction
constants from the decimal literals of the source paper (arXiv:1803.01925)
and the three literal windows (C, c and log H), bounds the tail
majorant's integral from below on a grid of its own, and sums both Euler
log sums term by term from the definitions.  The census partial sum is
replayed as an exact rational over the pairs of a plain sieve, and the
divisor-error scan from divisor counts by trial multiples and mpmath's
own Euler and Stieltjes constants.  The certificate's ``upper`` must lie
at or above the replayed lower bound of the certificate it stands for,
within a stated gap, and each package enclosure must contain its
replayed value.
"""

import json
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from brun.cli import main
from brun.divisor_error import scan_c
from brun.euler_product import _log_sum, _twin_local_log_terms, h_bound, twin_constant
from brun.sieve import census

PREC = 90
X0 = 4 * 10**18
PI2_X0 = 3023463123235320
CERTIFY = ["certify", "--x0", "4e18", "--pi2", str(PI2_X0)]
CERTIFY += ["--brun-lo", "1.840503", "--brun-hi", "1.840518"]
CUTOFF_U = 20000
PIECES = 6000
# upper minus the replayed lower bound: 1.79e-7 for both certificates, the
# frozen F's first-order error on PIECES pieces plus the certificate's own
# quadrature slack.  Reading a8.lo for a8.hi lowers upper by 3.75e-7.
GAP = 2.5e-7


@pytest.fixture(autouse=True)
def precision():
    saved, iv.prec = iv.prec, PREC
    yield
    iv.prec = saved


def constants(improved: bool) -> dict:
    """rho, a6..a9, kappa and the windows, from the literals alone."""
    d = iv.mpf
    rho = iv.sqrt(1 + d(2) / 3 * iv.sqrt(d(6) / 5))
    log_rho = iv.log(rho)
    c_twin = d(["1.320323", "1.320324"])
    c_scan = d(["1.0502", "1.0503"])
    h = iv.exp(d(["6.8509190276", "6.8565069"]))
    x0 = d(X0)
    if improved:
        a9 = d("19.638") * iv.sqrt(rho)
        kappa = 1 / iv.sqrt(x0) + d("5.03") / (iv.sqrt(rho) * iv.log(x0 / rho))
    else:
        a9, kappa = d("24.09391") * iv.sqrt(rho), d(2)
    return {
        "C": c_twin,
        "a6": d("9.27436") - 2 * log_rho,
        "a7": d("-5.6646") + log_rho**2 - d("9.2744") * log_rho,
        "a8": 16 * c_twin * c_scan * h * iv.exp(log_rho / 5),  # rho^(alpha/2), alpha = 2/5
        "a9": a9,
        "kappa": kappa,
    }


def grid() -> list:
    """PIECES + 1 nodes in u, uniform in 1/u, from log X0 rounded down to CUTOFF_U."""
    u0 = iv.log(iv.mpf(X0)).a
    s0, s1 = 1 / iv.mpf(u0), 1 / iv.mpf(CUTOFF_U)
    inner = [(1 / (s0 + (s1 - s0) * k / PIECES)).mid for k in range(1, PIECES)]
    return [u0] + inner + [iv.mpf(CUTOFF_U).a]


def replayed_lower(k: dict, nodes: list, decay: list) -> mpmath.mpf:
    """A lower bound of the certificate the majorant gives:
    B(x0).hi - 2 pi2/x0 + 16 C.hi (J + T) + 4 kappa/sqrt(x0), lower end.

    The majorant's F takes the ends a6.lo, a7.lo, a8.hi, a9.hi and is
    nondecreasing, so on a piece [a, b] it is at most phi, the upper end
    of F at b, and J is at least the sum of the integrals of
    1/(u (u + phi)).  F stays below a6.lo, so the tail beyond the cutoff
    T is at least log1p(a6.lo/CUTOFF_U)/a6.lo."""
    a6, a7 = iv.mpf(k["a6"].a), iv.mpf(k["a7"].a)
    a8, a9 = iv.mpf(k["a8"].b), iv.mpf(k["a9"].b)
    total = iv.mpf(0)
    for (a, b), (xa_u, xs_u) in zip(zip(nodes, nodes[1:]), decay):
        ua, ub = iv.mpf(a), iv.mpf(b)
        phi = iv.mpf(max(0, (a6 + a7 / ub - a8 / xa_u - a9 / xs_u).b))
        total += iv.log1p(phi * (ub - ua) / (ua * (ub + phi))) / phi
    tail = iv.log1p(a6 / CUTOFF_U) / a6
    x0 = iv.mpf(X0)
    lower = iv.mpf("1.840518") - 2 * iv.mpf(PI2_X0) / x0 + 4 * k["kappa"] / iv.sqrt(x0)
    lower += 16 * iv.mpf(k["C"].b) * (iv.mpf(total.a) + tail)
    return lower.a


def certified_upper(tmp_path, extra: list) -> float:
    out = tmp_path / "cert.json"
    assert main(CERTIFY + extra + ["--out", str(out)]) == 0
    return float.fromhex(json.loads(out.read_text())["result"]["upper_hex"])


def test_certificate_upper_at_or_above_replay(tmp_path):
    nodes = grid()
    # x^(alpha/2) u and x^(1/2) u at each right node, x = e^u
    decay = [(iv.exp(u / 5) * u, iv.exp(u / 2) * u) for u in map(iv.mpf, nodes[1:])]
    for extra, improved in (([], False), (["--improved"], True)):
        replay = replayed_lower(constants(improved), nodes, decay)
        upper = certified_upper(tmp_path, extra)
        assert replay <= mpmath.mpf(upper), (extra, float(replay), upper)
        # and close to it, so a certificate gone wrong low cannot pass
        assert mpmath.mpf(upper) - replay < GAP, (extra, float(replay), upper)


def odd_primes(limit: int) -> list:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for n in range(2, math.isqrt(limit) + 1):
        if flags[n]:
            flags[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
    return [n for n in range(3, limit + 1) if flags[n]]


def contains(enclosure, x) -> bool:
    return mpmath.mpf(enclosure.lo) <= x.a and x.b <= mpmath.mpf(enclosure.hi)


def test_euler_log_sums_contain_replay():
    cutoff = 10**5
    alpha = iv.mpf(2) / 5
    # p = 2: g(2) = 0, |g(4)| = 3/4, |g(8)| = 1/4
    s_h = iv.log(1 + iv.mpf(3) / 4 * iv.mpf(4) ** alpha + iv.mpf(1) / 4 * iv.mpf(8) ** alpha)
    s_twin = iv.mpf(0)
    for p in odd_primes(cutoff):
        q = iv.mpf(p)
        pa = iv.exp(iv.log(q) * alpha)
        # |g(p)| p^a + |g(p^2)| p^(2a) + |g(p^3)| p^(3a)
        g1, g2, g3 = 4 / (q * (q - 2)), (3 * q + 2) / (q * q * (q - 2)), 2 / (q * q * (q - 2))
        s_h += iv.log1p(g1 * pa + g2 * pa * pa + g3 * pa * pa * pa)
        s_twin += iv.log1p(-1 / ((q - 1) * (q - 1)))
    report = h_bound(cutoff, Fraction(2, 5))
    assert contains(report.partial_log_sum, s_h)
    assert contains(report.log_bound, s_h)
    assert contains(_log_sum(cutoff, _twin_local_log_terms)[0], s_twin)
    # the partial product 2 exp(S) lies in C's enclosure: the tail only lowers it
    assert contains(twin_constant(cutoff), 2 * iv.exp(s_twin))


def test_census_partial_sum_contains_replay():
    limit = 10**6
    primes = odd_primes(limit + 2)
    pairs = [p for p, q in zip(primes, primes[1:]) if q == p + 2]
    # 1/p + 1/(p + 2) = (2p + 2)/(p (p + 2)), added pairwise so the
    # numerators and denominators grow evenly
    terms = [(2 * p + 2, p * (p + 2)) for p in pairs]
    while len(terms) > 1:
        merged = [(a * d + b * c, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])]
        terms = merged + terms[len(merged) * 2 :]
    exact = Fraction(*terms[0])
    result = census(limit)
    assert result.pi2 == len(pairs) == 8169
    assert Fraction(result.brun_partial.lo) <= exact <= Fraction(result.brun_partial.hi)


def hull(intervals: list):
    """The interval from the greatest lower end to the greatest upper end:
    it contains the maximum of the values each interval contains."""
    return iv.mpf([max(x.a for x in intervals), max(x.b for x in intervals)])


def test_scan_c_contains_replay():
    """sup |E(x)| x^a for a = 2/5, with E = D - A as in ``divisor_error``.

    On (0, 1), x = e^u and E = -A: the supremum is A(1) = g0^2 - 2 g1 or a
    critical point, a root of (a/2) u^2 + (1 + 2 a g0) u + (2 g0 + a A(1)).
    On [1, xmax] the replay is the largest value at an integer n and just
    before each jump at n + 1, where D still reads D(n).  Each is a value
    of the function or a limit of its values, so the replay lies at or
    below the supremum and the scan's upper end; the scan's lower end is
    the largest value at an integer rounded down, at or below the replay.
    """
    xmax = 10**4
    a = iv.mpf(2) / 5
    with mpmath.workprec(PREC + 20):
        stieltjes1 = mpmath.stieltjes(1)
    g0 = iv.euler
    g1 = iv.mpf([stieltjes1 - mpmath.mpf(2) ** -PREC, stieltjes1 + mpmath.mpf(2) ** -PREC])
    c0 = g0 * g0 - 2 * g1

    def model(u):  # A(e^u)
        return u * u / 2 + 2 * g0 * u + c0

    qa, qb, qc = a / 2, 1 + 2 * a * g0, 2 * g0 + a * c0
    sq = iv.sqrt(qb * qb - 4 * qa * qc)
    roots = [r for r in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)) if r.b < 0]
    head = hull([c0] + [abs(model(u)) * iv.exp(a * u) for u in roots])

    divisors = [0] * (xmax + 1)
    for k in range(1, xmax + 1):
        for m in range(k, xmax + 1, k):
            divisors[m] += 1
    d_sum = iv.mpf(0)
    values = []
    for n in range(1, xmax + 1):
        log_n = iv.log(n)
        model_n, power = model(log_n), iv.exp(a * log_n)
        if n > 1:  # the left limit at n: D still reads D(n - 1)
            values.append(abs(d_sum - model_n) * power)
        d_sum += iv.mpf(divisors[n]) / n
        values.append(abs(d_sum - model_n) * power)
    scanned = hull(values)

    scan = scan_c(Fraction(2, 5), xmax)
    assert contains(scan.head, head)
    assert contains(scan.scanned, scanned)
    assert contains(scan.bound, hull([head, scanned]))
