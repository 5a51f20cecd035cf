"""End-to-end acceptance checks for the certified Brun bound pipeline.

Every test here exercises the library the way a consumer would and prints a
single ``ACCEPTANCE`` line (PASS or FAIL) before asserting, so a plain
``pytest -s tests/test_acceptance.py`` doubles as a checklist.  Two checks
compare against published decimals that were corrected before use, and
say why in their docstrings:

* the published decimal 27.63359 for the slow-decay correction coefficient
  truncates 27.6335977422..., which rounds the upper bound the certificate
  needs in the unsound direction; the check uses the same five decimals
  rounded up, 27.63360;
* the worked census-bracket window appears with a dropped digit and
  without the factor 2 of the two-reciprocal sum (1.0567e-6 where the
  arithmetic gives 2.2113e-6 = 2 * 1.10567e-6); the check uses the window
  with both restored.

Long-running optional checks are gated behind environment variables:
``BRUN_ACCEPT_LONG=1`` enables the 10^10 product-bound run (about one
minute on 2 vCPUs), and
``BRUN_FULL_TABLES=<dir>`` enables the full census-table extension.
"""

import json
import math
import os
import random
import time
from decimal import ROUND_DOWN, Decimal
from fractions import Fraction

import pytest

from brun import cli
from brun.divisor_error import scan_c
from brun.euler_product import g_value, h_bound, twin_constant
from brun.interval import EULER_GAMMA, Interval
from brun.projection import project_table
from brun.rv_bound import (
    brun_upper,
    convex_piece,
    derive_params,
    idealized_params,
    integrate_adaptive,
    quadrature,
)
from brun.sieve import census, prime_count, twin_lower_members
from brun.tables import (
    DEFAULT_BASE_ENCLOSURE,
    DEFAULT_BASE_THRESHOLD,
    CensusTableEntry,
    bracket_contribution,
    extend_partial_sum,
    load_table_dir,
)

X0 = 4 * 10**18
PI2_X0 = 3023463123235320


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_certified_upper_bound(tmp_path):
    """brun certify at 4e18 with censused fixtures lands in the stated window."""
    out = tmp_path / "cert.json"
    started = time.monotonic()
    code = cli.main(
        [
            "certify",
            "--x0",
            "4e18",
            "--pi2",
            str(PI2_X0),
            "--brun-lo",
            "1.840503",
            "--brun-hi",
            "1.840518",
            "--out",
            str(out),
        ]
    )
    elapsed = time.monotonic() - started
    payload = json.loads(out.read_text())
    upper = float(payload["result"]["upper"])
    lower = float(payload["result"]["lower"])
    ok = (
        code == 0
        and elapsed <= 300.0
        and 2.2880 <= upper <= 2.288514
        and lower <= upper
    )
    assert _report(1, "certified-upper-bound", ok), (
        f"exit={code} elapsed={elapsed:.1f}s upper={upper!r} "
        "expected upper in [2.2880, 2.288514] within 300s"
    )


def test_02_correction_constants():
    """The four sieve correction coefficients match their published decimals.

    Each coefficient must also contain its 40-digit value, evaluated with
    mpmath from the formulas in the ``derive_params`` docstring (a8 at the
    upper ends of the default C, c and log H windows, the edge the tail
    bound consumes).

    The published slow-decay decimal 27.63359 truncates 24.09391 * sqrt(rho)
    = 27.6335977422..., so it rounds down.  a9 enters F with a minus sign,
    so the certificate needs an upper bound on it, and no sound enclosure
    can satisfy a9 < 27.63359 (it misses by 7.7e-6).  The reference is the
    same five decimals rounded up, 27.63360; the published digits stay on
    record as the truncation of both ends of a9.  The other three decimals
    are already rounded in the sound direction: a6 and a7 down (lower
    bounds), a8 up (upper bound).
    """
    from mpmath import exp, log, mp, mpf, sqrt

    mp.dps = 40
    rho = sqrt(1 + mpf(2) / 3 * sqrt(mpf(6) / 5))
    log_rho = log(rho)
    oracle = {
        "a6": mpf("9.27436") - 2 * log_rho,
        "a7": mpf("-5.6646") + log_rho**2 - mpf("9.2744") * log_rho,
        "a8": 16
        * mpf("1.320324")
        * mpf("1.0503")
        * exp(mpf("6.8565069"))
        * rho ** (mpf(1) / 5),
        "a9": mpf("24.09391") * sqrt(rho),
    }

    p = derive_params()

    def truncated(x):
        return Decimal(x).quantize(Decimal("0.00001"), rounding=ROUND_DOWN)

    checks = {
        "a6 > 8.72606": p.a6.lo > 8.72606,
        "a7 > -8.13199": p.a7.lo > -8.13199,
        "a8 < 22267.54": p.a8.hi < 22267.54,
        "a9 < 27.63360": p.a9.hi < 27.63360,
        "a9 truncates to 27.63359": truncated(p.a9.lo)
        == truncated(p.a9.hi)
        == Decimal("27.63359"),
    }
    for name, exact in oracle.items():
        checks[f"{name} contains {mp.nstr(exact, 20)}"] = _contains(
            getattr(p, name), exact
        )
    ok = all(checks.values())
    _report(2, "correction-constants", ok)
    assert ok, (
        f"failed: {[k for k, v in checks.items() if not v]}; "
        f"a6={p.a6} a7={p.a7} a8={p.a8} a9={p.a9}"
    )


def test_03_product_bound():
    """h_bound(1e8) is finite, fast, and tightens as the cutoff grows."""
    started = time.monotonic()
    reports = [h_bound(10**k, Fraction(2, 5)) for k in (6, 7, 8)]
    elapsed = time.monotonic() - started
    his = [r.h.hi for r in reports]
    ok = (
        elapsed <= 120.0
        and all(math.isfinite(r.h.lo) and math.isfinite(r.h.hi) for r in reports)
        and all(r.h.lo > 0 for r in reports)
        and his[0] >= his[1] >= his[2]
    )
    assert _report(3, "product-bound", ok), (
        f"elapsed={elapsed:.1f}s upper bounds={his} "
        "expected finite, positive, weakly decreasing within 120s"
    )


@pytest.mark.skipif(
    not os.environ.get("BRUN_ACCEPT_LONG"),
    reason="1e10 product bound, about 25 s on 2 vCPUs; set BRUN_ACCEPT_LONG=1 to run",
)
def test_03_product_bound_extended():
    """Full 1e10 product bound reproduces the published checkpoint values."""
    report = h_bound(10**10, Fraction(2, 5))
    s1_ok = (
        abs(report.partial_log_sum.lo - 6.8509190277) <= 5e-10
        and abs(report.partial_log_sum.hi - 6.8509190277) <= 5e-10
    )
    first_ok = report.tail_first_term.issubset(Interval(-0.0013654, -0.0013652))
    integral_ok = report.tail_integral_term.hi <= 0.0069531
    h_ok = report.h.hi < 950.05
    ok = s1_ok and first_ok and integral_ok and h_ok
    assert _report(3, "product-bound-extended", ok), (
        f"s1={report.partial_log_sum} first={report.tail_first_term} "
        f"integral_hi={report.tail_integral_term.hi} h_hi={report.h.hi}"
    )


def test_04_divisor_error_scan():
    """Divisor-sum error scans certify the stated envelope constants."""
    started = time.monotonic()
    third = scan_c(Fraction(1, 3), 10**5)
    fifth = scan_c(Fraction(2, 5), 10**5)
    elapsed = time.monotonic() - started
    window = Interval(1.6407, 1.6409)
    third_ok = third.bound.issubset(window)
    argmax_ok = abs(third.argmax - 7.345e-4) <= 0.02 * 7.345e-4
    refute_ok = third.bound.lo > 1.16
    fifth_ok = fifth.bound.hi <= 1.0503
    ok = elapsed <= 60.0 and third_ok and argmax_ok and refute_ok and fifth_ok
    assert _report(4, "divisor-error-scan", ok), (
        f"elapsed={elapsed:.1f}s third={third.bound} argmax={third.argmax:.4e} "
        f"fifth_hi={fifth.bound.hi}"
    )


def _trial_division_twins(limit):
    flags = bytearray([1]) * (limit + 3)
    flags[0] = flags[1] = 0
    for n in range(2, int((limit + 2) ** 0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = bytearray(len(flags[n * n :: n]))
    return [p for p in range(3, limit + 1) if flags[p] and flags[p + 2]]


def test_05_sieve_census():
    """Sieve counts match trial division and are partition independent."""
    expected = _trial_division_twins(10**5)
    listed = list(twin_lower_members(10**5))
    list_ok = listed == expected
    count_ok = census(10**6).pi2 == 8169 and prime_count(10**6) == 78498

    keys = []
    timing_ok = True
    for threads in (1, 4, 8):
        started = time.monotonic()
        result = census(10**9, threads=threads)
        elapsed = time.monotonic() - started
        timing_ok = timing_ok and elapsed <= 60.0
        keys.append(
            (result.pi2, result.brun_partial.lo.hex(), result.brun_partial.hi.hex())
        )
    partition_ok = keys[0] == keys[1] == keys[2]

    ok = list_ok and count_ok and timing_ok and partition_ok
    assert _report(5, "sieve-census", ok), (
        f"list_ok={list_ok} count_ok={count_ok} timing_ok={timing_ok} "
        f"partition keys={keys}"
    )


def test_06_worked_bracket():
    """The worked census-step bracket lands inside the quoted window.

    The two adjacent table rows give a pair increment of delta = 1106775692
    twins between thresholds 1.000e15 and 1.001e15, so the bracket is
    [2*delta/(t2+2), 2*delta/t1] = [2.21134004e-6, 2.21355138e-6], and it
    must contain both exact endpoints.  The published window
    [1.0567e-6, 1.0678e-6] is the single-reciprocal half bracket
    [delta/(t2+2), delta/t1] = [1.10567e-6, 1.10678e-6] with the first
    digit after the decimal point dropped; no sound evaluation of the sum
    of 1/p + 1/(p+2) can land inside it.  The reference is the quoted
    digits with that digit restored and the factor 2 applied,
    [2.21134e-6, 2.21356e-6].
    """
    lower = CensusTableEntry(mantissa=1000, exponent=12, pi2=1177209242304)
    upper = CensusTableEntry(mantissa=1001, exponent=12, pi2=1178316017996)
    bracket = bracket_contribution(lower, upper)
    delta = 1178316017996 - 1177209242304
    exact_lo = Fraction(2 * delta, 1001 * 10**12 + 2)
    exact_hi = Fraction(2 * delta, 1000 * 10**12)
    window = Interval(2.21134e-6, 2.21356e-6)
    in_window = bracket.issubset(window)
    sound = _contains(bracket, exact_lo) and _contains(bracket, exact_hi)
    ok = in_window and sound
    _report(6, "worked-bracket", ok)
    assert ok, (
        f"bracket [{bracket.lo:.9e}, {bracket.hi:.9e}]: inside "
        f"[2.21134e-6, 2.21356e-6] = {in_window}; contains the exact "
        f"[{float(exact_lo):.9e}, {float(exact_hi):.9e}] = {sound}"
    )


@pytest.mark.skipif(
    not os.environ.get("BRUN_FULL_TABLES"),
    reason="needs the full census tables; set BRUN_FULL_TABLES=<dir> to run",
)
def test_06_full_table_extension():
    """Chaining the full tables from 1e12 reproduces the 4e18 enclosure."""
    entries = load_table_dir(os.environ["BRUN_FULL_TABLES"])
    extended = extend_partial_sum(
        DEFAULT_BASE_THRESHOLD, DEFAULT_BASE_ENCLOSURE, entries
    )
    ok = extended.limit == X0 and extended.brun_partial.issubset(
        Interval(1.840503, 1.840518)
    )
    assert _report(6, "full-table-extension", ok), (
        f"limit={extended.limit} enclosure={extended.brun_partial}"
    )


def test_07_twin_constant():
    """The twin-product constant enclosure sits inside the published digits."""
    enclosure = twin_constant(10**6)
    ok = enclosure.issubset(Interval(1.320323, 1.320324))
    assert _report(7, "twin-constant", ok), f"got {enclosure}"


def test_08_idealized_upper():
    """With error terms zeroed the pipeline reproduces the idealized bound."""
    cert = brun_upper(
        X0, PI2_X0, Interval(1.840503, 1.840518), params=idealized_params()
    )
    ok = abs(cert.upper - 2.28545) <= 5e-5
    assert _report(8, "idealized-upper", ok), f"upper={cert.upper!r}"


def test_09_projections():
    """Conjectural projections reproduce the published table digits."""
    rows = {row.k: row for row in project_table([19, 20, 80])}
    published_upper = {19: 2.2813, 20: 2.2641, 80: 1.9998}
    published_b = {19: (1.84181, 1e-5), 20: (1.84482, 1e-5), 80: (1.8878, 1e-4)}
    upper_ok = all(
        f"{rows[k].upper_pred:.4g}" == f"{v:.4g}" for k, v in published_upper.items()
    )
    b_ok = all(
        abs(rows[k].b_pred - v) <= tol for k, (v, tol) in published_b.items()
    )
    flags_ok = all(row.non_rigorous for row in rows.values())
    ok = upper_ok and b_ok and flags_ok
    assert _report(9, "projections", ok), (
        f"uppers={[(k, f'{rows[k].upper_pred:.4g}') for k in sorted(rows)]} "
        f"b={[(k, rows[k].b_pred) for k in sorted(rows)]}"
    )


def _contains(iv, exact):
    """exact is a Fraction or mpmath mpf; infinite ends absorb their side."""
    lo_ok = iv.lo == float("-inf") or iv.lo <= exact
    hi_ok = iv.hi == float("inf") or exact <= iv.hi
    return lo_ok and hi_ok


def test_10_interval_soundness():
    """1e5 randomized interval operations never exclude the exact value."""
    from mpmath import exp as mexp
    from mpmath import log as mlog
    from mpmath import log1p as mlog1p
    from mpmath import mp, mpf, sqrt as msqrt

    mp.dps = 40
    rnd = random.Random(0x5EED)
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, 2.0]

    def draw(signed=True):
        if rnd.random() < 0.02:
            v = rnd.choice(specials)
            return v if signed else abs(v) + (v == 0.0)
        magnitude = math.exp(rnd.uniform(-200.0, 200.0))
        if signed and rnd.random() < 0.5:
            return -magnitude
        return magnitude

    violations = []

    for _ in range(15000):
        a, b = draw(), draw()
        x, y = Interval.point(a), Interval.point(b)
        cases = [
            (x + y, Fraction(a) + Fraction(b)),
            (x - y, Fraction(a) - Fraction(b)),
            (x * y, Fraction(a) * Fraction(b)),
        ]
        if b != 0.0:
            cases.append((x / y, Fraction(a) / Fraction(b)))
        for iv, exact in cases:
            if not _contains(iv, exact):
                violations.append((a, b, iv, exact))

    for _ in range(13000):
        a = draw(signed=False)
        iv = Interval.point(a).log()
        if not _contains(iv, mlog(mpf(a))):
            violations.append(("log", a, iv))

    for _ in range(13000):
        a = math.copysign(math.exp(rnd.uniform(-5.0, 6.55)), rnd.random() - 0.5)
        iv = Interval.point(a).exp()
        if not _contains(iv, mexp(mpf(a))):
            violations.append(("exp", a, iv))

    for _ in range(9000):
        a = draw(signed=False)
        iv = Interval.point(a).sqrt()
        if not _contains(iv, msqrt(mpf(a))):
            violations.append(("sqrt", a, iv))

    for _ in range(5000):
        a = rnd.uniform(-0.99, 10.0)
        iv = Interval.point(a).log1p()
        if not _contains(iv, mlog1p(mpf(a))):
            violations.append(("log1p", a, iv))

    ok = not violations
    assert _report(10, "interval-soundness", ok), (
        f"{len(violations)} violations, first: {violations[:3]}"
    )


def test_10_quadrature_closed_forms():
    """100 random integrals with known closed forms stay enclosed."""
    from mpmath import exp as mexp
    from mpmath import log as mlog
    from mpmath import mp, mpf

    mp.dps = 40
    rnd = random.Random(0xACCE97)
    violations = []

    for case in range(100):
        a = rnd.uniform(0.8, 4.0)
        b = a + rnd.uniform(0.2, 4.0)
        kind = case % 4
        if kind == 0:
            result = quadrature(a, b, lambda u: 1.0 / (u * u), width_target=1e-2)
            exact = Fraction(1) / Fraction(a) - Fraction(1) / Fraction(b)
        elif kind == 1:
            piece = convex_piece(lambda u: u * u)
            result = integrate_adaptive(piece, a, b, width_target=1e-7)
            exact = (Fraction(b) ** 3 - Fraction(a) ** 3) / 3
        elif kind == 2:
            piece = convex_piece(lambda u: 1.0 / u)
            result = integrate_adaptive(piece, a, b, width_target=1e-7)
            exact = mlog(mpf(b)) - mlog(mpf(a))
        else:
            piece = convex_piece(lambda u: (-u).exp())
            result = integrate_adaptive(piece, a, b, width_target=1e-7)
            exact = mexp(mpf(-a)) - mexp(mpf(-b))
        if not _contains(result.value, exact):
            violations.append((case, a, b, result.value, exact))

    ok = not violations
    assert _report(10, "quadrature-closed-forms", ok), (
        f"{len(violations)} violations, first: {violations[:3]}"
    )


def test_10_multiplicativity():
    """The sieve density ratio is multiplicative for every n up to 1e4."""
    bad = []
    for n in range(2, 10**4 + 1):
        p = next(q for q in range(2, n + 1) if n % q == 0)
        a = 1
        m = n
        while m % p == 0:
            a *= p
            m //= p
        if m > 1 and g_value(n) != g_value(a) * g_value(m):
            bad.append(n)
    ok = not bad
    assert _report(10, "multiplicativity", ok), f"failed at n={bad[:10]}"


def test_10_refinement_containment():
    """Refining a computation always lands inside the coarser enclosure."""
    rnd = random.Random(0xF1FE)
    quad_ok = True
    for _ in range(10):
        a = rnd.uniform(0.9, 3.0)
        b = a + rnd.uniform(0.5, 3.0)
        piece = convex_piece(lambda u: 1.0 / u)
        coarse = integrate_adaptive(piece, a, b, width_target=1e-4)
        fine = integrate_adaptive(piece, a, b, width_target=1e-8)
        quad_ok = quad_ok and fine.value.issubset(coarse.value)

    low = CensusTableEntry(mantissa=1000, exponent=12, pi2=1177209242304)
    mid = CensusTableEntry(mantissa=1001, exponent=12, pi2=1178316017996)
    high = CensusTableEntry(mantissa=1002, exponent=12, pi2=1179421000000)
    direct = bracket_contribution(low, high)
    chained = bracket_contribution(low, mid) + bracket_contribution(mid, high)
    table_ok = chained.issubset(direct) and chained.width < direct.width

    gamma_ok = EULER_GAMMA.issubset(Interval(0.577215, 0.577216))

    ok = quad_ok and table_ok and gamma_ok
    assert _report(10, "refinement-containment", ok), (
        f"quad_ok={quad_ok} table_ok={table_ok} gamma_ok={gamma_ok}"
    )
