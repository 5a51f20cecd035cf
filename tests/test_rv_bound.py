"""Corrected sieve constants, rigorous quadrature, and the tail assembly."""

import math
import random
import subprocess
import sys
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from brun import rv_bound
from brun.divisor_error import scan_c
from brun.euler_product import h_bound, twin_constant
from brun.interval import Interval
from brun.rv_bound import (
    DEFAULT_H_LOG,
    DEFAULT_SCAN_BOUND,
    DEFAULT_TWIN_C,
    QuadratureError,
    brun_upper,
    convex_piece,
    correction_piece,
    correction_term_log,
    derive_params,
    enclosure_piece,
    idealized_params,
    integrate_adaptive,
    pi2_upper,
    quadrature,
)
from conftest import hex_ends

X0 = 4 * 10**18
PI2_X0 = 3023463123235320
PARTIAL_X0 = Interval(1.840503, 1.840518)

# frozen 30-digit references, computed independently with every input
# constant at the end of its default window that minimizes F (so they pin
# the certificate-relevant edge of each enclosure)
RHO = Decimal("1.31540744385160808797554322042")
A6 = Decimal("8.72606707825722335668242129275")
A7 = Decimal("-8.13198765469729620229676151579")
A8 = Decimal("22267.3756982480047223581259846")
A9 = Decimal("27.633597742226074434960954402")
A9_IMPROVED = Decimal("22.5230604937860085703716508673")
KAPPA_IMPROVED = Decimal("0.103050402994835496071253608102")
F_AT_LOG_X0 = Decimal("8.437248278309599768651149")
F_AT_100 = Decimal("8.644746742745429568217541")
F_AT_400LOG10 = Decimal("8.717237884843872351237868")
F_AT_20000 = Decimal("8.725660478874488491872306")
# the three uppers take the tail beyond u = 20000 as log1p(phi/20000)/phi,
# phi = F_AT_20000 (9.27436 idealized); with the earlier 1/20000 they read
# 2.288512619435019129755816, 2.285451962761465830802934 and
# 2.288512615641100751798359
UPPER_STD = Decimal("2.288512389088035424709402")
UPPER_IDEAL = Decimal("2.285451717933948338434068")
UPPER_IMPROVED = Decimal("2.288512385294117046751945")
PI2_UPPER_1E9 = Decimal("24658657.92309592556031065")
PI2_UPPER_X0 = Decimal("19239328500606297.16931245")
J_SCALED = Decimal("0.448450087796636789755816")
LN_2 = Decimal("0.693147180559945309417232121458176568")
E_MINUS_1 = Decimal("1.718281828459045235360287471352662498")


def contains(iv: Interval, d: Decimal) -> bool:
    return Decimal(iv.lo) <= d <= Decimal(iv.hi)


class TestDeriveParams:
    def test_rho(self):
        p = derive_params()
        assert contains(p.rho, RHO)
        assert p.rho.width < 1e-14

    def test_correction_constants(self):
        p = derive_params()
        assert contains(p.a6, A6)
        assert contains(p.a7, A7)
        assert contains(p.a8, A8)
        assert contains(p.a9, A9)
        assert p.a6.width < 1e-13
        assert p.a7.width < 1e-13
        assert p.a9.width < 1e-12
        # a8 inherits the wide default H window; its upper end is what
        # the tail bound consumes and must stay sharp
        assert Decimal(p.a8.hi) - A8 < Decimal("1e-7")

    def test_standard_sqrt_coefficient(self):
        p = derive_params()
        assert p.sqrt_coefficient == Interval(2.0, 2.0)
        assert p.sqrt_valid_from == 2

    def test_improved_variant(self):
        p = derive_params(improved_at=X0)
        assert contains(p.a9, A9_IMPROVED)
        assert contains(p.sqrt_coefficient, KAPPA_IMPROVED)
        assert p.sqrt_coefficient.width < 1e-15
        assert p.sqrt_valid_from == X0

    def test_improved_needs_anchor(self):
        # the anchor must lie above rho, where log(x0/rho) > 0
        with pytest.raises(ValueError):
            derive_params(improved_at=1)

    def test_improved_anchor_is_enclosed(self):
        # 4e18 + 300 is no double: the nearest one, 4e18 + 512, lies above it
        x0 = X0 + 300
        p = derive_params(improved_at=x0)
        assert p.sqrt_valid_from == x0
        with mpmath.workdps(40):
            rho = mpmath.sqrt(1 + mpmath.mpf(2) / 3 * mpmath.sqrt(mpmath.mpf(6) / 5))
            kappa = 1 / mpmath.sqrt(x0) + mpmath.mpf("5.03") / (
                mpmath.sqrt(rho) * mpmath.log(x0 / rho)
            )
            assert p.sqrt_coefficient.lo <= kappa <= p.sqrt_coefficient.hi
        brun_upper(x0, PI2_X0, PARTIAL_X0, params=p)
        # one below the anchor rounds to the same double, but kappa does not hold there
        with pytest.raises(ValueError, match="validity floor"):
            brun_upper(x0 - 1, PI2_X0, PARTIAL_X0, params=p)
        with pytest.raises(ValueError, match="validity floor"):
            pi2_upper(Interval.from_int(x0 - 1), p)

    def test_alpha_is_fixed(self):
        # the literal constants hold at alpha = 2/5 only, so it is no input
        assert derive_params().alpha == Fraction(2, 5)
        with pytest.raises(TypeError):
            derive_params(alpha=Fraction(5, 12))
        with pytest.raises(TypeError):
            derive_params(Fraction(5, 12))

    def test_explicit_inputs_propagate(self):
        wide = derive_params(h=Interval(940.0, 960.0))
        narrow = derive_params(h=Interval(950.0, 950.1))
        assert narrow.a8.issubset(wide.a8)

    def test_literals_agree_with_computed_constants(self):
        # the default windows must hold what the package itself certifies
        assert twin_constant(10**7).issubset(DEFAULT_TWIN_C)
        assert scan_c(Fraction(2, 5), 10**6).bound.issubset(DEFAULT_SCAN_BOUND)
        # the computed log H is still the wider one (two-sided tails would
        # let the literal hold the computed enclosure instead)
        assert DEFAULT_H_LOG.issubset(h_bound(10**6, Fraction(2, 5)).log_bound)

    def test_idealized(self):
        p = idealized_params()
        assert contains(p.a6, Decimal("9.27436"))
        assert p.a7 == Interval(0.0, 0.0)
        assert p.a8 == Interval(0.0, 0.0)
        assert p.a9 == Interval(0.0, 0.0)
        assert p.sqrt_coefficient == Interval(0.0, 0.0)


class TestCorrectionTerm:
    def test_small_u_clamps_to_zero(self):
        p = derive_params()
        assert correction_term_log(Interval.point(20.0), p) == Interval(0.0, 0.0)

    def test_frozen_values(self):
        p = derive_params()
        u0 = Interval.from_int(X0).log()
        assert contains(correction_term_log(u0, p), F_AT_LOG_X0)
        assert contains(correction_term_log(Interval.point(100.0), p), F_AT_100)
        u400 = Interval.point(400.0) * Interval.point(10.0).log()
        assert contains(correction_term_log(u400, p), F_AT_400LOG10)
        assert contains(correction_term_log(Interval.point(20000.0), p), F_AT_20000)

    def test_width_tracks_input_windows(self):
        p = derive_params()
        at_u0 = correction_term_log(Interval.from_int(X0).log(), p)
        at_100 = correction_term_log(Interval.point(100.0), p)
        assert at_u0.width < 6e-4
        assert at_100.width < 1e-8

    def test_nondecreasing(self):
        p = derive_params()
        grid = [30.0, 43.0, 50.0, 60.0, 80.0, 100.0, 200.0, 1000.0, 20000.0]
        values = [correction_term_log(Interval.point(u), p) for u in grid]
        for prev, cur in zip(values, values[1:]):
            assert cur.lo >= prev.lo
            assert cur.hi >= prev.hi

    def test_domain_errors(self):
        p = derive_params()
        with pytest.raises(ValueError):
            correction_term_log(Interval(-1.0, 2.0), p)


PARAM_SETS = pytest.mark.parametrize(
    "make_params",
    [
        derive_params,
        lambda: derive_params(improved_at=X0),
        idealized_params,
    ],
    ids=["default", "improved", "idealized"],
)


def majorant_integral(params, a: float, b: float) -> mpmath.mpf:
    """16 C.hi times the integral over [a, b] of du / (u (u + F)), F at its
    box's least constants a6.lo, a7.lo, a8.hi, a9.hi, at 40 digits."""
    a6, a7 = (mpmath.mpf(x.lo) for x in (params.a6, params.a7))
    a8, a9 = (mpmath.mpf(x.hi) for x in (params.a8, params.a9))

    def f(u):
        return a6 + a7 / u - a8 * mpmath.exp(-u / 5) / u - a9 * mpmath.exp(-u / 2) / u

    points = [mpmath.mpf(a), mpmath.mpf(b)]
    if f(points[0]) < 0 < f(points[1]):  # F's clamp at 0 has a kink at the root
        points.insert(1, mpmath.findroot(f, tuple(points), solver="anderson"))
    value, error = mpmath.quad(lambda u: 1 / (u * (u + max(0, f(u)))), points, error=True)
    assert error < mpmath.mpf(10) ** -30
    return 16 * mpmath.mpf(params.twin_c.hi) * value


class TestCorrectionPiece:
    """The chord rule against the majorant's integral."""

    @PARAM_SETS
    def test_encloses_majorant_integral(self, make_params):
        p = make_params()
        rng = random.Random(20181)
        pieces = []
        for _ in range(15):  # below F's root at u = 23.61, where F = 0
            a = rng.uniform(16.0, 23.0)
            pieces.append((a, rng.uniform(a, 23.5)))
        for _ in range(15):  # across it
            pieces.append((rng.uniform(16.0, 23.5), rng.uniform(23.7, 40.0)))
        for _ in range(30):  # above it, anywhere, any length
            a = math.exp(rng.uniform(math.log(24.0), math.log(20000.0)))
            pieces.append((a, min(20000.0, a + a * 10 ** rng.uniform(-6.0, 0.5))))
        for _ in range(10):  # a few ulps long, too thin to quarter
            a = math.exp(rng.uniform(math.log(24.0), math.log(20000.0)))
            pieces.append((a, a + rng.randint(1, 3) * math.ulp(a)))
        rule = correction_piece(p)
        with mpmath.workdps(40):
            for a, b in pieces:
                got = rule(a, b)
                assert got.lo <= majorant_integral(p, a, b) <= got.hi, (a, b, got)

    def test_needs_concave_correction(self):
        # the chords need a7 <= 0 <= a8, a9 at the majorant's ends
        with pytest.raises(ValueError, match="a7 <= 0"):
            correction_piece(replace(derive_params(), a7=Interval(1.0, 2.0)))


class TestPi2Upper:
    def test_frozen_values(self):
        p = derive_params()
        assert contains(pi2_upper(Interval.point(1e9), p), PI2_UPPER_1E9)
        assert contains(pi2_upper(Interval.from_int(X0), p), PI2_UPPER_X0)

    def test_dominates_true_counts(self):
        p = derive_params()
        assert pi2_upper(Interval.point(1e9), p).hi > 3424506
        assert pi2_upper(Interval.from_int(X0), p).hi > PI2_X0

    def test_improved_is_sharper_at_anchor(self):
        std = pi2_upper(Interval.from_int(X0), derive_params())
        imp = pi2_upper(Interval.from_int(X0), derive_params(improved_at=X0))
        assert imp.hi < std.hi

    def test_validity_floor(self):
        imp = derive_params(improved_at=X0)
        with pytest.raises(ValueError):
            pi2_upper(Interval.point(1e9), imp)


class TestQuadrature:
    def test_inverse_square_zeroth_order(self):
        result = quadrature(
            1.0, 10.0, lambda u: 1 / (u * u), width_target=1e-4
        )
        assert contains(result.value, Decimal("0.9"))
        assert result.value.width <= 1e-4
        assert result.achieved_width <= 1e-4

    def test_log_via_convex_rule(self):
        result = integrate_adaptive(
            convex_piece(lambda u: 1 / u), 1.0, 2.0, width_target=1e-7
        )
        assert contains(result.value, LN_2)
        assert result.value.width <= 1e-7

    def test_exponential_via_convex_rule(self):
        result = integrate_adaptive(
            convex_piece(lambda u: u.exp()), 0.0, 1.0, width_target=1e-7
        )
        assert contains(result.value, E_MINUS_1)

    def test_parabola_exact_fraction(self):
        result = integrate_adaptive(
            convex_piece(lambda u: u * u), 0.0, 1.0, width_target=1e-8
        )
        third = Fraction(1, 3)
        assert Fraction(result.value.lo) <= third <= Fraction(result.value.hi)

    def test_deterministic(self):
        runs = [
            quadrature(1.0, 10.0, lambda u: 1 / (u * u), width_target=1e-3)
            for _ in range(2)
        ]
        assert runs[0].value == runs[1].value
        assert runs[0].pieces == runs[1].pieces

    def test_refinement_nests(self):
        coarse = quadrature(1.0, 10.0, lambda u: 1 / (u * u), width_target=1e-3)
        fine = quadrature(1.0, 10.0, lambda u: 1 / (u * u), width_target=5e-4)
        assert fine.value.issubset(coarse.value)
        assert fine.pieces >= coarse.pieces

    def test_budget_exhaustion(self):
        with pytest.raises(QuadratureError) as exc:
            quadrature(1.0, 10.0, lambda u: 1 / (u * u), 1e-9, max_pieces=50)
        assert exc.value.achieved_width > 1e-9
        assert exc.value.pieces == 50

    def test_unsplittable_piece(self):
        b = math.nextafter(1.0, 2.0)
        with pytest.raises(QuadratureError):
            quadrature(1.0, b, lambda u: 1 / u, width_target=1e-300)

    def test_empty_range(self):
        with pytest.raises(ValueError):
            quadrature(2.0, 2.0, lambda u: u, width_target=1e-3)


class TestBrunUpper:
    def test_certificate_against_reference(self):
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0)
        # the reference value sits at the F-minimizing edge of the
        # parameter box, so the certified upper can only exceed it by the
        # quadrature slack
        assert UPPER_STD - Decimal("1e-12") <= Decimal(cert.upper)
        assert Decimal(cert.upper) <= UPPER_STD + Decimal("1e-6")
        assert cert.lower == PARTIAL_X0.lo
        assert cert.upper > cert.lower

    def test_certificate_fields(self):
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0)
        assert cert.x0 == X0
        assert cert.pi2_x0 == PI2_X0
        assert cert.cutoff_u == 20000.0
        assert contains(cert.integral, J_SCALED)
        with mpmath.workdps(30):
            phi = mpmath.mpf(str(F_AT_20000))
            tail = mpmath.log1p(phi / 20000) / phi
        assert cert.tail_bound.lo <= tail <= cert.tail_bound.hi < 1 / 20000
        # x0 = 4e18 has an exact double square root, so the sqrt tail is
        # 8 / 2e9 up to rounding
        st = Fraction(8, 2 * 10**9)
        assert Fraction(cert.sqrt_tail.lo) <= st <= Fraction(cert.sqrt_tail.hi)
        pt = Fraction(2 * PI2_X0, X0)
        assert Fraction(cert.pair_term.lo) <= pt <= Fraction(cert.pair_term.hi)

    @pytest.mark.parametrize(
        "make_params, upper, integral, pieces, before",
        [
            (
                derive_params,
                "0x1.24edf9b98673ap+1",
                ("0x1.cb3642dcf2e99p-2", "0x1.cb3683119afa9p-2"),
                36,
                ("0x1.24edfc76b796ap+1", ("0x1.cb36466a61b58p-2", "0x1.cb368985cf531p-2")),
            ),
            (
                lambda: derive_params(improved_at=X0),
                "0x1.24edf9b160b91p+1",
                ("0x1.cb3642dcf2d45p-2", "0x1.cb3683119ae4fp-2"),
                36,
                ("0x1.24edfc6e91dbcp+1", ("0x1.cb36466a619fdp-2", "0x1.cb368985cf3adp-2")),
            ),
            (
                idealized_params,
                "0x1.2489ae908e81ap+1",
                ("0x1.c8142b0759a7cp-2", "0x1.c8142b0759a9dp-2"),
                1,
                ("0x1.2489b09e51dbbp+1", ("0x1.c8141464017f2p-2", "0x1.c8142b0759ab4p-2")),
            ),
        ],
        ids=["default", "improved", "idealized"],
    )
    def test_exact_bits(self, make_params, upper, integral, pieces, before):
        # pins the certificate's bits, not only its 1e-6 window; ``before``
        # holds the pins of the frozen-F rule and the 1/cutoff tail.  The
        # integral's lower end now bounds the majorant's integral, not the
        # integrand's over the parameter box, so only its upper end nests
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0, params=make_params())
        old_upper, old_integral = before
        assert cert.upper.hex() == upper
        assert float.fromhex(upper) <= float.fromhex(old_upper)
        assert cert.quad_pieces == pieces
        assert hex_ends(cert.integral) == integral
        assert float.fromhex(integral[1]) <= float.fromhex(old_integral[1])

    def test_certifies_without_numpy(self):
        # a fresh interpreter where importing numpy fails, and a stub brun
        # package so that __init__ (which imports every module) does not run
        child = """
import sys, types
sys.modules["numpy"] = None
package = types.ModuleType("brun")
package.__path__ = [sys.argv[1]]
sys.modules["brun"] = package
from decimal import Decimal
from brun.interval import _frac_bracket
from brun.rv_bound import brun_upper
partial = _frac_bracket(Decimal("1.840503"), Decimal("1.840518"))
cert = brun_upper(4 * 10**18, 3023463123235320, partial)
print(cert.upper.hex(), cert.quad_pieces)
"""
        src = Path(rv_bound.__file__).parent
        proc = subprocess.run(
            [sys.executable, "-c", child, str(src)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        upper, pieces = proc.stdout.split()
        assert upper == "0x1.24edf9b98673ap+1"
        assert int(pieces) == 36

    def test_correction_evaluated_once_per_node(self, monkeypatch):
        # each bisection adds two pieces and four quarter points: n pieces,
        # 4n + 1 nodes, each evaluated once
        calls = []
        evaluate = rv_bound.correction_term_log

        def counting(u, params):
            calls.append(u.lo)
            return evaluate(u, params)

        monkeypatch.setattr(rv_bound, "correction_term_log", counting)
        rule = correction_piece(derive_params())
        quad = integrate_adaptive(rule, Interval.from_int(X0).log().lo, 20000.0, 1e-6)
        assert len(calls) == len(set(calls)) == 4 * quad.pieces + 1

    def test_exact_inputs_do_not_grow_with_pieces(self, monkeypatch):
        # alpha/2 enters F once per parameter set: from_fraction's calls do
        # not grow with the pieces (they grew by one per node of F)
        calls = []
        enclose = Interval.from_fraction

        def counting(q):
            calls.append(q)
            return enclose(q)

        params = derive_params()
        monkeypatch.setattr(Interval, "from_fraction", staticmethod(counting))
        counts, pieces = [], []
        for width_target in (1e-6, 1e-7):
            calls.clear()
            cert = brun_upper(X0, PI2_X0, PARTIAL_X0, params, width_target=width_target)
            pieces.append(cert.quad_pieces)
            counts.append(len(calls))
        assert pieces == [36, 103]
        assert counts[0] == counts[1] <= 4

    def test_census_1e8_within_a_second(self):
        # census(10**8)'s pinned ends, as CI checks them, so nothing is sieved
        partial = Interval(*map(float.fromhex, ("0x1.c241bd942e188p+0", "0x1.c241bd942e841p+0")))
        start = time.perf_counter()
        cert = brun_upper(10**8, 440312, partial)
        assert time.perf_counter() - start < 1.0
        assert cert.integral.width <= 1e-6
        assert cert.lower == partial.lo < 2.288513 < cert.upper < 3.0

    def test_narrower_h_never_raises_upper(self):
        # a tighter F can only lower the certificate: nested H windows,
        # in steps of an eighth of the default's log width and of one ulp
        lo, hi = DEFAULT_H_LOG.lo, DEFAULT_H_LOG.hi
        h = DEFAULT_H_LOG.exp()
        windows = [h]
        for _ in range(8):
            windows.append(Interval(h.lo, math.nextafter(windows[-1].hi, 0.0)))
        windows += [Interval(lo, hi - (hi - lo) * k / 8).exp() for k in range(1, 9)]
        for extra in ({}, {"improved_at": X0}):
            for wide, narrow in zip(windows, windows[1:]):
                assert narrow.issubset(wide)
                before = brun_upper(X0, PI2_X0, PARTIAL_X0, params=derive_params(h=wide, **extra))
                after = brun_upper(X0, PI2_X0, PARTIAL_X0, params=derive_params(h=narrow, **extra))
                assert after.upper <= before.upper

    def test_idealized_reference(self):
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0, params=idealized_params())
        assert abs(Decimal(cert.upper) - UPPER_IDEAL) < Decimal("1e-9")

    def test_improved_reference(self):
        params = derive_params(improved_at=X0)
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0, params=params)
        assert UPPER_IMPROVED - Decimal("1e-12") <= Decimal(cert.upper)
        assert Decimal(cert.upper) <= UPPER_IMPROVED + Decimal("1e-6")

    def test_coarser_target_weakly_larger(self):
        fine = brun_upper(X0, PI2_X0, PARTIAL_X0, width_target=1e-6)
        coarse = brun_upper(X0, PI2_X0, PARTIAL_X0, width_target=4e-6)
        assert coarse.upper >= fine.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            brun_upper(10**5, 1224, Interval(1.6, 1.7))
        with pytest.raises(ValueError):
            brun_upper(X0, -1, PARTIAL_X0)
        anchored = derive_params(improved_at=10**19)
        with pytest.raises(ValueError):
            brun_upper(X0, PI2_X0, PARTIAL_X0, params=anchored)

    def test_rejects_half_line_partial(self):
        for partial in (Interval(1.840503, math.inf), Interval(-math.inf, 1.840518)):
            with pytest.raises(ValueError, match="must be finite"):
                brun_upper(X0, PI2_X0, partial)

    def test_unreachable_target_raises(self):
        rule = correction_piece(derive_params())
        with pytest.raises(QuadratureError):
            integrate_adaptive(rule, math.log(X0), 20000.0, width_target=1e-9, max_pieces=20)

    def test_default_budget_stops_an_unreachable_target(self):
        # the tail's piece budget fails in seconds, not minutes, and says
        # how far it got
        start = time.perf_counter()
        with pytest.raises(QuadratureError) as exc:
            brun_upper(X0, PI2_X0, PARTIAL_X0, width_target=1e-300)
        assert time.perf_counter() - start < 3.0
        assert exc.value.pieces == rv_bound.TAIL_MAX_PIECES == 1 << 11
        assert 0.0 < exc.value.achieved_width < 1e-9
        assert f"width {exc.value.achieved_width:.3e} above target" in str(exc.value)
