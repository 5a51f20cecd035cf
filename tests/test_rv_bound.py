"""Corrected sieve constants, rigorous quadrature, and the tail assembly."""

import math
import random
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

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
from conftest import assert_pinned

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
UPPER_STD = Decimal("2.288512619435019129755816")
UPPER_IDEAL = Decimal("2.285451962761465830802934")
UPPER_IMPROVED = Decimal("2.288512615641100751798359")
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


def ulps(x: float, k: int) -> float:
    """x moved k doubles up (k > 0) or down (k < 0)."""
    toward = math.inf if k > 0 else -math.inf
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


def first_positive(f, lo: float, hi: float) -> float:
    """The least double in (lo, hi] where the nondecreasing f is > 0,
    given f(lo) == 0 < f(hi)."""
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def reference_piece(params, a: float, b: float) -> Interval:
    """The frozen-F piece rule written in Interval arithmetic."""
    ia, ib = Interval.point(a), Interval.point(b)

    def closed_form(phi: float) -> Interval:
        if phi == 0.0:
            return 1 / ia - 1 / ib
        p = Interval.point(phi)
        return ((ib * (ia + p)) / (ia * (ib + p))).log() / p

    f_lo = correction_term_log(ia, params).lo
    f_hi = correction_term_log(ib, params).hi
    return (16 * params.twin_c) * Interval(
        closed_form(f_hi).lo, closed_form(f_lo).hi
    )


class TestFloatKernel:
    """The quadrature's float kernel against the Interval operations."""

    @PARAM_SETS
    def test_correction_bits(self, make_params):
        p = make_params()
        kernel = rv_bound._correction_kernel(p)
        log_max = math.log(sys.float_info.max)
        # 18: F clamped to 0; 23.61: F's zero; then 4 ulps either side of
        # where exp(u/2) and exp(u/5) overflow, which covers neither end,
        # only the upper end, and both ends overflowing
        grid = [18.0, 23.61, math.log(4e18), 20000.0]
        for threshold in (2 * log_max, 5 * log_max):
            grid += [ulps(threshold, k) for k in range(-4, 5)]
        for end in ("lo", "hi"):
            f = lambda u: getattr(correction_term_log(Interval.point(u), p), end)
            if f(18.0) == 0.0:
                # just past its zero an end is tiny, so its last ulps show
                zero = first_positive(f, 18.0, 30.0)
                grid += [zero + k * 2e-13 for k in range(-2, 8)]
        for u in grid:
            ref = correction_term_log(Interval.point(u), p)
            assert tuple(x.hex() for x in kernel(u)) == (ref.lo.hex(), ref.hi.hex()), u

    def test_correction_domain(self):
        with pytest.raises(ValueError):
            rv_bound._correction_kernel(derive_params())(0.0)

    def test_piece_needs_positive_scale(self):
        # the kernel names each product's corner from C > 0
        with pytest.raises(ValueError):
            correction_piece(replace(idealized_params(), twin_c=Interval(-1.0, 1.0)))

    @PARAM_SETS
    def test_piece_bits(self, make_params):
        p = make_params()
        rng = random.Random(20181)
        pieces = []
        for _ in range(80):  # anywhere in the range, any length
            a = math.exp(rng.uniform(math.log(18.0), math.log(20000.0)))
            b = min(20000.0, a + a * 10 ** rng.uniform(-12.0, 0.5))
            pieces.append((a, b))
        for _ in range(60):  # around F's zero, so phi == 0 on either side
            a = rng.uniform(18.0, 30.0)
            pieces.append((a, rng.uniform(a, 30.0)))
        for _ in range(60):  # a few ulps long, where the lower end can dip below 0
            a = math.exp(rng.uniform(math.log(18.0), math.log(20000.0)))
            pieces.append((a, ulps(a, rng.randint(1, 64))))
        rule = correction_piece(p)
        negative = 0
        for a, b in pieces:
            assert a < b
            got, ref = rule(a, b), reference_piece(p, a, b)
            assert (got.lo.hex(), got.hi.hex()) == (ref.lo.hex(), ref.hi.hex()), (a, b)
            negative += got.lo < 0.0
        assert negative > 0
        if p.a8.hi > 0.0:  # F is 0 only where a8 pulls it below zero
            kernel = rv_bound._correction_kernel(p)
            assert any(kernel(b)[1] == 0.0 for _, b in pieces)
            assert any(kernel(a)[0] == 0.0 < kernel(b)[1] for a, b in pieces)


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
        tw = Fraction(1, 20000)
        assert Fraction(cert.tail_bound.lo) <= tw <= Fraction(cert.tail_bound.hi)
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
                "0x1.24edfc76b796ap+1",
                ("0x1.cb36466a61b58p-2", "0x1.cb368985cf531p-2"),
                4690,
                ("0x1.24edfc76b7a53p+1", ("0x1.cb36466a61429p-2", "0x1.cb368985cfc6ap-2")),
            ),
            (
                lambda: derive_params(improved_at=X0),
                "0x1.24edfc6e91dbcp+1",
                ("0x1.cb36466a619fdp-2", "0x1.cb368985cf3adp-2"),
                4690,
                ("0x1.24edfc6e91ea5p+1", ("0x1.cb36466a612c7p-2", "0x1.cb368985cfae2p-2")),
            ),
            (
                idealized_params,
                "0x1.2489b09e51dbbp+1",
                ("0x1.c8141464017f2p-2", "0x1.c8142b0759ab4p-2"),
                1,
                ("0x1.2489b09e51dbep+1", ("0x1.c8141464017f2p-2", "0x1.c8142b0759ab4p-2")),
            ),
        ],
        ids=["default", "improved", "idealized"],
    )
    def test_exact_bits(self, make_params, upper, integral, pieces, before):
        # pins the certificate's bits, not only its 1e-6 window; ``before``
        # holds the pins from before each total was one exact sum rounded once
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0, params=make_params())
        old_upper, old_integral = before
        assert cert.upper.hex() == upper
        assert float.fromhex(upper) <= float.fromhex(old_upper)
        assert cert.quad_pieces == pieces
        assert_pinned(cert.integral, integral, old_integral)

    def test_correction_evaluated_once_per_node(self, monkeypatch):
        # a bisection reuses its parent's end values: n pieces, n + 1 nodes
        calls = []
        make_kernel = rv_bound._correction_kernel

        def counting_kernel(params):
            kernel = make_kernel(params)

            def counting(u):
                calls.append(u)
                return kernel(u)

            return counting

        monkeypatch.setattr(rv_bound, "_correction_kernel", counting_kernel)
        cert = brun_upper(X0, PI2_X0, PARTIAL_X0)
        assert 0 < len(calls) <= cert.quad_pieces + 1

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
        with pytest.raises(QuadratureError):
            brun_upper(
                X0, PI2_X0, PARTIAL_X0, width_target=1e-9, max_pieces=2000
            )

    def test_default_budget_stops_an_unreachable_target(self):
        # the default piece budget fails in seconds, not minutes
        with pytest.raises(QuadratureError) as exc:
            brun_upper(X0, PI2_X0, PARTIAL_X0, width_target=1e-300)
        assert exc.value.pieces == rv_bound.DEFAULT_MAX_PIECES == 1 << 17
        assert exc.value.achieved_width > 1e-7
