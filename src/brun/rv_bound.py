"""Certified sieve upper bound for the twin prime reciprocal sum.

The counting side is a sieve theorem of Riesel-Vaughan type: for the twin
pair counting function,

    pi2(x) <= 8 C x / (log x (log x + F(x))) + kappa sqrt(x),

where C is the twin prime constant and F collects the second-order
savings.  F is assembled from four derived constants,

    F(x) = max(0, a6 + a7/log x - a8/(x^(alpha/2) log x)
                  - a9/(x^(1/2) log x)),

whose values flow out of the divisor-error scan, the H product bound and
the twin constant enclosure (see ``derive_params``).

Partial summation converts the counting bound into a tail bound for the
reciprocal sum B: for a censused point x0 with exact pair count and a
certified partial sum,

    B <= B(x0) - 2 pi2(x0)/x0 + 16 C J + 4 kappa x0^(-1/2),

where J = integral over u in [log x0, inf) of du/(u (u + F(e^u))).  J is
bounded through its majorant, the integrand at C.hi and at the least F
of the parameter box.  It is split at a finite cutoff: below it an
adaptive rigorous quadrature on F's chords, above it F >= phi =
F(cutoff) (F is nondecreasing) gives the closed tail
(1/phi) log1p(phi/cutoff).  Everything is directed rounding end to end,
so the reported upper bound is a certified real number, not an
estimate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Optional

from .interval import Interval, _down, _frac_bracket, _up, rational_pow

__all__ = [
    "BoundCertificate",
    "QuadratureError",
    "QuadratureResult",
    "RVParams",
    "brun_upper",
    "convex_piece",
    "correction_term_log",
    "derive_params",
    "enclosure_piece",
    "idealized_params",
    "integrate_adaptive",
    "pi2_upper",
]

#: The sieve exponent.  The literal constants below, and the published
#: correction constants, hold at this alpha only.
ALPHA = Fraction(2, 5)

#: Defaults for the three analytic inputs at alpha = 2/5: the twin prime
#: constant window, the log of the H product bound and the divisor-error
#: supremum.  ``twin_constant(10**7)`` lies inside DEFAULT_TWIN_C,
#: ``scan_c(2/5, 10**6).bound`` inside DEFAULT_SCAN_BOUND, and
#: DEFAULT_H_LOG inside ``h_bound(10**6, 2/5).log_bound``;
#: tests/test_rv_bound.py's test_literals_agree_with_computed_constants
#: checks all three.  DEFAULT_H_LOG's lower end 6.8509190276 is the
#: partial log sum at 1e10, which only the opt-in acceptance run
#: 03-extended reproduces; its upper end is from the certified tail estimate.
#: Each can be recomputed and passed in explicitly.
DEFAULT_TWIN_C = Interval(1.320323, 1.320324)
DEFAULT_H_LOG = Interval(6.8509190276, 6.8565069)
DEFAULT_SCAN_BOUND = Interval(1.0502, 1.0503)

#: End of the quadrature range in log coordinates and default width cap
#: of the quadrature enclosure in ``brun_upper``.
DEFAULT_CUTOFF_U = 20000.0
DEFAULT_WIDTH_TARGET = 1e-6
#: Piece budgets of a quadrature by default and of the tail's in
#: ``brun_upper``: an unreachable width target raises within seconds
#: instead of grinding (the default certificate uses 36 pieces, x0 = 1e8 280).
DEFAULT_MAX_PIECES = 1 << 17
TAIL_MAX_PIECES = 1 << 11


@dataclass(frozen=True)
class RVParams:
    """Constants of the corrected sieve bound, all certified enclosures."""

    alpha: Fraction
    rho: Interval
    twin_c: Interval
    h: Interval
    scan_bound: Interval
    a6: Interval
    a7: Interval
    a8: Interval
    a9: Interval
    sqrt_coefficient: Interval
    sqrt_valid_from: int

    @cached_property
    def _half_alpha(self) -> Interval:
        # alpha/2 enclosed once per parameter set, not per evaluation of F
        return Interval.from_fraction(self.alpha / 2)


def _default_rho() -> Interval:
    # rho = sqrt(1 + (2/3) sqrt(6/5)), the optimized sieve level ratio.  It and the
    # literals of derive_params are the source paper's (arXiv:1803.01925), after
    # Riesel & Vaughan 1983 (Ark. Mat. 21); lemma numbers are not checked offline
    inner = Interval.from_fraction(Fraction(6, 5)).sqrt()
    return (Interval.from_fraction(Fraction(2, 3)) * inner + 1).sqrt()


def derive_params(
    *,
    twin_c: Optional[Interval] = None,
    h: Optional[Interval] = None,
    scan_bound: Optional[Interval] = None,
    improved_at: Optional[int] = None,
) -> RVParams:
    """Assemble the correction constants for the counting bound at alpha = 2/5.

    ``twin_c``, ``h`` and ``scan_bound`` are enclosures of C, H and the
    divisor-error constant c at alpha = 2/5; each defaults to its
    literal.  With all arguments defaulted this reproduces the source paper's
    published a6 > 8.72606, a7 > -8.13199, a8 < 22267.54, a9 ~ 27.63359
    (acceptance 02):

        a6 = 9.27436 - 2 log rho
        a7 = -5.6646 + log^2 rho - 9.2744 log rho
        a8 = 16 C c H rho^(alpha/2)
        a9 = 24.09391 sqrt(rho)        kappa = 2

    ``improved_at`` (an int x0) selects the improved variant, which
    sharpens the sqrt term: kappa becomes
    x0^(-1/2) + 5.03 / (sqrt(rho) log(x0/rho)), valid only for x >= x0,
    and a9 drops to 19.638 sqrt(rho).
    """
    if twin_c is None:
        twin_c = DEFAULT_TWIN_C
    if h is None:
        h = DEFAULT_H_LOG.exp()
    if scan_bound is None:
        scan_bound = DEFAULT_SCAN_BOUND

    rho = _default_rho()
    log_rho = rho.log()
    a6 = Interval.from_decimal(Decimal("9.27436")) - 2 * log_rho  # F's constant term
    a7 = (
        Interval.from_decimal(Decimal("-5.6646"))  # F's 1/log x term, quadratic in log rho
        + log_rho * log_rho
        - Interval.from_decimal(Decimal("9.2744")) * log_rho
    )
    half_alpha = ALPHA / 2
    a8 = 16 * twin_c * scan_bound * h * rational_pow(
        rho, half_alpha.numerator, half_alpha.denominator
    )
    if improved_at is None:
        a9 = Interval.from_decimal(Decimal("24.09391")) * rho.sqrt()  # F's x^(-1/2) term
        kappa = Interval(2.0, 2.0)  # the sqrt(x) coefficient of the counting bound
        valid_from = 2
    else:
        x0_iv = Interval.from_int(improved_at)
        if x0_iv.lo <= rho.hi:
            raise ValueError(f"anchor too small for the improved variant: {improved_at}")
        a9 = Interval.from_decimal(Decimal("19.638")) * rho.sqrt()  # and 5.03: sharper, x >= x0
        kappa = rational_pow(x0_iv, -1, 2) + Interval.from_decimal(
            Decimal("5.03")
        ) / (rho.sqrt() * (x0_iv / rho).log())
        valid_from = improved_at
    return RVParams(
        alpha=ALPHA,
        rho=rho,
        twin_c=twin_c,
        h=h,
        scan_bound=scan_bound,
        a6=a6,
        a7=a7,
        a8=a8,
        a9=a9,
        sqrt_coefficient=kappa,
        sqrt_valid_from=valid_from,
    )


def idealized_params() -> RVParams:
    """First-order parameter set: corrections and the sqrt term dropped.

    Keeps only the leading constant of the counting bound (a6 as the
    bare literal, no rho adjustment) with F's other terms zeroed.  Used
    to quantify how much the second-order machinery buys.
    """
    zero = Interval(0.0, 0.0)
    return replace(
        derive_params(),
        rho=Interval(1.0, 1.0),
        a6=Interval.from_decimal(Decimal("9.27436")),
        a7=zero,
        a8=zero,
        a9=zero,
        sqrt_coefficient=zero,
    )


def correction_term_log(u: Interval, params: RVParams) -> Interval:
    """F evaluated in log coordinates: u = log x, u.lo > 0.

    Working in u-space keeps arguments like u = 921 (x = 1e400)
    representable; x-space would overflow doubles long before the
    quadrature cutoff.
    """
    if u.lo <= 0.0:
        raise ValueError(f"need positive log argument: {u}")
    xa = (u * params._half_alpha).exp()  # x^(alpha/2)
    xs = (u * 0.5).exp()  # sqrt(x)
    v = params.a6 + params.a7 / u - params.a8 / (xa * u) - params.a9 / (xs * u)
    return Interval(max(0.0, v.lo), max(0.0, v.hi))


def pi2_upper(x: Interval, params: RVParams) -> Interval:
    """Enclosure of the counting bound 8 C x/(log x (log x + F)) + kappa sqrt x.

    The certified upper bound on pi2(x) is the .hi end.
    """
    if x.lo < params.sqrt_valid_from:
        raise ValueError(
            f"x below the validity floor {params.sqrt_valid_from}: {x}"
        )
    u = x.log()
    f = correction_term_log(u, params)
    main = 8 * params.twin_c * x / (u * (u + f))
    return main + params.sqrt_coefficient * x.sqrt()


# ----------------------------------------------------------------------
# rigorous adaptive quadrature


class QuadratureError(RuntimeError):
    """Raised when the piece budget runs out before the width target."""

    def __init__(self, message: str, achieved_width: float, pieces: int):
        super().__init__(message)
        self.achieved_width = achieved_width
        self.pieces = pieces


@dataclass(frozen=True)
class QuadratureResult:
    value: Interval
    pieces: int
    achieved_width: float


PieceFn = Callable[[float, float], Interval]


def integrate_adaptive(
    piece: PieceFn,
    a: float,
    b: float,
    width_target: float,
    max_pieces: int = DEFAULT_MAX_PIECES,
) -> QuadratureResult:
    """Bisect [a, b] until the summed enclosure width meets the target.

    ``piece(a, b)`` must return an Interval containing the exact integral
    over [a, b]; any sound rule works.  Always splits the widest piece
    first (ties by position), so runs are deterministic.  Each end of the
    enclosure is the pieces' exact sum, rounded outward once.  Raises
    :class:`QuadratureError` when ``max_pieces`` is hit first.
    """
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
    first = piece(a, b)
    heap = [(-first.width, a, b, first)]
    total_width = first.width
    while total_width > width_target and len(heap) < max_pieces:
        neg_w, lo, hi, iv = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # interval too thin to bisect in doubles; put it back and stop
            heapq.heappush(heap, (neg_w, lo, hi, iv))
            break
        left = piece(lo, mid)
        right = piece(mid, hi)
        total_width += left.width + right.width - iv.width
        heapq.heappush(heap, (-left.width, lo, mid, left))
        heapq.heappush(heap, (-right.width, mid, hi, right))
    if total_width > width_target:
        raise QuadratureError(
            f"width {total_width:.3e} above target {width_target:.3e} "
            f"after {len(heap)} pieces",
            achieved_width=total_width,
            pieces=len(heap),
        )
    # fsum rounds each end's exact sum to nearest; one ulp out encloses it
    total = Interval(_down(math.fsum(p[3].lo for p in heap)), _up(math.fsum(p[3].hi for p in heap)))
    return QuadratureResult(value=total, pieces=len(heap), achieved_width=total_width)


def enclosure_piece(f: Callable[[Interval], Interval]) -> PieceFn:
    """Zeroth-order rule: the image of the whole piece times its width."""

    def piece(a: float, b: float) -> Interval:
        width = Interval.point(b) - Interval.point(a)
        return f(Interval(a, b)) * width

    return piece


def quadrature(
    u0: float,
    u1: float,
    integrand: Callable[[Interval], Interval],
    width_target: float,
    max_pieces: int = DEFAULT_MAX_PIECES,
) -> QuadratureResult:
    """Enclose an integral from a pointwise interval extension alone.

    Convenience front end over :func:`integrate_adaptive` using the
    zeroth-order rule; first-order convergence, so budget width targets
    accordingly.  Callers that know more structure (convexity, concavity
    of a part) should build a sharper piece rule instead.
    """
    return integrate_adaptive(
        enclosure_piece(integrand), u0, u1, width_target, max_pieces
    )


def convex_piece(f: Callable[[Interval], Interval]) -> PieceFn:
    """Midpoint/trapezoid bracket, valid only for convex integrands."""

    def piece(a: float, b: float) -> Interval:
        width = Interval.point(b) - Interval.point(a)
        mid = 0.5 * (a + b)
        low = (f(Interval.point(mid)) * width).lo
        high = ((f(Interval.point(a)) + f(Interval.point(b))) * width * 0.5).hi
        return Interval(low, high)

    return piece


def _majorant(params: RVParams) -> RVParams:
    """The box's least F, its constants as points.  F rises with a6 and a7
    and falls with a8 and a9, so 16 C.hi / (u (u + F)) bounds every integrand."""
    ends = {"a6": params.a6.lo, "a7": params.a7.lo, "a8": params.a8.hi, "a9": params.a9.hi}
    return replace(params, **{name: Interval.point(end) for name, end in ends.items()})


def _log1p_ratio(z: Interval) -> Interval:
    """log1p(z)/z for z > -1, 1 at z = 0.  It decreases in z."""

    def at(x: float) -> Interval:
        if abs(x) < 2.0**-53:  # within |x| of 1, where an ulp of x is not relative
            return 1.0 + Interval(-abs(x), abs(x))
        return Interval.point(x).log1p() / x

    return Interval(at(z.hi).lo, at(z.lo).hi)


def _linear_piece(s: float, e: float, fs: float, fe: float) -> Interval:
    """The integral over [s, e] of du / (u (u + F)), F linear from fs at s to
    fe at e (s + fs, e + fe > 0).  With u + F = R u + p it is log1p(z)/p,
    z = p (e - s) / (s (R e + p)), taken as log1p(z)/z (e - s) / (s (e + fe)):
    p (e - s) = fs e - fe s, so nothing cancels as p nears 0."""
    s_iv, e_iv = Interval.point(s), Interval.point(e)
    denom = s_iv * (e_iv + fe)
    return _log1p_ratio((fs * e_iv - fe * s_iv) / denom) * ((e_iv - s_iv) / denom)


def correction_piece(params: RVParams) -> PieceFn:
    """Piece rule for the tail integrand 16 C / (u (u + F(u))).

    It encloses the integral of the majorant, at C.hi and the box's least
    F (``_majorant``).  With a7 <= 0 <= a8, a9, F before its clamp at 0 is
    nondecreasing and concave (a7/u, -a8 x^(-alpha/2)/u and -a9 x^(-1/2)/u
    each have a negative second derivative), so it lies on or above each
    chord inside the chord's interval and on or below it outside.  On a
    piece [a, b] with F(a) > 0 the upper end takes F on each quarter as
    the chord through its nodes' lower ends; the lower end takes F on each
    half as the other half's chord extended, through the near node's upper
    end and the far node's lower end.  With F linear a piece has a closed
    form (``_linear_piece``).  Where F(a).lo = 0 (F's root is near
    u = 23.61), or on a piece too thin to quarter, F >= 0 gives the upper
    end and F <= F(b).hi the lower end.  The 16 C scale sits inside the
    rule, so ``integrate_adaptive``'s width target is the width that
    enters the certificate.  F is evaluated by ``correction_term_log``
    once per node, memoized by the exact double u for the rule's life.
    """
    major = _majorant(params)
    if not major.a7.hi <= 0.0 <= min(major.a8.lo, major.a9.lo):
        raise ValueError("the chord rule needs a7 <= 0 <= a8, a9")
    scale = 16 * Interval.point(params.twin_c.hi)

    @cache
    def correction(u: float) -> Interval:
        return correction_term_log(Interval.point(u), major)

    def piece(a: float, b: float) -> Interval:
        m = 0.5 * (a + b)
        nodes = (a, 0.5 * (a + m), m, 0.5 * (m + b), b)
        f = [correction(u) for u in nodes]
        if not (a < nodes[1] < m < nodes[3] < b and f[0].lo > 0.0):
            hi, lo = _linear_piece(a, b, 0.0, 0.0), _linear_piece(a, b, f[4].hi, f[4].hi)
            return scale * Interval(lo.lo, hi.hi)
        hi = sum(_linear_piece(nodes[i], nodes[i + 1], f[i].lo, f[i + 1].lo) for i in range(4))
        fm = Interval.point(f[2].hi)
        ratio = (Interval.point(m) - a) / (Interval.point(b) - m)  # (m - a)/(b - m), about 1
        fa = (fm + (fm - f[4].lo) * ratio).hi
        fb = (fm + (fm - f[0].lo) / ratio).hi
        lo = _linear_piece(a, m, fa, fm.hi) + _linear_piece(m, b, fm.hi, fb)
        return scale * Interval(lo.lo, hi.hi)

    return piece


# ----------------------------------------------------------------------
# assembly


@dataclass(frozen=True)
class BoundCertificate:
    """A certified two-sided bound on the twin prime reciprocal sum.

    ``lower`` is the censused partial sum's lower end (every omitted term
    is positive).  ``upper`` is brun_partial_x0.hi - pair_term.lo +
    integral.hi + 16 twin_c.hi tail_bound.hi + sqrt_tail.hi, summed
    exactly and rounded up once.  ``integral`` is the quadrature
    enclosure of the majorant's integral, 16 C.hi / (u (u + F)) with the
    least F of the parameter box, over [log x0, cutoff_u]; its upper end
    bounds the true tail integral.  ``tail_bound`` records the
    closed-form remainder beyond the cutoff, (1/phi) log1p(phi/cutoff_u)
    with phi the majorant's F(cutoff_u).lo, before the 16 C scaling.
    """

    x0: int
    pi2_x0: int
    brun_partial_x0: Interval
    params: RVParams
    cutoff_u: float
    width_target: float
    quad_pieces: int
    integral: Interval
    tail_bound: Interval
    sqrt_tail: Interval
    pair_term: Interval
    lower: float
    upper: float


def brun_upper(
    x0: int,
    pi2_x0: int,
    brun_partial_x0: Interval,
    params: Optional[RVParams] = None,
    width_target: float = DEFAULT_WIDTH_TARGET,
) -> BoundCertificate:
    """Certify an upper bound for the full reciprocal sum from a census.

    Inputs: an exact pair count and a certified, finite partial sum
    enclosure at x0.  The tail beyond x0 is bounded by the corrected
    counting bound through partial summation; the 16 C scaled integral
    runs in log coordinates from log x0 to ``DEFAULT_CUTOFF_U``, after
    which F >= F(DEFAULT_CUTOFF_U) leaves a closed log1p tail.
    ``width_target`` caps the quadrature enclosure width as it enters
    the certificate (default one digit beyond a six-decimal bound); the
    other terms are exact-input interval evaluations.
    """
    if params is None:
        params = derive_params()
    if x0 < 10**6:
        raise ValueError(f"x0 too small for the tail machinery: {x0}")
    if pi2_x0 < 0:
        raise ValueError(f"negative pair count: {pi2_x0}")
    if not (math.isfinite(brun_partial_x0.lo) and math.isfinite(brun_partial_x0.hi)):
        raise ValueError(f"partial sum enclosure must be finite: {brun_partial_x0}")
    if x0 < params.sqrt_valid_from:
        raise ValueError(f"x0 below the sqrt coefficient validity floor {params.sqrt_valid_from}")
    # float(x0) is finite (or from_int raises), so log x0 < 710 < cutoff;
    # starting below the true log x0 only widens the enclosure
    u0 = Interval.from_int(x0).log().lo
    rule = correction_piece(params)
    quad = integrate_adaptive(rule, u0, DEFAULT_CUTOFF_U, width_target, TAIL_MAX_PIECES)
    phi = correction_term_log(Interval.point(DEFAULT_CUTOFF_U), _majorant(params)).lo
    tail = _log1p_ratio(Interval.point(phi) / DEFAULT_CUTOFF_U) / DEFAULT_CUTOFF_U
    pair_term = Interval.from_fraction(Fraction(2 * pi2_x0, x0))
    sqrt_tail = 4 * params.sqrt_coefficient * rational_pow(Interval.from_int(x0), -1, 2)
    # C and the closed tail are positive: 16 C.hi tail.hi bounds their product
    upper = sum(map(Fraction, (brun_partial_x0.hi, -pair_term.lo, quad.value.hi, sqrt_tail.hi)))
    upper += 16 * Fraction(params.twin_c.hi) * Fraction(tail.hi)
    return BoundCertificate(
        x0=x0,
        pi2_x0=pi2_x0,
        brun_partial_x0=brun_partial_x0,
        params=params,
        cutoff_u=DEFAULT_CUTOFF_U,
        width_target=width_target,
        quad_pieces=quad.pieces,
        integral=quad.value,
        tail_bound=tail,
        sqrt_tail=sqrt_tail,
        pair_term=pair_term,
        lower=brun_partial_x0.lo,
        upper=_frac_bracket(upper, upper).hi,
    )
