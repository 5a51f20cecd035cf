"""Directed-rounding interval arithmetic on IEEE-754 doubles.

An :class:`Interval` is a closed interval ``[lo, hi]`` whose endpoints are
plain Python floats.  Every operation returns an interval that is widened
outward with ``math.nextafter``, so the result is a guaranteed enclosure of
the exact image of the operands.  The soundness argument needs only two
facts about the platform:

* ``+ - * /`` and ``math.sqrt`` are correctly rounded (IEEE 754 requires
  this), so one outward nudge per endpoint absorbs the rounding error;
* ``math.log``, ``math.exp`` and ``math.log1p`` are faithful to within
  one ulp on every libm this package targets, so two outward nudges per
  endpoint leave at least a full ulp of slack.

An exact int, rational or decimal enters as the two doubles next to it,
or as a point if it is a double (``_frac_bracket``).  Simplicity is
preferred over tightness elsewhere: exact operations are nudged too.

Every interval, built by ``Interval(lo, hi)`` or returned by an
operation, passes one check (``_interval``): ``not lo <= hi`` catches a
NaN end and an empty interval, and ``lo == inf`` or ``hi == -inf`` the
two degenerate infinite ones.  ``Interval(lo, hi)`` converts its ends
with ``float()`` first; an operation's ends are floats already.

The module is scalar and imports the standard library only.  The array
forms of the one-ulp steps live in ``divisor_error``, their one user.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Union

__all__ = ["Interval", "EULER_GAMMA", "ei_neg", "rational_pow"]

_INF = math.inf
_new = object.__new__

IntervalLike = Union["Interval", int, float]
Exact = Union[int, Fraction, Decimal]


def _down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _down2(x: float) -> float:
    return math.nextafter(math.nextafter(x, -math.inf), -math.inf)


def _up2(x: float) -> float:
    return math.nextafter(math.nextafter(x, math.inf), math.inf)


def _invalid(lo: float, hi: float):
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoint is NaN")
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo!r} > hi={hi!r}")
    raise ValueError("degenerate infinite interval")


def _interval(lo: float, hi: float) -> "Interval":
    """[lo, hi] for two floats, or the ``ValueError`` naming why it is none."""
    if not lo <= hi or lo == _INF or hi == -_INF:
        _invalid(lo, hi)
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _frac_bracket(lo_q: Exact, hi_q: Exact) -> "Interval":
    """[largest double <= lo_q, least double >= hi_q].  ``float()`` rounds
    to nearest, and Python compares a float with an int, Fraction or
    Decimal exactly, so each end steps one ulp out only if it must.  A
    huge int or Fraction raises OverflowError; a huge Decimal gives inf."""
    lo, hi = float(lo_q), float(hi_q)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("NaN is not an exact value")
    return _interval(_down(lo) if lo > lo_q else lo, _up(hi) if hi < hi_q else hi)


class Interval:
    """Closed interval of doubles, arithmetic rounded outward.

    Construction validates the endpoints: NaN is rejected, ``lo <= hi`` is
    required, and the degenerate intervals ``[inf, inf]`` and
    ``[-inf, -inf]`` are banned (they contain no real number).  Half-lines
    such as ``[3.0, inf]`` are allowed.

    Instances are treated as immutable; do not assign to ``lo``/``hi``.
    """

    __slots__ = ("lo", "hi")

    lo: float
    hi: float

    def __new__(cls, lo: float, hi: float) -> "Interval":
        return _interval(float(lo), float(hi))

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with these
        return self.lo, self.hi

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def point(cls, x: float) -> "Interval":
        """The singleton interval [x, x]; x is taken as an exact double."""
        x = float(x)
        return _interval(x, x)

    @classmethod
    def from_int(cls, n: int) -> "Interval":
        return _frac_bracket(n, n)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Interval":
        return _frac_bracket(q, q)

    @classmethod
    def from_decimal(cls, d: Decimal) -> "Interval":
        return _frac_bracket(d, d)

    # ------------------------------------------------------------------
    # queries

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def issubset(self, other: "Interval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: IntervalLike) -> "Interval":
        o = other if type(other) is Interval else _coerce(other)
        if o is None:
            return NotImplemented
        return _interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        # negation is exact, no nudge
        return _interval(-self.hi, -self.lo)

    def __sub__(self, other: IntervalLike) -> "Interval":
        o = other if type(other) is Interval else _coerce(other)
        if o is None:
            return NotImplemented
        return _interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other: IntervalLike) -> "Interval":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other: IntervalLike) -> "Interval":
        o = other if type(other) is Interval else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi
        if a == a and b == b and c == c and d == d:
            return _interval(_down(min(a, b, c, d)), _up(max(a, b, c, d)))
        # 0 * inf corners produce NaN.  Dropping them is sound: such a
        # corner means one factor interval has a zero endpoint and the
        # other an infinite one, and the exact image at that corner is
        # covered by the surviving candidates.  All four are NaN only for
        # [0, 0] * [-inf, inf], whose image is {0}.
        cands = [p for p in (a, b, c, d) if not math.isnan(p)] or [0.0]
        return _interval(_down(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other: IntervalLike) -> "Interval":
        o = other if type(other) is Interval else _coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"divisor interval contains zero: {o}")
        a, b, c, d = self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi
        if a == a and b == b and c == c and d == d:
            return _interval(_down(min(a, b, c, d)), _up(max(a, b, c, d)))
        # inf/inf corners (NaN) can only occur alongside finite candidates
        cands = [q for q in (a, b, c, d) if not math.isnan(q)]
        return _interval(_down(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other: IntervalLike) -> "Interval":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return _interval(-self.hi, -self.lo)
        return _interval(0.0, max(-self.lo, self.hi))

    # ------------------------------------------------------------------
    # elementary functions (two nudges each: libm is faithful, not
    # correctly rounded)

    def log(self) -> "Interval":
        """Natural logarithm.  Requires lo >= 0; log of a zero lower
        endpoint is -inf."""
        if self.lo < 0.0:
            raise ValueError(f"log domain: {self}")
        if self.hi <= 0.0:
            raise ValueError("log of [0, 0] is degenerate")
        lo = -math.inf if self.lo == 0.0 else _down2(math.log(self.lo))
        hi = math.inf if math.isinf(self.hi) else _up2(math.log(self.hi))
        return _interval(lo, hi)

    def log1p(self) -> "Interval":
        """log(1 + x), accurate near zero.  Requires lo >= -1."""
        if self.lo < -1.0:
            raise ValueError(f"log1p domain: {self}")
        if self.hi <= -1.0:
            raise ValueError("log1p of [-1, -1] is degenerate")
        lo = -math.inf if self.lo == -1.0 else _down2(math.log1p(self.lo))
        hi = math.inf if math.isinf(self.hi) else _up2(math.log1p(self.hi))
        return _interval(lo, hi)

    def exp(self) -> "Interval":
        try:
            lo = 0.0 if self.lo == -math.inf else max(0.0, _down2(math.exp(self.lo)))
        except OverflowError:
            # exp(lo) exceeds the float range, so the true value does too
            lo = _down2(sys.float_info.max)
        try:
            hi = math.inf if math.isinf(self.hi) else _up2(math.exp(self.hi))
        except OverflowError:
            hi = math.inf
        return _interval(lo, hi)

    def sqrt(self) -> "Interval":
        # sqrt is correctly rounded, one nudge suffices
        if self.lo < 0.0:
            raise ValueError(f"sqrt domain: {self}")
        return _interval(
            max(0.0, _down(math.sqrt(self.lo))),
            _up(math.sqrt(self.hi)) if not math.isinf(self.hi) else math.inf,
        )


def _coerce(x: IntervalLike) -> "Interval | None":
    if isinstance(x, Interval):
        return x
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return Interval.from_int(x)
    if isinstance(x, float):
        return Interval.point(x)
    return None


def rational_pow(x: Interval, num: int, den: int) -> Interval:
    """x ** (num/den) with the exponent treated as an exact rational.

    Evaluates exp((num/den) * log x).  ``math.pow`` with the nearest
    double to num/den cannot do this job: for a base near 1e10 the gap
    between 2/5 and its nearest double already shifts x**0.4 by several
    ulps, which is more than a two-nudge allowance covers.

    Requires x.lo >= 0 (the log lower endpoint may be -inf, which exp
    maps back to 0).
    """
    if den == 0:
        raise ZeroDivisionError("rational_pow: zero denominator")
    q = Fraction(num, den)
    if q == 0:
        return Interval(1.0, 1.0)
    return (Interval.from_fraction(q) * x.log()).exp()


#: Adjacent doubles bracketing the Euler-Mascheroni constant
#: 0.57721566490153286060651209008240243...
EULER_GAMMA = Interval(0.5772156649015328, 0.5772156649015329)


# ----------------------------------------------------------------------
# Exponential integral.
#
# Ei(y) for y < 0 is what the tail-bound integrals need.  It reduces to
# the decreasing positive function E1 via Ei(y) = -E1(-y).  E1 itself is
# enclosed by a power series up to z = 12 and a continued fraction beyond;
# each produces a rigorous bracket in exact rational arithmetic before any
# float rounding happens.


def ei_neg(x: Interval) -> Interval:
    """Enclosure of the exponential integral Ei over a strictly negative
    interval (x.hi < 0).

    Ei is negative and decreasing on (-inf, 0), so the infimum sits at
    the right endpoint and the supremum at the left one.
    """
    if x.hi >= 0.0:
        raise ValueError(f"ei_neg domain (need hi < 0): {x}")
    right = _e1_point(-x.hi)
    lo = -right.hi
    if math.isinf(x.lo):
        hi = 0.0  # Ei -> 0 from below
    else:
        hi = -_e1_point(-x.lo).lo
    return Interval(lo, hi)


_SERIES_MAX = 12.0


def _e1_point(z: float) -> Interval:
    """Enclosure of E1(z) = integral_z^inf exp(-t)/t dt for a finite double z > 0."""
    if math.isnan(z) or z <= 0.0:
        raise ValueError(f"E1 domain: {z!r}")
    if z <= _SERIES_MAX:
        return _e1_series(z)
    return _e1_contfrac(z)


def _e1_series(z: float) -> Interval:
    # E1(z) = -gamma - log z + sum_{k>=1} (-1)^(k+1) z^k / (k * k!)
    # in exact rational arithmetic.  Terms alternate, and once k >= z
    # their magnitudes decrease, so the truncation error is bounded by
    # the first omitted term.
    zq = Fraction(z)
    total = Fraction(0)
    power = Fraction(1)  # z^k / k!
    k = 0
    tiny = Fraction(1, 10**40)
    while True:
        k += 1
        power *= zq / k
        piece = power / k
        total += piece if k % 2 == 1 else -piece
        if k >= z and piece < tiny:
            break
    pad = power * zq / ((k + 1) * (k + 1))
    series = _frac_bracket(total - pad, total + pad)
    return series - EULER_GAMMA - Interval.point(z).log()


def _cf_convergent(zq: Fraction, depth: int) -> Fraction:
    # Stieltjes fraction for e^z E1(z):
    #   1/(z+ 1/(1+ 1/(z+ 2/(1+ 2/(z+ 3/(1+ ...
    # numerators 1,1,1,2,2,3,3,... against denominators z,1,z,1,...
    acc = Fraction(0)
    for j in range(depth, 0, -1):
        a = 1 if j == 1 else j // 2
        b = zq if j % 2 == 1 else 1
        acc = a / (b + acc)
    return acc


def _e1_contfrac(z: float) -> Interval:
    # Consecutive convergents of a Stieltjes fraction with positive
    # elements straddle the limit, so depths 32 and 33 give a rigorous
    # bracket of e^z E1(z).  Past _SERIES_MAX it is within 2^-50 relative
    # (1.3e-18 at the least double above 12, less as z grows).
    zq = Fraction(z)
    e1 = _frac_bracket(*sorted((_cf_convergent(zq, 32), _cf_convergent(zq, 33))))
    e1 *= Interval.point(-z).exp()
    # E1 > 0, but past z ~ 745 exp(-z) underflows and the lower end
    # can round below 0
    return Interval(max(0.0, e1.lo), e1.hi)
