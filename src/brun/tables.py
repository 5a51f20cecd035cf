"""Twin pair census tables: parsing, validation, rigorous extension.

A census table is a text file of lines

    <k>d<n>  <pi2>  [<prediction>]

where ``<k>d<n>`` names the threshold k * 10^n, k > 0, of at most 309 digits
(10^309 exceeds every double), ``<pi2>`` is the exact number of twin pairs
up to that threshold, of no more digits than the threshold, and an optional
third column (a predicted count) is checked to be a finite decimal and
discarded.  Both sizes are checked on the digits, before any is converted,
and k and pi2 may each carry at most 309 leading zeros.

Counts at two thresholds brace the partial sum growth between them: every
pair (p, p+2) with t1 < p <= t2 contributes between 2/(t2+2) and 2/t1.
Chaining that bracket along consecutive table rows extends a certified
partial sum enclosure from a sieved base up to the table's end without
sieving anything beyond the base.

Every pass is a bulk pass.  Parsing reads each block of 4096 content
lines with one regex split and converts its columns with mapped C calls;
when a block fails a check, its lines are read one at a time to find the
first malformed one, which is named by its line number.  Merging computes
each threshold once, orders the rows with one stable argsort and finds
duplicates, conflicts and decreases with vector comparisons: on int64
columns when every threshold and count is below 2^63, and on object
arrays of Python ints otherwise.  The chain is an exact integer sum at
the census's binary scale 2^61 (each step's lower end rounded down to a
unit, its upper end up), two sums of floor divisions, rounded outward
once and added to the base.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter, floordiv, itemgetter, le, mul, sub
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .interval import Interval, _frac_bracket
from .sieve import _SCALE, TwinCensus

__all__ = [
    "CensusTableEntry",
    "DEFAULT_BASE_THRESHOLD",
    "DEFAULT_BASE_ENCLOSURE",
    "bracket_contribution",
    "emit_table",
    "extend_partial_sum",
    "load_table_dir",
    "parse_table",
]

#: Base used by the command line when no sieved starting point is given:
#: the reciprocal sum over twin pairs up to 1e12, as independently
#: published and widely reproduced census work reports it.
DEFAULT_BASE_THRESHOLD = 10**12
DEFAULT_BASE_ENCLOSURE = Interval(1.8065924, 1.8065925)

#: Most digits a row's threshold may have: no double x0 lies beyond
#: 10^308, and a row past it is rejected before any number is formed.
_MAX_DIGITS = 309

# one content line, which holds no \n: [^\S\n] is \s there, and under re.M
# a scan of lines joined by \n matches each line at most once, and whole.
# A column has at most _MAX_DIGITS leading zeros, so that with the size
# checks no string of more than twice _MAX_DIGITS characters reaches int()
_ZEROS = f"(?!0{{{_MAX_DIGITS + 1}}})"
_LINE = re.compile(
    rf"^(?P<k>{_ZEROS}0*[1-9]\d*)d(?P<n>\d{{1,3}})[^\S\n]+(?P<pi2>{_ZEROS}\d+)"
    r"(?:[^\S\n]+(?P<pred>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?[^\S\n]*$",
    re.M,
)
# content lines per regex split: the block's strings stay in cache, and a
# file's temporaries stay a few MiB however many rows it holds
_BLOCK = 1 << 12

# 10**n in int64, and the largest mantissa whose threshold k * 10**n fits
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MAX_MANTISSA = np.iinfo(np.int64).max // _POW10


class CensusTableEntry(NamedTuple):
    """One table row: pair count at threshold mantissa * 10**exponent."""

    mantissa: int
    exponent: int
    pi2: int

    @property
    def threshold(self) -> int:
        return self.mantissa * 10**self.exponent

    @property
    def label(self) -> str:
        return f"{self.mantissa}d{self.exponent}"


def parse_table(text: str) -> list:
    """Parse one table; blank lines and # comments are skipped.

    Each block of content lines is read by one regex split.  When every
    line matches and passes the size and prediction checks, its rows are
    built column by column; otherwise the block's lines are read one at
    a time, and the first that fails is named by its line number.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    entries = []
    for start in range(0, len(lines), _BLOCK):
        block = lines[start : start + _BLOCK]
        rows = _parse_block(block)
        if rows is None:
            line = next(line for line in block if _parse_block([line]) is None)
            # whether a line parses depends on its text alone, so no line
            # before the first malformed one strips to the same text
            number = list(map(str.strip, text.splitlines())).index(line) + 1
            raise ValueError(f"line {number}: malformed census table line: {line!r}")
        entries += rows
    return entries


def _parse_block(lines: list):
    """The rows of non-empty content lines, or None if one breaks a rule."""
    # the text before each match, then its four groups: a flat list of
    # strings, where findall would make a tuple per row for the GC to track
    parts = _LINE.split("\n".join(lines))
    if len(parts) != 5 * len(lines) + 1:
        return None
    ks, ns, pi2s, preds = (parts[i::5] for i in range(1, 5))
    exponents = list(map(int, ns))
    digits = list(map(add, map(len, map(str.lstrip, ks, repeat("0"))), exponents))
    if (
        max(digits) > _MAX_DIGITS
        or not all(map(le, map(len, map(str.lstrip, pi2s, repeat("0"))), digits))  # pi2(x) <= x
        or not all(map(math.isfinite, map(float, filter(None, preds))))  # 1e999 parses as inf
    ):
        return None
    return list(map(CensusTableEntry._make, zip(map(int, ks), exponents, map(int, pi2s))))


def _merge(rows: Sequence[CensusTableEntry]) -> tuple:
    """(ascending thresholds, their counts, the int64 indices in ``rows``
    of the first row at each), each threshold computed once; a count that
    differs from the first row's at its threshold, or that falls, raises.

    The columns are int64 when every threshold and count is below 2^63,
    and object arrays of Python ints otherwise: one stable argsort orders
    the rows either way, and vector comparisons find the first conflict
    (lowest index in ``rows``) and the first decrease.
    """
    try:  # t holds the mantissas, scaled in place: no third column outlives its use
        t, n, c = (np.array(list(map(itemgetter(i), rows)), dtype=np.int64) for i in range(3))
        fits = ((0 <= n) & (n < len(_POW10))).all() and ((0 <= t) & (t <= _MAX_MANTISSA[n])).all()
    except OverflowError:
        fits = False
    if fits:
        t *= _POW10[n]
    else:
        t = np.array(list(map(attrgetter("threshold"), rows)), dtype=object)
        c = np.array(list(map(itemgetter(2), rows)), dtype=object)
    order = np.argsort(t, kind="stable")  # the first row at a threshold stays first
    t, c = t[order], c[order]
    new = np.empty(len(t), dtype=bool)
    new[:1] = True
    np.not_equal(t[1:], t[:-1], out=new[1:])
    # the rows at a threshold keep their input order, so the first whose
    # count differs from the first row's is the first to differ from the
    # row before it, whose count is the first row's
    conflicts = np.flatnonzero((c[1:] != c[:-1]) & ~new[1:]) + 1
    if len(conflicts):
        at = conflicts[np.argmin(order[conflicts])]
        prev, e = rows[order[at - 1]], rows[order[at]]
        raise ValueError(f"conflicting counts at {e.label}: {prev.pi2} vs {e.pi2}")
    t, c, first = t[new], c[new], order[new]
    falls = np.flatnonzero(c[1:] < c[:-1])
    if len(falls):
        i, j = first[falls[0]], first[falls[0] + 1]
        raise ValueError(f"pair count decreases from {rows[i].label} to {rows[j].label}")
    return t.tolist(), c.tolist(), first


def _read_table_dir(path) -> tuple:
    """The unmerged rows of every *.txt table under ``path``, sorted by
    file name, and each file's sha256, both from the same bytes."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"census table directory not found: {root}")
    entries, hashes = [], {}
    for file in sorted(root.glob("*.txt")):
        data = file.read_bytes()
        hashes[file.name] = hashlib.sha256(data).hexdigest()
        try:
            entries.extend(parse_table(data.decode()))
        except ValueError as exc:
            raise ValueError(f"{file.name}, {exc}") from None
    if not entries:
        raise ValueError(f"no census table rows under {root}")
    return entries, hashes


def load_table_dir(path) -> list:
    """All *.txt tables under ``path``, merged, deduplicated, ascending."""
    rows = _read_table_dir(path)[0]
    return list(map(rows.__getitem__, _merge(rows)[2]))


def bracket_contribution(lower: CensusTableEntry, upper: CensusTableEntry) -> Interval:
    """Enclosure of the partial sum mass between two table rows: each of
    the delta pairs in (t1, t2] adds 1/p + 1/(p+2), which is at least
    2/(t2+2) and at most 2/t1."""
    t1 = lower.threshold
    t2 = upper.threshold
    if t2 <= t1:
        raise ValueError(f"rows out of order: {lower.label} !< {upper.label}")
    two_delta = 2 * (upper.pi2 - lower.pi2)
    if two_delta < 0:
        raise ValueError(f"pair count decreases between {lower.label} and {upper.label}")
    return _frac_bracket(Fraction(two_delta, t2 + 2), Fraction(two_delta, t1))


def extend_partial_sum(
    base_threshold: int,
    base: Interval,
    entries: Sequence[CensusTableEntry],
) -> TwinCensus:
    """Extend a certified partial sum from a base threshold along a table.

    ``entries`` must contain a row at exactly ``base_threshold`` (the
    chain needs its count to difference against).  Rows below the base
    are ignored.  The steps are summed in 2^-61 units, floors below and
    ceilings above, so the chain is exact up to one unit per step; it is
    added exactly to ``base``, which must be finite, and rounded outward
    once.  Returns the count and enclosure at the last row.
    """
    if not (math.isfinite(base.lo) and math.isfinite(base.hi)):
        raise ValueError(f"base enclosure must be finite: {base}")
    thresholds, counts, _ = _merge(entries)  # thresholds rise, counts never fall
    start = bisect_left(thresholds, base_threshold)
    if thresholds[start:start + 1] != [base_threshold]:
        raise ValueError(f"no table row at base threshold {base_threshold}")
    ts, counts = thresholds[start:], counts[start:]
    # floor(2 delta 2^61 / (t2 + 2)) per step, and ceil(2 delta 2^61 / t1) as
    # -floor(-2 delta 2^61 / t1); each step's numerator is formed as it is used
    lo = sum(map(floordiv, map(mul, map(sub, counts[1:], counts), repeat(2 * _SCALE)),
                 map(add, ts[1:], repeat(2))))
    hi = -sum(map(floordiv, map(mul, map(sub, counts[1:], counts), repeat(-2 * _SCALE)), ts))
    lo_q = Fraction(base.lo) + Fraction(lo, _SCALE)
    total = _frac_bracket(lo_q, Fraction(base.hi) + Fraction(hi, _SCALE))
    return TwinCensus(limit=ts[-1], pi2=counts[-1], brun_partial=total)


def _entry_at(threshold: int, pi2: int) -> CensusTableEntry:
    """The row for ``pi2`` at ``threshold``, labelled in lowest terms (5d6)."""
    mantissa, exponent = threshold, 0
    while mantissa >= 10 and mantissa % 10 == 0:
        mantissa //= 10
        exponent += 1
    return CensusTableEntry(mantissa, exponent, pi2)


def emit_table(entries: Sequence[CensusTableEntry]) -> str:
    """Render rows in the canonical on-disk format, ``<k>d<n>  <pi2>``."""
    return "\n".join(f"{e.label}  {e.pi2}" for e in entries) + "\n"
