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

Rows go from parse to chain as mantissa, exponent and count columns: int64
while every threshold + 2 and count is below 2^62, Python ints beyond; the
command line builds no row object.  A regex split reads each block of 4096
lines (a failing block line by line, to name the malformed line), one
stable argsort merges, and the chain is an exact integer sum in 2^-61
units, floors below and ceilings above, added to the base and rounded
outward once.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .interval import Interval, _frac_bracket
from .sieve import _SCALE, TwinCensus

__all__ = [
    "CensusTableEntry", "DEFAULT_BASE_THRESHOLD", "DEFAULT_BASE_ENCLOSURE", "bracket_contribution",
    "emit_table", "extend_partial_sum", "load_table_dir", "parse_table",
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

_INT64_BOUND = 1 << 62  # below it, 2 delta < 2^63 and a long division's residual fits int64
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_MAX_MANTISSA = (_INT64_BOUND - 3) // _POW10


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


def _column(values: list) -> np.ndarray:
    """int() of each value: int64, or Python ints if one does not fit."""
    try:
        return np.fromiter(map(int, values), np.int64, len(values))
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object)


def _rows(blocks: list) -> list:
    """The rows of blocks of mantissa, exponent and count columns."""
    rows = (zip(*(column.tolist() for column in columns)) for columns in blocks)
    return list(map(CensusTableEntry._make, chain.from_iterable(rows)))


def parse_table(text: str) -> list:
    """Parse one table; blank lines and # comments are skipped."""
    return _rows(_parse_blocks(text))


def _parse_blocks(text: str) -> list:
    """The columns of each block of content lines; the first line of a
    failing block that fails alone is named by its line number."""
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    blocks = []
    for start in range(0, len(lines), _BLOCK):
        block = lines[start : start + _BLOCK]
        blocks.append(_parse_block(block))
        if blocks[-1] is None:
            line = next(line for line in block if _parse_block([line]) is None)
            # whether a line parses depends on its text alone, so no line
            # before the first malformed one strips to the same text
            number = list(map(str.strip, text.splitlines())).index(line) + 1
            raise ValueError(f"line {number}: malformed census table line: {line!r}")
    return blocks


def _parse_block(lines: list):
    """The columns of non-empty content lines, or None if one breaks a rule."""
    # the text before each match, then its four groups: a flat list of
    # strings, where findall would make a tuple per row for the GC to track
    parts = _LINE.split("\n".join(lines))
    if len(parts) != 5 * len(lines) + 1:
        return None
    ks, ns, pi2s, preds = (parts[i::5] for i in range(1, 5))
    exponents = np.fromiter(map(int, ns), np.int64, len(ns))
    digits = np.fromiter(map(len, map(str.lstrip, ks, repeat("0"))), np.int64, len(ks)) + exponents
    pi2_digits = np.fromiter(map(len, map(str.lstrip, pi2s, repeat("0"))), np.int64, len(ks))
    if (
        digits.max() > _MAX_DIGITS
        or (pi2_digits > digits).any()  # pi2(x) <= x
        or not all(map(math.isfinite, map(float, filter(None, preds))))  # 1e999 parses as inf
    ):
        return None
    return _column(ks), exponents, _column(pi2s)


def _merge(mantissas, exponents, counts) -> tuple:
    """(ascending thresholds, their counts, the indices of the first row at
    each); a count that differs from the first row's at its threshold, or
    that falls, raises.  The thresholds and counts are int64 when every
    mantissa is positive and every threshold + 2 and count in [0, 2^62)."""
    m, e, c = mantissas, exponents, counts
    # as uint64, a negative exponent or count is too large
    fits = m.dtype == e.dtype == c.dtype == np.int64 and (e.view(np.uint64) < len(_POW10)).all()
    fits = fits and (c.view(np.uint64) < _INT64_BOUND).all()
    if fits and ((0 < m) & (m <= _MAX_MANTISSA[e])).all():
        t = _POW10[e]
        t *= m
    else:
        t, c = m.astype(object) * 10 ** e.astype(object), c.astype(object)
    order = np.argsort(t, kind="stable")  # the first row at a threshold stays first
    t, c = t[order], c[order]
    new = np.concatenate(([True], t[1:] != t[:-1]))[: len(t)]  # the first row at a threshold
    # the rows at a threshold keep their input order, so the first whose
    # count differs from the first row's is the first to differ from the
    # row before it, whose count is the first row's
    conflicts = np.flatnonzero((c[1:] != c[:-1]) & ~new[1:]) + 1
    if len(conflicts):
        at = conflicts[np.argmin(order[conflicts])]
        j = order[at]
        raise ValueError(f"conflicting counts at {m[j]}d{e[j]}: {c[at - 1]} vs {c[at]}")
    order = order[new]  # one column at a time: no two copies of all three
    t = t[new]
    c = c[new]
    falls = np.flatnonzero(c[1:] < c[:-1])
    if len(falls):
        i, j = order[falls[0]], order[falls[0] + 1]
        raise ValueError(f"pair count decreases from {m[i]}d{e[i]} to {m[j]}d{e[j]}")
    return t, c, order


def _read_table_dir(path) -> tuple:
    """The unmerged columns (of Python ints if one block's are) of every
    regular *.txt file under ``path`` in name order, and each file's
    sha256, both from the same bytes."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"census table directory not found: {root}")
    blocks, hashes = [], {}
    for file in sorted(file for file in root.glob("*.txt") if file.is_file()):
        data = file.read_bytes()  # one file's bytes, text and lines are held at a time
        hashes[file.name] = hashlib.sha256(data).hexdigest()
        try:
            blocks += _parse_blocks(data.decode())
        except ValueError as exc:
            raise ValueError(f"{file.name}, {exc}") from None
        del data
    if not blocks:
        raise ValueError(f"no census table rows under {root}")
    return tuple(np.concatenate([block[i] for block in blocks]) for i in range(3)), hashes


def load_table_dir(path) -> list:
    """All *.txt tables under ``path``, merged, deduplicated, ascending."""
    columns = _read_table_dir(path)[0]
    first = _merge(*columns)[2]
    return _rows([[column[first] for column in columns]])


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


def extend_partial_sum(base_threshold: int, base: Interval,
                       entries: Sequence[CensusTableEntry]) -> TwinCensus:
    """Extend a certified partial sum from a base threshold along a table.

    ``entries`` must contain a row at exactly ``base_threshold`` (the
    chain needs its count to difference against); rows below it are
    ignored.  The steps are summed in 2^-61 units, floors below and
    ceilings above, added exactly to ``base``, which must be finite, and
    rounded outward once.  Returns the count and enclosure at the last row.
    """
    columns = (_column(list(map(itemgetter(i), entries))) for i in range(3))
    return _extend(base_threshold, base, tuple(columns))


def _extend(base_threshold: int, base: Interval, columns: tuple) -> TwinCensus:
    """``extend_partial_sum`` of the mantissa, exponent and count columns."""
    if not (math.isfinite(base.lo) and math.isfinite(base.hi)):
        raise ValueError(f"base enclosure must be finite: {base}")
    ts, counts, _ = _merge(*columns)  # thresholds rise, counts never fall
    start = bisect_left(ts, base_threshold)
    if start == len(ts) or ts[start] != base_threshold:
        raise ValueError(f"no table row at base threshold {base_threshold}")
    ts, counts = ts[start:], counts[start:]
    # floor(2 delta 2^61 / (t2 + 2)) and ceil(2 delta 2^61 / t1) per step, in
    # slices whose temporaries take a few MiB
    lo = hi = 0
    for s in range(0, len(ts) - 1, 1 << 16):
        t, two_delta = ts[s : s + (1 << 16) + 1], 2 * np.diff(counts[s : s + (1 << 16) + 1])
        lo += _unit_quotients(two_delta, t[1:] + 2)[0]
        hi += sum(_unit_quotients(two_delta, t[:-1]))  # floors, and 1 where inexact
    lo_q = Fraction(base.lo) + Fraction(lo, _SCALE)
    total = _frac_bracket(lo_q, Fraction(base.hi) + Fraction(hi, _SCALE))
    return TwinCensus(limit=int(ts[-1]), pi2=int(counts[-1]), brun_partial=total)


def _unit_quotients(a: np.ndarray, d: np.ndarray) -> tuple:
    """(sum of floor(a 2^61 / d), how many are inexact), exactly; 2^61 is
    _SCALE.  int64 columns (0 <= a, sum(a) < 2^63, 0 < d < 2^62) take a long
    division, a // d then digits of 21, 20 and 20 bits.  A digit's float64
    estimate is within 1, so the residual (r << k) - q d lies in (-d, 2d),
    exact in wrap-around uint64 as int64, and one +-1 step corrects both.
    No sum overflows: sum(a // d) <= sum(a), and a digit is below 2^21."""
    if a.dtype == object:
        return int(((a << 61) // d).sum()), int(np.count_nonzero((a << 61) % d))
    q0, r = np.divmod(a, d)
    total, shift, du = int(q0.sum()) << 61, 61, d.view(np.uint64)
    for k in (21, 20, 20):
        shift -= k
        q = (r * float(1 << k) / d).astype(np.int64)
        r = ((r.view(np.uint64) << np.uint64(k)) - q.view(np.uint64) * du).view(np.int64)
        step = (r >= d).astype(np.int64) - (r < 0)
        q += step
        r -= step * d
        total += int(q.sum()) << shift
    return total, int(np.count_nonzero(r))


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
