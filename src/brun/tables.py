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
a file that fails any check is parsed again line by line, which names
the malformed line.  Merging computes each threshold once, as an int64
product when it is below 2^63, orders the rows with one stable argsort
and checks duplicates and counts with vector comparisons; larger
thresholds, and every conflict or decrease, take the dict merge, which
raises the message.  The chain is an exact integer sum at the census's
binary scale 2^61 (each step's lower end rounded down to a unit, its
upper end up), two sums of floor divisions, rounded outward once and
added to the base.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, itemgetter, le, mul, sub
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
    built column by column; otherwise the line loop runs over the whole
    text and names the first malformed line.
    """
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    entries = []
    for start in range(0, len(lines), _BLOCK):
        rows = _parse_block(lines[start : start + _BLOCK])
        if rows is None:
            return _parse_lines(text)
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
        or not all(map(le, map(len, map(str.lstrip, pi2s, repeat("0"))), digits))
        or not all(map(math.isfinite, map(float, filter(None, preds))))
    ):
        return None
    return list(map(CensusTableEntry._make, zip(map(int, ks), exponents, map(int, pi2s))))


def _parse_lines(text: str) -> list:
    """``parse_table`` one line at a time, raising at the first malformed line."""
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := _LINE.match(line):
            k, n, pi2, pred = m.groups()
            digits = len(k.lstrip("0")) + int(n)  # of the threshold
        if (
            m is None
            or digits > _MAX_DIGITS
            or len(pi2.lstrip("0")) > digits  # pi2(x) <= x
            or not math.isfinite(float(pred or 0))  # 1e999 parses as inf
        ):
            raise ValueError(f"line {number}: malformed census table line: {line!r}")
        entries.append(CensusTableEntry(int(k), int(n), int(pi2)))
    return entries


def _merge(rows: Sequence[CensusTableEntry]) -> tuple:
    """(ascending thresholds, their counts, the indices in ``rows`` of
    the first row at each), each threshold computed once.  The indices
    are an int64 array on the int64 path, where a list of 1e5 Python
    ints would raise the peak by about 4 MiB, and a list otherwise.

    Below 2^63 one stable argsort of the int64 thresholds orders the rows
    and vector comparisons find the duplicates; a threshold or count
    beyond int64, a conflict and a decrease go to ``_merge_dict``.
    """
    columns = _int64_columns(rows)
    if columns is None:
        return _merge_dict(rows)
    t, c = columns
    order = np.argsort(t, kind="stable")  # the first row at a threshold stays first
    t, c = t[order], c[order]
    new = np.empty(len(t), dtype=bool)
    new[0] = True
    np.not_equal(t[1:], t[:-1], out=new[1:])
    # a duplicate repeats its count, and counts never fall
    if (c[1:] < c[:-1]).any() or (c[1:] != c[:-1])[~new[1:]].any():
        return _merge_dict(rows)
    return t[new].tolist(), c[new].tolist(), order[new]


def _int64_columns(rows: Sequence[CensusTableEntry]):
    """The rows' thresholds and counts as int64 arrays, or None when
    there are no rows or one of them does not fit."""
    try:
        k, n, c = (np.array(list(map(itemgetter(i), rows)), dtype=np.int64) for i in range(3))
    except OverflowError:
        return None
    if not (
        len(k) and 0 <= n.min() and n.max() < len(_POW10)
        and 0 <= k.min() and (k <= _MAX_MANTISSA[n]).all()
    ):
        return None
    return k * _POW10[n], c


def _merge_dict(rows: Sequence[CensusTableEntry]) -> tuple:
    """``_merge`` by dict at any size, raising at the first conflict or decrease."""
    first = {}
    for i, e in enumerate(rows):
        prev = rows[first.setdefault(e.threshold, i)]
        if prev.pi2 != e.pi2:
            raise ValueError(f"conflicting counts at {e.label}: {prev.pi2} vs {e.pi2}")
    thresholds = sorted(first)
    index = [first[t] for t in thresholds]
    counts = [rows[i].pi2 for i in index]
    for i, j, a, b in zip(index, index[1:], counts, counts[1:]):
        if b < a:
            raise ValueError(f"pair count decreases from {rows[i].label} to {rows[j].label}")
    return thresholds, counts, index


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
