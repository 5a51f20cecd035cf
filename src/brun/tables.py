"""Twin pair census tables: parsing, validation, rigorous extension.

A census table is a text file of lines

    <k>d<n>  <pi2>  [<prediction>]

where ``<k>d<n>`` names the threshold k * 10^n, k > 0, of at most 309 digits
(10^309 exceeds every double), ``<pi2>`` is the exact number of twin pairs
up to that threshold, of no more digits than the threshold, and an optional
third column (a predicted count) is checked to be a finite decimal and
discarded.  Both sizes are checked on the digits, before any is converted.

Counts at two thresholds brace the partial sum growth between them: every
pair (p, p+2) with t1 < p <= t2 contributes between 2/(t2+2) and 2/t1.
Chaining that bracket along consecutive table rows extends a certified
partial sum enclosure from a sieved base up to the table's end without
sieving anything beyond the base.  One pass merges the rows, keying each
by its threshold (computed once) and checking that counts never fall; one
pass chains the merged thresholds and counts as an exact integer sum at
the census's binary scale 2^61 (each step's lower end rounded down to a
unit, its upper end up), rounded outward once and added to the base.
"""

from __future__ import annotations

import hashlib
import math
import re
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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

_LINE = re.compile(
    r"^(?P<k>0*[1-9]\d*)d(?P<n>\d{1,3})\s+(?P<pi2>\d+)"
    r"(?:\s+(?P<pred>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?\s*$"
)


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
    """Parse one table; blank lines and # comments are skipped."""
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


def _merge(entries: Iterable[CensusTableEntry]) -> tuple:
    """(ascending thresholds, the first row at each), each threshold keyed once."""
    by_threshold = {}
    for e in entries:
        prev = by_threshold.setdefault(e.threshold, e)
        if prev.pi2 != e.pi2:
            raise ValueError(f"conflicting counts at {e.label}: {prev.pi2} vs {e.pi2}")
    thresholds = sorted(by_threshold)
    rows = [by_threshold[t] for t in thresholds]
    for a, b in zip(rows, rows[1:]):
        if b.pi2 < a.pi2:
            raise ValueError(f"pair count decreases from {a.label} to {b.label}")
    return thresholds, rows


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
    return _merge(_read_table_dir(path)[0])[1]


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
    thresholds, rows = _merge(entries)  # thresholds rise, counts never fall
    start = bisect_left(thresholds, base_threshold)
    if thresholds[start:start + 1] != [base_threshold]:
        raise ValueError(f"no table row at base threshold {base_threshold}")
    ts = thresholds[start:]
    counts = [row.pi2 for row in rows[start:]]
    lo = hi = 0
    for t1, t2, c1, c2 in zip(ts, ts[1:], counts, counts[1:]):
        two_delta = 2 * (c2 - c1)
        lo += two_delta * _SCALE // (t2 + 2)
        hi -= -two_delta * _SCALE // t1  # adds the ceiling
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
