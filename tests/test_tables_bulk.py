"""The bulk table passes against the line-by-line and dict code they replace.

``reference_parse``, ``reference_merge`` and ``reference_extend`` are the
per-row loops that ``parse_table``, ``_merge`` and the chain of
``extend_partial_sum`` used before they became bulk passes, kept here as
the specification: on every input both sides return the same rows,
thresholds and enclosure bits, or raise the same ``ValueError`` text.
The int64 chain's long division is checked against Python's ``//``.
"""

import json
import math
import os
import random
import re
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brun import tables
from brun.cli import main
from brun.interval import Interval, _frac_bracket
from brun.sieve import _SCALE
from brun.tables import (
    DEFAULT_BASE_ENCLOSURE,
    CensusTableEntry,
    _column,
    _merge,
    _unit_quotients,
    extend_partial_sum,
    parse_table,
)

REF_LINE = re.compile(
    r"^(?P<k>(?!0{310})0*[1-9]\d*)d(?P<n>\d{1,3})\s+(?P<pi2>(?!0{310})\d+)"
    r"(?:\s+(?P<pred>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?))?\s*$"
)


def reference_parse(text: str) -> list:
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if m := REF_LINE.match(line):
            k, n, pi2, pred = m.groups()
            digits = len(k.lstrip("0")) + int(n)
        if (
            m is None
            or digits > 309
            or len(pi2.lstrip("0")) > digits
            or not math.isfinite(float(pred or 0))
        ):
            raise ValueError(f"line {number}: malformed census table line: {line!r}")
        entries.append(CensusTableEntry(int(k), int(n), int(pi2)))
    return entries


def reference_merge(entries) -> tuple:
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


def reference_extend(base_threshold: int, base: Interval, entries) -> tuple:
    thresholds, rows = reference_merge(entries)
    start = bisect_left(thresholds, base_threshold)
    if thresholds[start:start + 1] != [base_threshold]:
        raise ValueError(f"no table row at base threshold {base_threshold}")
    ts = thresholds[start:]
    counts = [row.pi2 for row in rows[start:]]
    lo = hi = 0
    for t1, t2, c1, c2 in zip(ts, ts[1:], counts, counts[1:]):
        two_delta = 2 * (c2 - c1)
        lo += two_delta * _SCALE // (t2 + 2)
        hi -= -two_delta * _SCALE // t1
    lo_q = Fraction(base.lo) + Fraction(lo, _SCALE)
    total = _frac_bracket(lo_q, Fraction(base.hi) + Fraction(hi, _SCALE))
    return ts[-1], counts[-1], total.lo.hex(), total.hi.hex()


def outcome(fn, *args):
    """What ``fn`` returns, or the text of the ValueError it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# -- parse_table -------------------------------------------------------

# every terminator str.splitlines honours
TERMINATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# spaces inside a line: \x1f is whitespace that splitlines does not split on
SPACES = [" ", "  ", "\t", "\x1f", "\xa0", "\u3000", " \xa0 "]
# ASCII, Arabic-Indic, Devanagari, fullwidth and (outside the BMP) bold digits
DIGITS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
          "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
          "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
          "".join(map(chr, range(0x1D7CE, 0x1D7D8)))]
GOOD_PREDICTIONS = ["1.5e3", "-2", ".5", "7.", "+3E-2", "12", "1e308", "-1.7e308", "\u0661.\u0665"]
BAD_PREDICTIONS = ["1e999", "-1e999", "1e", "+-", "1.2.3", "nan", "inf", ".", "e5", "1x"]


@st.composite
def numerals(draw, max_len: int) -> str:
    """A decimal numeral, ASCII 1-9 first, then digits of any script."""
    digits = draw(st.sampled_from(DIGITS))
    return draw(st.sampled_from("123456789")) + "".join(
        draw(st.lists(st.sampled_from(digits), max_size=max_len - 1))
    )


@st.composite
def rows(draw, flawed: bool) -> str:
    """A table row, valid unless ``flawed`` lets a column break a rule."""
    space = st.sampled_from(SPACES)
    zeros = st.sampled_from(["", "", "0", "00"] + ["\u0660"] * flawed)  # 0* is ASCII only
    k = draw(zeros) + draw(numerals(8))
    exponents = ["0", "00", "6", "12", "\u0967\u0968"] + ["308", "0000"] * flawed
    n = draw(st.sampled_from(exponents) | numerals(3)) if flawed else draw(st.sampled_from(exponents))
    digits = len(k.lstrip("0")) + int(n)
    pi2 = draw(zeros) + draw(numerals(min(digits + flawed, 20)))
    line = f"{k}d{n}{draw(space)}{pi2}"
    if draw(st.booleans()):
        predictions = GOOD_PREDICTIONS + BAD_PREDICTIONS * flawed
        line += draw(space) + draw(st.sampled_from(predictions))
    return draw(space) * draw(st.integers(0, 1)) + line + draw(space) * draw(st.integers(0, 1))


# rows at 309 and 310 threshold digits, and a malformed line of each kind
EDGE_LINES = [
    "1d308  5", "10d308  5", "0001d308  1" + "0" * 308, "1d308  1" + "0" * 308,
    "1" * 309 + "d0  7", "1" * 310 + "d0  7", "9" * 300 + "d9  3", "9" * 300 + "d10  3",
    "1d3  9999", "1d3  10000", "12 34", "ad3 5", "3d4", "0d5  3", "1d6\xa0\xa08169\u30008248.5",
    # 309 and 310 leading zeros in each column
    "0" * 309 + "2d6  7", "0" * 310 + "2d6  7", "2d6  " + "0" * 309 + "7", "2d6  " + "0" * 310 + "7",
    # predictions of 308 and 309 digits with no exponent: 10^308 - 1 is finite
    "1d6  5  " + "9" * 308, "1d6  5  -" + "9" * 308 + ".5", "1d6  5  " + "9" * 309,
]
OTHER_LINES = ["", "   ", "\xa0", "# heading", "  # indented comment", "#1d6 5", "x # not a comment"]


@st.composite
def tables_text(draw) -> str:
    clean = draw(st.booleans())  # valid rows only: the bulk path runs to the end
    line = rows(False) if clean else st.one_of(rows(True), st.sampled_from(EDGE_LINES + OTHER_LINES))
    lines = draw(st.lists(line, max_size=12))
    lines += draw(st.lists(st.sampled_from(OTHER_LINES[:6]), max_size=3))
    lines = draw(st.permutations(lines))
    ends = draw(st.lists(st.sampled_from(TERMINATORS), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    return text[: len(text) - draw(st.integers(0, 1))]  # with or without a final terminator


# blocks of 1, 2 and 3 lines put block ends everywhere in a short table:
# rows joined across blocks, and a later block failing after earlier ones
# parsed, whose malformed line must still be named by its number in the text
BLOCKS = [1, 2, 3, tables._BLOCK]


@settings(max_examples=250, deadline=None)
@given(tables_text(), st.sampled_from(BLOCKS))
def test_parse_matches_line_loop(text, block):
    expected = outcome(reference_parse, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_BLOCK", block)
        got = outcome(parse_table, text)
    assert got == expected
    if got[0] == "ok":
        assert all(type(row) is CensusTableEntry for row in got[1])


def count_block_calls(monkeypatch) -> list:
    """A list that grows by one on each call of ``tables._parse_block``."""
    calls, parse_block = [], tables._parse_block
    monkeypatch.setattr(tables, "_parse_block", lambda lines: calls.append(1) or parse_block(lines))
    return calls


@pytest.mark.parametrize("block", BLOCKS)
def test_clean_tables_take_the_bulk_path(monkeypatch, block):
    calls = count_block_calls(monkeypatch)
    monkeypatch.setattr(tables, "_BLOCK", block)
    text = "# head\r\n1d6  8169\x851\u0660d5\xa08169\u3000 8248.5 \u2028\n2d6\x1f14871  -1e3\n"
    text += "00012d1  000042\n0001d308  1" + "0" * 308
    assert parse_table(text) == [
        (1, 6, 8169), (10, 5, 8169), (2, 6, 14871), (12, 1, 42), (1, 308, 10**308)
    ]
    assert len(calls) == -(-5 // block)  # one call a block of the 5 content lines
    assert parse_table("1000d12  1177209242304  1177208491858.251") == [(1000, 12, 1177209242304)]
    assert len(calls) == -(-5 // block) + 1


@pytest.mark.parametrize("block", BLOCKS)
def test_late_block_failure_names_its_line(monkeypatch, block):
    monkeypatch.setattr(tables, "_BLOCK", block)
    text = "".join(f"{k}d6  {1000 * k}\n" for k in range(1, 8)) + "# end\n9d6  x\n"
    with pytest.raises(ValueError, match=r"^line 9: malformed census table line: '9d6  x'$"):
        parse_table(text)


def test_bad_line_in_a_late_block_is_read_alone(monkeypatch):
    # three blocks and more of rows behind comments, blank lines and \r\n
    # and \x85 ends; two malformed lines in the last block, the first of
    # them named by its number, and only that block read line by line
    calls = count_block_calls(monkeypatch)
    raw = []
    for k in range(1, 3 * tables._BLOCK + 100):
        raw += ["# comment", ""] if k % 7 == 0 else []
        raw.append(f"  {k}d6  {k}")
    number = len(raw) - 40
    raw[number - 1:number - 1] = ["9d6  x", "1d6  1  1e999"]
    text = "".join(line + ("\r\n", "\x85", "\n")[i % 3] for i, line in enumerate(raw))
    with pytest.raises(ValueError, match=rf"^line {number}: malformed census table line: '9d6  x'$"):
        parse_table(text)
    assert len(calls) <= 4 + tables._BLOCK

@pytest.mark.parametrize(
    "row", ["0" * 5000 + "2d6  14871", "2d6  " + "0" * 5000 + "14871"], ids=["threshold", "count"]
)
@pytest.mark.parametrize("block", BLOCKS)
def test_leading_zeros_are_bounded(monkeypatch, row, block):
    # 5000 zeros pass every digit rule, but int() of the column would raise
    # Python's own digit-limit error with no line number
    monkeypatch.setattr(tables, "_BLOCK", block)
    text = f"1d6  8169\n{row}\n"
    expected = ("error", f"line 2: malformed census table line: {row!r}")
    assert outcome(parse_table, text) == outcome(reference_parse, text) == expected


def test_first_bad_line_is_named():
    text = "1d6  8169\n2d6  14871\r\n3d6 20000 1e999\n4d6 x\n"
    with pytest.raises(ValueError, match=r"^line 3: malformed census table line: '3d6 20000 1e999'$"):
        parse_table(text)


# -- _merge and the chain ----------------------------------------------

# both sides of the int64 columns' bound (threshold + 2 < 2^62) and of 2^63
BIG = [2**62 - 3, 2**62 - 2, 9 * 10**18, 2**63 - 1, 2**63, 10**19, 10**308]


def spell(threshold: int, rng: random.Random) -> tuple:
    """(k, n) with k * 10^n == threshold, the exponent chosen at random."""
    n = 0
    while threshold % 10 ** (n + 1) == 0:
        n += 1
    n = rng.randint(0, n)
    return threshold // 10**n, n


@st.composite
def merge_inputs(draw) -> list:
    rng = random.Random(draw(st.integers(0, 2**32)))
    small = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
    big = draw(st.lists(st.sampled_from(BIG), max_size=3))
    thresholds = sorted(set(t * 10 ** draw(st.integers(0, 12)) for t in small) | set(big))
    count = st.integers(0, 10**15) | st.sampled_from([2**62 - 1, 2**62, 2**63 - 1, 2**63, 10**20])
    counts = sorted(draw(st.lists(count, min_size=len(thresholds), max_size=len(thresholds))))
    table = [CensusTableEntry(*spell(t, rng), c) for t, c in zip(thresholds, counts)]
    entries = table + [CensusTableEntry(*spell(row.threshold, rng), row.pi2)
                       for row in table if rng.random() < 0.3]
    rng.shuffle(entries)
    if draw(st.booleans()) and len(entries) > 1:  # a conflict or a decrease
        i = rng.randrange(len(entries))
        entries[i] = entries[i]._replace(pi2=entries[i].pi2 + rng.choice([-1, 1, 10**19]))
    return entries


def merge_rows(entries) -> tuple:
    return _merge(*(_column([row[i] for row in entries]) for i in range(3)))


def split_merge(entries) -> tuple:
    thresholds, counts, first = merge_rows(entries)
    rows = [entries[i] for i in first]
    assert counts.tolist() == [row.pi2 for row in rows]
    return thresholds.tolist(), rows


@settings(max_examples=200, deadline=None)
@given(merge_inputs())
def test_merge_matches_dict_merge(entries):
    expected = outcome(reference_merge, entries)
    got = outcome(split_merge, entries)
    assert got == expected
    if got[0] == "ok":  # the first row at each threshold, the object itself
        assert all(a is b for a, b in zip(got[1][1], expected[1][1]))


@settings(max_examples=150, deadline=None)
@given(merge_inputs(), st.data())
def test_chain_matches_reference(entries, data):
    base_threshold = data.draw(st.sampled_from([row.threshold for row in entries]))
    base = Interval(*sorted(data.draw(st.tuples(st.sampled_from([0.0, 1.83, 1.8065924]),
                                                st.sampled_from([0.0, 1.84, 1.8065925])))))

    def extended(*args):
        out = extend_partial_sum(*args)
        return out.limit, out.pi2, out.brun_partial.lo.hex(), out.brun_partial.hi.hex()

    assert outcome(extended, base_threshold, base, entries) == outcome(
        reference_extend, base_threshold, base, entries
    )


def test_int64_path_and_its_edges(monkeypatch):
    dtypes = []  # of the thresholds the one argsort orders
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda t, **kw: dtypes.append(t.dtype) or argsort(t, **kw))
    below = [CensusTableEntry(4, 18, 5), CensusTableEntry(1, 6, 3), CensusTableEntry(10, 5, 3)]
    thresholds, counts, first = merge_rows(below)
    assert (thresholds.tolist(), counts.tolist(), list(first)) == ([10**6, 4 * 10**18], [3, 5], [1, 0])
    # the last threshold and count of the int64 columns: threshold + 2 and count below 2^62
    assert merge_rows(below + [CensusTableEntry(2**62 - 3, 0, 2**62 - 1)])[0][-1] == 2**62 - 3
    assert dtypes == [np.int64, np.int64]
    # a threshold + 2 or a count at 2^62 and above makes every column Python ints
    for extra in (CensusTableEntry(2**62 - 2, 0, 6), CensusTableEntry(2**62 - 3, 0, 2**62),
                  CensusTableEntry(2**63 - 1, 0, 2**63 - 1), CensusTableEntry(1, 19, 6),
                  CensusTableEntry(1, 308, 6), CensusTableEntry(92233720368547759, 2, 6),
                  CensusTableEntry(46116860184273880, 2, 6), CensusTableEntry(92, 17, 2**63)):
        thresholds, counts, _ = merge_rows(below + [extra])
        assert (thresholds[-1], counts[-1]) == (extra.threshold, extra.pi2)
        assert all(type(x) is int for x in thresholds.tolist() + counts.tolist())
    assert dtypes[2:] == [object] * 8
    assert tuple(map(list, merge_rows([]))) == ([], [], [])


def test_first_conflict_and_first_decrease_are_named():
    rows = [CensusTableEntry(2, 6, 14871), CensusTableEntry(1, 6, 8169),
            CensusTableEntry(20, 5, 14872), CensusTableEntry(10, 5, 8170)]
    with pytest.raises(ValueError, match=r"^conflicting counts at 20d5: 14871 vs 14872$"):
        merge_rows(rows)
    rows = [CensusTableEntry(3, 6, 20000), CensusTableEntry(1, 6, 8169),
            CensusTableEntry(2, 6, 19000), CensusTableEntry(4, 6, 10)]
    with pytest.raises(ValueError, match=r"^pair count decreases from 3d6 to 4d6$"):
        merge_rows(rows)
    rows = [CensusTableEntry(4, 6, 1), CensusTableEntry(3, 6, 5), CensusTableEntry(2, 6, 9),
            CensusTableEntry(1, 6, 0)]  # two decreases: the first is named
    with pytest.raises(ValueError, match=r"^pair count decreases from 2d6 to 3d6$"):
        merge_rows(rows)
    with pytest.raises(ValueError, match=r"^pair count decreases from 1d19 to 1d308$"):
        merge_rows([CensusTableEntry(1, 308, 1), CensusTableEntry(1, 19, 2)])
    with pytest.raises(ValueError, match=r"^conflicting counts at 1d19: 5 vs 6$"):
        _merge(*tables._parse_block(["10d18  5", "1d19  6"]))


# -- the int64 chain's long division -----------------------------------

# divisors at 1, small, around 2^53 (past which a double drops bits), at
# 2^61 and up to 2^62 - 1, the largest t2 + 2 of the int64 columns
EDGE_DIVISORS = [1, 2, 3, 7, 10**12 + 2, 2**53 - 1, 2**53 + 1, 2**61, 2**62 - 3, 2**62 - 1]


def python_quotients(a: int, d: int) -> tuple:
    """floor(a 2^61 / d) and ceil(a 2^61 / d), in Python ints."""
    return (a << 61) // d, -((-a << 61) // d)


def edge_numerators(d: int) -> list:
    """0, numerators just below, at and above d and its multiples, and the
    largest multiple of d and the largest even number below 2^63."""
    top = 2**63 - 1
    out = [0, 1, d - 1, d, d + 1, 2 * d - 1, 2 * d, 5 * d, 5 * d + 1, top - top % d, top - 1]
    return sorted({a for a in out if 0 <= a < 2**63})


@pytest.mark.parametrize("d", EDGE_DIVISORS)
def test_unit_quotients_at_the_edges(d):
    for a in edge_numerators(d):
        floor, ceil = python_quotients(a, d)
        got = _unit_quotients(np.array([a], dtype=np.int64), np.array([d], dtype=np.int64))
        assert got == (floor, ceil - floor), (a, d)
        if a % d == 0:
            assert ceil == floor


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2**62 - 1) | st.sampled_from(EDGE_DIVISORS), min_size=1, max_size=40),
       st.data())
def test_unit_quotients_match_python(divisors, data):
    cap = (2**63 - 1) // len(divisors)  # the numerators' sum stays below 2^63
    a = [data.draw(st.integers(0, cap) | st.sampled_from([0, min(d - 1, cap), cap - cap % d]))
         for d in divisors]
    quotients = [python_quotients(x, d) for x, d in zip(a, divisors)]
    got = _unit_quotients(np.array(a, dtype=np.int64), np.array(divisors, dtype=np.int64))
    assert got == (sum(q[0] for q in quotients), sum(q[1] != q[0] for q in quotients))


def record_chain_dtypes(monkeypatch) -> list:
    """A list of the dtype of each column ``tables._unit_quotients`` divides."""
    dtypes, unit_quotients = [], tables._unit_quotients
    monkeypatch.setattr(tables, "_unit_quotients",
                        lambda a, d: dtypes.append(a.dtype) or unit_quotients(a, d))
    return dtypes


@pytest.mark.parametrize("last, vector", [
    ((2**62 - 3, 2**62 - 1), True), ((2**62 - 2, 2**62 - 1), False), ((2**62 - 3, 2**62), False),
])
def test_chain_on_each_side_of_the_bound(monkeypatch, last, vector):
    dtypes = record_chain_dtypes(monkeypatch)
    rows = [CensusTableEntry(1, 6, 8169), CensusTableEntry(2, 6, 14871),
            CensusTableEntry(10**18 - 1, 0, 10**17), CensusTableEntry(last[0], 0, last[1])]
    for base in (Interval(1.8, 1.9), Interval(0.0, 0.0)):
        out = extend_partial_sum(10**6, base, rows)
        got = out.limit, out.pi2, out.brun_partial.lo.hex(), out.brun_partial.hi.hex()
        assert got == reference_extend(10**6, base, rows)
    assert dtypes == [np.dtype(np.int64) if vector else np.dtype(object)] * 4


@pytest.mark.skipif(
    not os.environ.get("BRUN_ACCEPT_LONG"),
    reason="1e6 table rows through brun extend, about 10 s; set BRUN_ACCEPT_LONG=1 to run",
)
def test_chain_at_scale(tmp_path, monkeypatch):
    """A million rows, one every 1e12 from 1e12, in five shuffled files: the
    int64 chain of ``brun extend`` has the Python-int chain's bits."""
    rng = random.Random(2014)
    rows, count = [], 37_607_912_018  # pi2(1e12)
    for k in range(1, 10**6 + 1):
        rows.append(CensusTableEntry(k, 12, count))
        count += rng.randint(10**9, 2 * 10**9)
    files = [[] for _ in range(5)]
    for row in rows:
        rng.choice(files).append(f"{row.label}  {row.pi2}\n")
    for i, lines in enumerate(files):
        rng.shuffle(lines)
        (tmp_path / f"part{i}.txt").write_text("".join(lines))
    dtypes = record_chain_dtypes(monkeypatch)
    out = tmp_path / "extend.json"
    assert main(["extend", "--tables", str(tmp_path), "--json", str(out)]) == 0
    assert dtypes == [np.dtype(np.int64)] * 32  # the int64 chain ran, in 16 slices
    payload = json.loads(out.read_text())
    ends = payload["brun_partial"]["lo_hex"], payload["brun_partial"]["hi_hex"]
    got = payload["limit"], payload["pi2"], *ends
    assert got == reference_extend(10**12, DEFAULT_BASE_ENCLOSURE, rows)
