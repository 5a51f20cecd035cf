"""Census tables: parsing, the step bracket, and chained extension."""

import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from brun.interval import Interval
from brun.sieve import census
from brun.tables import (
    CensusTableEntry,
    _entry_at,
    bracket_contribution,
    emit_table,
    extend_partial_sum,
    load_table_dir,
    parse_table,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestParsing:
    def test_single_line(self):
        e = parse_table("1000d12  1177209242304  1177208491858.251")[0]
        assert e.mantissa == 1000
        assert e.exponent == 12
        assert e.threshold == 10**15
        assert e.pi2 == 1177209242304
        assert e.label == "1000d12"

    def test_prediction_optional(self):
        e = parse_table("5d6 32463")[0]
        assert e.threshold == 5 * 10**6
        assert e == CensusTableEntry(5, 6, 32463)

    def test_malformed_lines(self):
        bad_lines = ["12 34", "ad3 5", "3d4 x", "3d4", "3d4 5 1e", "3d4 5 +-", "3d4 5 1.2.3"]
        # a zero mantissa names threshold 0, whose bracket would divide by 0
        bad_lines += ["0d5  3", "000d0  0"]
        # a prediction must be a finite double: 1e999 would be written back as inf
        for bad in bad_lines + ["3d4 5 1e999", "3d4 5 -1e999"]:
            with pytest.raises(ValueError, match="malformed census table line"):
                parse_table(bad)[0]

    def test_threshold_exponent_bounded(self):
        # no double lies beyond 10^308, and a longer exponent is never expanded
        assert parse_table("1d308  5")[0].threshold == 10**308
        for bad in ["1d309  5", "1d999  5", "1d30000000  5", "1d" + "9" * 5000 + "  5"]:
            with pytest.raises(ValueError, match="line 1: malformed census table line"):
                parse_table(bad)

    def test_unbounded_exponent_fails_fast(self, tmp_path):
        (tmp_path / "rows.txt").write_text("1d6  8169\n1d30000000  5\n")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"rows\.txt, line 2: malformed"):
            load_table_dir(tmp_path)
        assert time.perf_counter() - start < 1.0

    def test_comments_only_directory(self, tmp_path):
        (tmp_path / "rows.txt").write_text("# pi2 at powers of ten\n\n# none yet\n")
        with pytest.raises(ValueError, match="no census table rows under "):
            load_table_dir(tmp_path)

    def test_oversized_rows_fail_fast(self, tmp_path):
        # a threshold of more than 309 digits, a count of more digits than
        # its threshold, or a column with more than 309 leading zeros, is
        # malformed before any int conversion: a 5000-digit mantissa or count
        # would exceed Python's int-string limit
        assert parse_table("0001d308  1" + "0" * 308)[0].pi2 == 10**308
        assert parse_table("0" * 309 + "2d6  " + "0" * 309 + "14871") == [(2, 6, 14871)]
        for row in ["9" * 5000 + "d0  5", "1d6  " + "9" * 5000, "1" * 4000 + "d308  5",
                    "10d308  5", "1d3  10000", "1" * 310 + "d0  5",
                    "0" * 5000 + "2d6  14871", "2d6  " + "0" * 5000 + "14871"]:
            (tmp_path / "rows.txt").write_text(f"1d6  8169\n{row}\n")
            start = time.perf_counter()
            with pytest.raises(ValueError, match=r"rows\.txt, line 2: malformed census table line"):
                load_table_dir(tmp_path)
            assert time.perf_counter() - start < 1.0

    def test_prediction_forms(self):
        # the third column is checked, then dropped: the row is the two-column row
        for text in ["1.5e3", "-2", ".5", "7."]:
            assert parse_table(f"3d4 5 {text}") == parse_table("3d4 5")

    def test_bad_line_names_file_and_line(self, tmp_path):
        (tmp_path / "a.txt").write_text("1d6  8169\n")
        (tmp_path / "b.txt").write_text("# head\n2d6  14871\n3d6 20000 1e\n")
        with pytest.raises(ValueError, match=r"b\.txt, line 3: malformed census table line"):
            load_table_dir(tmp_path)

    def test_parse_table_skips_comments(self):
        text = "# heading\n\n1d6  8169\n2d6  14871\n"
        entries = parse_table(text)
        assert [e.threshold for e in entries] == [10**6, 2 * 10**6]

    def test_load_fixture_dir(self):
        entries = load_table_dir(FIXTURES)
        assert [e.label for e in entries] == ["1000d12", "1001d12"]

    def test_missing_dir(self):
        with pytest.raises(FileNotFoundError):
            load_table_dir(FIXTURES / "nope")

    def test_emit_round_trip(self):
        entries = load_table_dir(FIXTURES)
        assert parse_table(emit_table(entries)) == entries

    @pytest.mark.parametrize("threshold, label", [
        (1, "1d0"), (10, "1d1"), (5 * 10**6, "5d6"),
        (1001 * 10**12, "1001d12"), (4 * 10**18, "4d18"),
    ])
    def test_threshold_spelling_round_trip(self, threshold, label):
        row = _entry_at(threshold, 1)  # a count has no more digits than its threshold
        assert emit_table([row]) == f"{label}  1\n"
        (back,) = parse_table(emit_table([row]))
        assert (back.threshold, back.pi2) == (threshold, 1)

    def test_merge_keeps_first_row_per_threshold(self, tmp_path):
        # 10d5 and 1d6 name one threshold; a predicted count changes nothing
        (tmp_path / "a.txt").write_text("10d5  8169  8248.5\n2d6  14871\n")
        (tmp_path / "b.txt").write_text("1d6  8169\n")
        rows = load_table_dir(tmp_path)
        assert rows == [CensusTableEntry(10, 5, 8169), CensusTableEntry(2, 6, 14871)]


class TestBracket:
    def test_fixture_step_bracket(self):
        lower, upper = load_table_dir(FIXTURES)
        iv = bracket_contribution(lower, upper)
        delta = upper.pi2 - lower.pi2
        assert delta == 1106775692
        exact_lo = Fraction(2 * delta, upper.threshold + 2)
        exact_hi = Fraction(2 * delta, lower.threshold)
        assert Fraction(iv.lo) <= exact_lo
        assert exact_hi <= Fraction(iv.hi)
        # endpoints are single divisions, so stay within a couple ulps
        assert abs(Fraction(iv.lo) - exact_lo) <= Fraction(2 * delta, upper.threshold) / 2**50
        assert abs(Fraction(iv.hi) - exact_hi) <= Fraction(2 * delta, lower.threshold) / 2**50

    def test_bracket_validates_order(self):
        a = CensusTableEntry(1, 6, 8169)
        b = CensusTableEntry(2, 6, 14871)
        with pytest.raises(ValueError):
            bracket_contribution(b, a)
        with pytest.raises(ValueError, match="pair count decreases between 1d6 and 2d6"):
            bracket_contribution(a, CensusTableEntry(2, 6, 8168))

    def test_zero_delta(self):
        a = CensusTableEntry(1, 6, 8169)
        b = CensusTableEntry(2, 6, 8169)
        iv = bracket_contribution(a, b)
        assert iv.lo <= 0.0 <= iv.hi
        assert iv.width < 1e-300


def exact_chain(base: Interval, entries) -> tuple:
    """The chained bracket in exact rationals: (lower, upper, steps)."""
    lo, hi = Fraction(base.lo), Fraction(base.hi)
    for a, b in zip(entries, entries[1:]):
        two_delta = 2 * (b.pi2 - a.pi2)
        lo += Fraction(two_delta, b.threshold + 2)
        hi += Fraction(two_delta, a.threshold)
    return lo, hi, len(entries) - 1


def assert_near_exact_chain(extended, base, entries):
    # one 2^-61 unit per step, the bracket and the base sum each rounded
    # outward (at most 1.5 ulp per end each)
    lo, hi, steps = exact_chain(base, entries)
    iv = extended.brun_partial
    assert Fraction(iv.lo) <= lo and hi <= Fraction(iv.hi)
    slack = Fraction(steps, 2**61) + 3 * Fraction(math.ulp(iv.hi))
    assert lo - Fraction(iv.lo) <= slack
    assert Fraction(iv.hi) - hi <= slack


class TestExtension:
    def make_entries(self, thresholds):
        return [
            CensusTableEntry(t // 10**6, 6, census(t).pi2) for t in thresholds
        ]

    def test_fixture_chain_against_exact(self):
        entries = load_table_dir(FIXTURES)
        # a zero base keeps the ulps far below the 2^-61 units
        for base in (Interval(1.83, 1.84), Interval(0.0, 0.0)):
            extended = extend_partial_sum(10**15, base, entries)
            assert extended.pi2 == 1178316017996
            assert_near_exact_chain(extended, base, entries)

    def test_sieved_chain_against_exact(self):
        base = census(10**6).brun_partial
        entries = self.make_entries([10**6, 2 * 10**6, 3 * 10**6, 4 * 10**6])
        extended = extend_partial_sum(10**6, base, entries)
        assert_near_exact_chain(extended, base, entries)

    def test_extension_contains_sieved_truth(self):
        base = census(10**6)
        entries = self.make_entries([10**6, 2 * 10**6, 3 * 10**6])
        extended = extend_partial_sum(10**6, base.brun_partial, entries)
        truth = census(3 * 10**6)
        assert extended.limit == 3 * 10**6
        assert extended.pi2 == truth.pi2
        assert truth.brun_partial.issubset(extended.brun_partial)

    def test_refinement_tightens(self):
        base = census(10**6)
        coarse = extend_partial_sum(
            10**6, base.brun_partial, self.make_entries([10**6, 4 * 10**6])
        )
        fine = extend_partial_sum(
            10**6,
            base.brun_partial,
            self.make_entries([10**6, 2 * 10**6, 3 * 10**6, 4 * 10**6]),
        )
        assert fine.brun_partial.issubset(coarse.brun_partial)

    def test_requires_base_row(self):
        entries = self.make_entries([2 * 10**6, 3 * 10**6])
        with pytest.raises(ValueError):
            extend_partial_sum(10**6, Interval(1.7, 1.8), entries)

    def test_rejects_half_line_base(self):
        entries = load_table_dir(FIXTURES)
        for base in (Interval(1.83, math.inf), Interval(-math.inf, 1.84)):
            with pytest.raises(ValueError, match="must be finite"):
                extend_partial_sum(10**15, base, entries)

    def test_conflicting_duplicate_counts(self):
        entries = [
            CensusTableEntry(1, 6, 8169),
            CensusTableEntry(1, 6, 8170),
            CensusTableEntry(2, 6, 14871),
        ]
        with pytest.raises(ValueError):
            extend_partial_sum(10**6, Interval(1.7, 1.8), entries)

    def test_decreasing_counts_rejected(self):
        entries = [
            CensusTableEntry(1, 6, 8169),
            CensusTableEntry(2, 6, 8000),
        ]
        with pytest.raises(ValueError):
            extend_partial_sum(10**6, Interval(1.7, 1.8), entries)
