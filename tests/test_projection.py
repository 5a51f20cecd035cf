"""Heuristic pair count predictions and projected upper bounds."""

import math

import mpmath
import pytest

from brun.projection import (
    DEFAULT_B_ASSUMED,
    TWIN_C_MID,
    Projection,
    predict_brun_partial,
    predict_pi2,
    project_table,
)

# published census count at 2e16, for the accuracy spot check
PI2_2E16 = 19831847025792

# frozen projection rows computed independently at high precision; the
# uppers take the majorant's log1p tail beyond u = 20000 (with the earlier
# 1/20000 tail they read 2.2812178, 2.2640745 and 1.9998039)
ROWS = {
    19: (7.23752e15, 1.8418017, 2.2812175237),
    20: (6.51543e16, 1.8448197, 2.2640742782),
    80: (3.93402e75, 1.8878254, 1.9998036495),
}


def li_form(x: float) -> mpmath.mpf:
    # C (li(x) - li(2) - x/log x + 2/log 2) at 40 digits, an independent
    # closed form for the same integral
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return TWIN_C_MID * (
            mpmath.li(x, offset=True) - x / mpmath.log(x) + 2 / mpmath.log(2)
        )


class TestPredictPi2:
    def test_against_census_count(self):
        pred = predict_pi2(2e16)
        assert abs(pred - PI2_2E16) / PI2_2E16 < 1e-4

    @pytest.mark.parametrize(
        "x",
        [2.01, 2.5, 3.0, 10.0, 100.0, 1e4, 2e16] + [10.0**k for k in range(7, 301)],
    )
    def test_against_logarithmic_integral(self, x):
        pred = predict_pi2(x)
        ref = li_form(x)
        assert abs(pred - ref) / ref < 1e-13

    def test_domain(self):
        for x in (2.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                predict_pi2(x)


class TestPredictBrunPartial:
    def test_closed_form(self):
        got = predict_brun_partial(1e19)
        assert abs(got - ROWS[19][1]) < 1e-7

    def test_limit_recovers_assumed_value(self):
        near = predict_brun_partial(1e300)
        assert 0.0 < DEFAULT_B_ASSUMED - near < 0.004

    def test_below_assumed(self):
        for n in (1e7, 1e20, 1e100):
            assert predict_brun_partial(n) < DEFAULT_B_ASSUMED

    def test_domain(self):
        with pytest.raises(ValueError):
            predict_brun_partial(1.0)


@pytest.fixture(scope="module")
def table():
    return project_table([19, 20, 80])


class TestProjectTable:
    def test_frozen_rows(self, table):
        for row in table:
            pi2_ref, b_ref, upper_ref = ROWS[row.k]
            assert abs(row.pi2_pred - pi2_ref) / pi2_ref < 2e-6
            assert abs(row.b_pred - b_ref) < 1e-7
            # the reference is the exact-quadrature value; ours can only
            # exceed it by the quadrature slack
            assert upper_ref - 1e-9 <= row.upper_pred <= upper_ref + 1e-6

    def test_published_digits(self, table):
        displayed = {19: "2.281", 20: "2.264", 80: "2"}
        for row in table:
            assert f"{row.upper_pred:.4g}" == displayed[row.k]

    def test_strictly_decreasing(self, table):
        uppers = [row.upper_pred for row in table]
        assert uppers == sorted(uppers, reverse=True)
        assert len(set(uppers)) == len(uppers)

    def test_sorted_and_flagged(self, table):
        assert [row.k for row in table] == [19, 20, 80]
        assert all(row.non_rigorous for row in table)

    def test_duplicates_collapse(self):
        rows = project_table([20, 20])
        assert len(rows) == 1

    def test_small_threshold_reaches_default_width(self):
        # the tail quadrature reaches the default width target from x0 = 1e7
        rows = project_table(range(7, 21))
        assert [row.k for row in rows] == list(range(7, 21))
        assert all(row.b_pred < row.upper_pred < 3.0 for row in rows)
        assert 2.3 < rows[12 - 7].upper_pred

    def test_validation(self):
        with pytest.raises(ValueError):
            project_table([])
        with pytest.raises(ValueError):
            project_table([5])
        with pytest.raises(ValueError):
            project_table([301])


class TestProjectionType:
    def test_flag_is_permanent(self):
        with pytest.raises(ValueError):
            Projection(k=19, pi2_pred=1.0, b_pred=1.8, upper_pred=2.3, non_rigorous=False)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Projection(k=19, pi2_pred=0.0, b_pred=1.8, upper_pred=2.3)
        # the partial sum must sit below the assumed limit DEFAULT_B_ASSUMED
        with pytest.raises(ValueError):
            Projection(k=19, pi2_pred=1.0, b_pred=1.95, upper_pred=2.3)
