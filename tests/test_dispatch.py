"""Byte identity of the float-term outputs across numpy's CPU dispatch.

numpy picks its vector log1p, power and log kernels at import time.  With
AVX512 dispatch turned off (``NPY_DISABLE_CPU_FEATURES``) a few percent of
the terms change by an ulp or so; the pinned h_bound, twin_constant and
scan_c ends, at 1e6 and at the benchmark's 1e8, must come out the same
under both sets of kernels.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import brun
from brun.interval import Interval
from conftest import assert_pinned

AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

CHILD = """
import json
from fractions import Fraction
from numpy._core._multiarray_umath import __cpu_features__
from brun.divisor_error import scan_c
from brun.euler_product import h_bound, twin_constant
ends = lambda iv: [iv.lo.hex(), iv.hi.hex()]
report = h_bound(10**6, Fraction(2, 5))
report8 = h_bound(10**8, Fraction(2, 5))
scan = scan_c(Fraction(2, 5), 10**6)
print(json.dumps({
    "x86_v4": __cpu_features__["X86_V4"],
    "partial_log_sum": ends(report.partial_log_sum),
    "h": ends(report.h),
    "twin_constant": ends(twin_constant(10**6)),
    "scanned": ends(scan.scanned),
    "bound": ends(scan.bound),
    "pi_cutoff_1e8": report8.pi_cutoff,
    "partial_log_sum_1e8": ends(report8.partial_log_sum),
    "log_bound_1e8": ends(report8.log_bound),
    "h_1e8": ends(report8.h),
    "twin_constant_1e8": ends(twin_constant(10**8)),
}))
"""

PINS = {
    "scanned": ["0x1.5ae021eb6d793p-1", "0x1.7dfef9da61be7p-1"],
    "pi_cutoff_1e8": 5761455,
    "twin_constant_1e8": ["0x1.5200bac1df08ap+0", "0x1.5200bac530059p+0"],
}
# pins that moved inward, each with the pin it nests in: twin_constant and
# the scan's bound when exact values entered at one ulp, the rest when s1
# and the log bound became one exact sum rounded once
MOVED = {
    "partial_log_sum": (
        ("0x1.b368c4754023fp+2", "0x1.b368c475402a0p+2"),
        ("0x1.b368c4754023ep+2", "0x1.b368c475402a1p+2"),
    ),
    "h": (
        ("0x1.c264d02fed2c0p+9", "0x1.dbd6b66a8bf0ep+9"),
        ("0x1.c264d02fed2b9p+9", "0x1.dbd6b66a8bf1dp+9"),
    ),
    "twin_constant": (
        ("0x1.5200ba7efc024p+0", "0x1.5200bc42998adp+0"),
        ("0x1.5200ba7efc024p+0", "0x1.5200bc42998aep+0"),
    ),
    "bound": (
        ("0x1.0cdf881716231p+0", "0x1.0cdf981d81d8fp+0"),
        ("0x1.0cdf88171622cp+0", "0x1.0cdf981d81d92p+0"),
    ),
    "partial_log_sum_1e8": (
        ("0x1.b5be473e30998p+2", "0x1.b5be473e309fap+2"),
        ("0x1.b5be473e30997p+2", "0x1.b5be473e309fbp+2"),
    ),
    "log_bound_1e8": (
        ("0x1.b5be473e30998p+2", "0x1.b6d5b93b5b568p+2"),
        ("0x1.b5be473e30997p+2", "0x1.b6d5b93b5b56ap+2"),
    ),
    "h_1e8": (
        ("0x1.d31f5a982e321p+9", "0x1.db28757eaac5dp+9"),
        ("0x1.d31f5a982e31ap+9", "0x1.db28757eaac6cp+9"),
    ),
}

def run_child(disabled):
    env = dict(os.environ, PYTHONPATH=str(Path(brun.__file__).parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(
    not __cpu_features__.get("X86_V4"), reason="numpy dispatches no AVX512 kernels here"
)
def test_pins_hold_with_avx512_dispatch_off():
    default, off = run_child(None), run_child(AVX512_OFF)
    assert default.pop("x86_v4") is True
    assert off.pop("x86_v4") is False
    for run in (default, off):
        assert run.keys() == PINS.keys() | MOVED.keys()
        assert {key: run[key] for key in PINS} == PINS
        for key, (pin, before) in MOVED.items():
            assert_pinned(Interval(*map(float.fromhex, run[key])), pin, before)
