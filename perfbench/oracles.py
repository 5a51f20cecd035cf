"""Reference values and checks for every operation the benchmark runs.

Each check returns a list of problems; an empty list means the output is
right.  References are exact or independent of the package: published
counts, a pure-Python sieve with an exact rational sum, 50-digit decimal
sums with directed rounding, and the enclosures the seed commit produced.
"""

from __future__ import annotations

import json
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

PI2_1E9 = 3_424_506
PI_1E8 = 5_761_455
PI2_1E6 = 8_169
PI2_4E18 = 3_023_463_123_235_320

# brun_partial at 1e9 as the seed commit certifies it; later enclosures
# must nest inside it
SEED_CENSUS_1E9 = (float.fromhex("0x1.c655187dd36ffp+0"), float.fromhex("0x1.c65518845b8f4p+0"))

# 2 C2, the twin prime constant in brun's normalisation, truncated at 28
# places: the true value lies in [TWO_C2_LO, TWO_C2_LO + 1e-28]
TWO_C2_LO = Decimal("1.3203236316937391478556242200")
TWO_C2_HI = Decimal("1.3203236316937391478556242201")

# DEFAULT_SCAN_BOUND in brun.rv_bound: the certified scan must lie inside
SCAN_WINDOW = (Decimal("1.0502"), Decimal("1.0503"))
# DEFAULT_H_LOG in brun.rv_bound: a sound log H bound must meet it
H_LOG_WINDOW = (Decimal("6.8509190276"), Decimal("6.8565069"))
# acceptance 01's window for the paper's numeric path
CERTIFY_WINDOW = (Decimal("2.2880"), Decimal("2.288514"))
# the CLI's default base enclosure of the partial sum at 1e12
BASE_ENCLOSURE = (Decimal("1.8065924"), Decimal("1.8065925"))

# widths and upper ends the seed commit reaches; a later commit may
# tighten them but not loosen them (a few ulps of slack absorb libm
# differences between machines)
SEED_LOOSENESS = {
    "certify_upper": float.fromhex("0x1.24edfc76b7a86p+1"),
    "certify_tables_upper": float.fromhex("0x1.24e2a83f6801ep+1"),
    "chain_width": 0.0025550893281414133,
    "scan_c_upper": float.fromhex("0x1.0cdf981d81d92p+0"),
    "h_log_width": 0.017056002729280983,
    "twin_c_width": 7.721512318425994e-10,
}
_SLACK_ULPS = 64


def endpoints(iv_json: dict) -> tuple:
    """(lo, hi) doubles of a CLI interval, from its exact hex fields."""
    return float.fromhex(iv_json["lo_hex"]), float.fromhex(iv_json["hi_hex"])


def no_looser(name: str, value: float, scale: float = 2.0) -> list:
    limit = SEED_LOOSENESS[name] + _SLACK_ULPS * math.ulp(scale)
    return [] if value <= limit else [f"{name} {value!r} looser than the seed's {SEED_LOOSENESS[name]!r}"]


def contains(lo: float, hi: float, ref_lo: Decimal, ref_hi: Decimal, what: str) -> list:
    if Decimal(lo) <= ref_lo and ref_hi <= Decimal(hi):
        return []
    return [f"{what} [{lo!r}, {hi!r}] misses [{ref_lo}, {ref_hi}]"]


# ---------------------------------------------------------------------
# census-1e9


def check_census_artifact(text: str) -> tuple:
    """Problems in a `brun census --limit 1e9` artifact, and its width."""
    doc = json.loads(text)
    lo, hi = endpoints(doc["brun_partial"])
    problems = []
    if doc["pi2"] != PI2_1E9:
        problems.append(f"pi2(1e9) = {doc['pi2']}, expected {PI2_1E9}")
    if not SEED_CENSUS_1E9[0] <= lo <= hi <= SEED_CENSUS_1E9[1]:
        problems.append(f"census enclosure [{lo!r}, {hi!r}] not nested in the seed's")
    return problems, hi - lo


def _sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def _rational_sum(fracs: list) -> tuple:
    """Exact sum of (num, den) pairs by binary splitting, unreduced."""
    while len(fracs) > 1:
        nxt = [
            (a * d + c * b, b * d) for (a, b), (c, d) in zip(fracs[::2], fracs[1::2])
        ]
        if len(fracs) % 2:
            nxt.append(fracs[-1])
        fracs = nxt
    return fracs[0]


def check_small_census(result) -> list:
    """census(10**6) must count 8169 pairs and enclose their exact sum."""
    flags = _sieve(10**6 + 2)
    pairs = [p for p in range(3, 10**6 + 1) if flags[p] and flags[p + 2]]
    problems = []
    if len(pairs) != PI2_1E6 or result.pi2 != PI2_1E6:
        problems.append(f"pi2(1e6): census {result.pi2}, reference {len(pairs)}, expected {PI2_1E6}")
    num, den = _rational_sum([(2 * p + 2, p * (p + 2)) for p in pairs])
    lo_n, lo_d = result.brun_partial.lo.as_integer_ratio()
    hi_n, hi_d = result.brun_partial.hi.as_integer_ratio()
    if not (lo_n * den <= num * lo_d and num * hi_d <= hi_n * den):
        problems.append("census(1e6) enclosure misses the exact rational sum")
    return problems


# ---------------------------------------------------------------------
# certify-tables


def chain_reference(table: list, base_k: int = 1, unit: int = 10**12) -> tuple:
    """Directed 50-digit enclosure of the chained partial sum at the last row.

    Each gap (t1, t2] with delta pairs adds between 2 delta/(t2+2) and
    2 delta/t1; the lower series is summed rounding down, the upper one
    rounding up, on top of the CLI's default base enclosure at 1e12.
    """
    down = Context(prec=50, rounding=ROUND_FLOOR)
    up = Context(prec=50, rounding=ROUND_CEILING)
    lo, hi = BASE_ENCLOSURE
    chain = [(k * unit, pi2) for k, pi2 in table if k >= base_k]
    for (t1, c1), (t2, c2) in zip(chain, chain[1:]):
        two_delta = 2 * (c2 - c1)
        lo = down.add(lo, down.divide(two_delta, t2 + 2))
        hi = up.add(hi, up.divide(two_delta, t1))
    return lo, hi


def check_certify_tables(text: str, reference: tuple) -> tuple:
    doc = json.loads(text)
    lo, hi = endpoints(doc["inputs"]["brun_partial_x0"])
    upper = float.fromhex(doc["result"]["upper_hex"])
    problems = contains(lo, hi, reference[0], reference[1], "chained partial sum")
    if doc["inputs"]["pi2_x0"] != PI2_4E18:
        problems.append(f"pi2(4e18) = {doc['inputs']['pi2_x0']}, expected {PI2_4E18}")
    if not Decimal(upper) >= reference[1]:
        problems.append(f"certified upper {upper!r} below the chained partial sum")
    problems += no_looser("chain_width", hi - lo)
    problems += no_looser("certify_tables_upper", upper)
    return problems, {"chain_width": hi - lo, "certify_tables_upper": upper}


def check_certify_numeric(text: str) -> tuple:
    doc = json.loads(text)
    upper = float.fromhex(doc["result"]["upper_hex"])
    lower = float.fromhex(doc["result"]["lower_hex"])
    problems = []
    if not CERTIFY_WINDOW[0] <= Decimal(upper) <= CERTIFY_WINDOW[1]:
        problems.append(f"certified upper {upper!r} outside {CERTIFY_WINDOW}")
    if not Decimal("1.840503") - Decimal("1e-12") <= Decimal(lower) <= Decimal("1.840503"):
        problems.append(f"certified lower {lower!r} is not 1.840503 rounded down")
    problems += no_looser("certify_upper", upper)
    return problems, {"certify_upper": upper}


# ---------------------------------------------------------------------
# constants


def check_scan(text: str) -> tuple:
    doc = json.loads(text)
    lo, hi = endpoints(doc["bound"])
    problems = []
    if not SCAN_WINDOW[0] <= Decimal(lo) <= Decimal(hi) <= SCAN_WINDOW[1]:
        problems.append(f"scan bound [{lo!r}, {hi!r}] outside DEFAULT_SCAN_BOUND")
    problems += no_looser("scan_c_upper", hi)
    return problems, {"scan_c_upper": hi}


def check_h_bound(text: str) -> tuple:
    doc = json.loads(text)
    lo, hi = endpoints(doc["log_bound"])
    problems = []
    if doc["pi_cutoff"] != PI_1E8:
        problems.append(f"pi(1e8) = {doc['pi_cutoff']}, expected {PI_1E8}")
    if Decimal(hi) < H_LOG_WINDOW[0] or Decimal(lo) > H_LOG_WINDOW[1]:
        problems.append(f"log H bound [{lo!r}, {hi!r}] misses DEFAULT_H_LOG")
    problems += no_looser("h_log_width", hi - lo, scale=8.0)
    return problems, {"h_log_width": hi - lo}


def check_twin_constant(iv) -> tuple:
    problems = contains(iv.lo, iv.hi, TWO_C2_LO, TWO_C2_HI, "twin_constant(1e8)")
    problems += no_looser("twin_c_width", iv.hi - iv.lo)
    return problems, {"twin_c_width": iv.hi - iv.lo}
