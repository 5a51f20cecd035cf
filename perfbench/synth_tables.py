"""Seeded synthetic census-table directory for the certify-tables workload.

The rows are a timing input, not census data: a certificate built from
them says nothing about Brun's constant.  Only the two end rows are real,
pinned to the published pi2(1e12) and pi2(4e18), so the chain starts on
the CLI's default base row and ends at x0 = 4e18.

The merged table does not depend on the seed.  Thresholds and counts are
fixed, and counts are integers interpolated between anchors computed with
correctly rounded ``decimal`` logarithms, so every machine writes the same
rows.  The seed only changes the layout: how many files, which rows go to
which file, the line order inside a file, the rows duplicated across
files, and which rows carry the optional prediction column.  Parsing and
merging see a different layout per seed; the chain, and every width
derived from it, repeats exactly.
"""

from __future__ import annotations

import random
from decimal import Context, Decimal
from pathlib import Path

UNIT_EXP = 12  # rows are labelled <k>d12
K_FIRST = 1
K_LAST = 4_000_000
PI2_FIRST = 37_607_912_018  # pi2(1e12)
PI2_LAST = 3_023_463_123_235_320  # pi2(4e18)
N_LINEAR = 60_000  # k = 1 .. N_LINEAR in unit steps, then geometric
GEO_DIVISOR = 9_500  # about 4e4 geometric rows, 1e5 rows in all
N_ANCHORS = 400
DUPLICATE_SHARE = 0.01

_CTX = Context(prec=40)
_TWO_C2 = Decimal("1.3203236316937391478556242200")


def thresholds() -> list:
    """Strictly increasing k with rows at k * 10**12, k from 1 to 4e6.

    Unit steps up to N_LINEAR, then steps of k // GEO_DIVISOR; integer
    arithmetic only, so the grid is the same on every machine.
    """
    ks = list(range(K_FIRST, N_LINEAR + 1))
    while ks[-1] < K_LAST:
        ks.append(min(K_LAST, ks[-1] + max(1, ks[-1] // GEO_DIVISOR)))
    return ks


def _model(k: int) -> Decimal:
    """2 C2 x / log^2 x (1 + 2/log x + 6/log^2 x) at x = k * 10**12."""
    x = Decimal(k) * Decimal(10) ** UNIT_EXP
    lg = _CTX.ln(x)
    inv = _CTX.divide(1, lg)
    return _CTX.multiply(_CTX.multiply(_TWO_C2, x), inv * inv * (1 + 2 * inv + 6 * inv * inv))


def counts(ks: list) -> list:
    """Integer counts at ``ks``: the model mapped onto the two pinned ends,
    interpolated linearly between anchors, forced strictly increasing."""
    step = max(1, len(ks) // N_ANCHORS)
    anchor_idx = list(range(0, len(ks), step))
    if anchor_idx[-1] != len(ks) - 1:
        anchor_idx.append(len(ks) - 1)
    m_first, m_last = _model(ks[0]), _model(ks[-1])
    scale = _CTX.divide(PI2_LAST - PI2_FIRST, m_last - m_first)
    anchor_val = {
        i: PI2_FIRST + int(_CTX.multiply(_model(ks[i]) - m_first, scale))
        for i in anchor_idx
    }
    anchor_val[0] = PI2_FIRST
    anchor_val[len(ks) - 1] = PI2_LAST
    out = []
    for a, b in zip(anchor_idx, anchor_idx[1:]):
        ka, kb, ca, cb = ks[a], ks[b], anchor_val[a], anchor_val[b]
        for i in range(a, b):
            out.append(ca + (cb - ca) * (ks[i] - ka) // (kb - ka))
    out.append(PI2_LAST)
    for i in range(1, len(out)):
        out[i] = max(out[i], out[i - 1] + 1)
    if out[-1] != PI2_LAST:
        raise ValueError("synthetic counts overran the pinned last row")
    return out


def rows() -> list:
    """The merged table as (k, pi2) pairs, identical for every seed."""
    ks = thresholds()
    return list(zip(ks, counts(ks)))


def write_tables(directory: Path, seed: int) -> dict:
    """Write the seeded layout of ``rows()`` under ``directory``; return
    what was written."""
    table = rows()
    rng = random.Random(seed)
    n_files = rng.randint(6, 12)
    files = [[] for _ in range(n_files)]
    for k, pi2 in table:
        fi = rng.randrange(n_files)
        line = f"{k}d{UNIT_EXP}  {pi2}"
        if rng.random() < 0.5:
            line += f"  {pi2 * (1 + (rng.random() - 0.5) * 1e-4):.3f}"
        files[fi].append(line)
        if rng.random() < DUPLICATE_SHARE:
            files[(fi + 1 + rng.randrange(n_files - 1)) % n_files].append(f"{k}d{UNIT_EXP}  {pi2}")
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob("*.txt"):
        old.unlink()
    written = 0
    for i, lines in enumerate(files):
        rng.shuffle(lines)
        text = "# synthetic census rows: a timing input, not census data\n" + "\n".join(lines) + "\n"
        path = directory / f"part{i:02d}.txt"
        path.write_text(text)
        written += len(text)
    return {
        "seed": seed,
        "rows": len(table),
        "lines": sum(len(lines) for lines in files),
        "files": n_files,
        "bytes": written,
    }
