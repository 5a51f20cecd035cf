#!/usr/bin/env python3
"""Adaptive quadrature work vs. requested certificate width.

The correction integral behind the upper bound runs from log(4e18) to
the default cutoff u = 20000 (``DEFAULT_CUTOFF_U``) in log coordinates.
The adaptive integrator splits whichever piece currently contributes
the most width, so cost concentrates near the left endpoint where the
integrand still moves.  This prints the piece count and achieved width
for a range of targets, then shows the rule's order: F's chords miss it
by O(h^2) on a piece of length h, so halving a piece shrinks its width
bracket by roughly a factor of eight.
"""

import math
import time

from brun.rv_bound import (
    DEFAULT_CUTOFF_U,
    correction_piece,
    derive_params,
    integrate_adaptive,
)


def main():
    params = derive_params()
    u0 = math.log(4e18)

    print(f"{'target':>8}  {'pieces':>7}  {'achieved width':>14}  {'secs':>6}")
    for target in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        started = time.monotonic()
        # a fresh rule per target: one rule remembers every F it evaluated
        result = integrate_adaptive(
            correction_piece(params), u0, DEFAULT_CUTOFF_U, width_target=target
        )
        elapsed = time.monotonic() - started
        print(
            f"{target:>8.0e}  {result.pieces:>7}  "
            f"{result.achieved_width:>14.3e}  {elapsed:>6.2f}"
        )

    print()
    print("single-piece widths over [43, 43+h], h halving:")
    piece = correction_piece(params)
    h = 2.0
    while h > 0.12:
        iv = piece(43.0, 43.0 + h)
        print(f"  h={h:>5.3f}  width={iv.width:.6e}")
        h /= 2.0


if __name__ == "__main__":
    main()
