#!/usr/bin/env python3
"""Assemble a certified upper bound for the twin-pair sum, piece by piece.

The bound splits the series at a threshold x0:

    B  <=  (censused sum below x0)  -  2 pi2(x0)/x0
           + integral of the counting bound over log x in [log x0, cutoff]
           + counting-bound tail above the cutoff
           + square-root error tail

Stage one runs a fresh census at a small threshold anyone can sieve in
seconds, so every input is computed on the spot.  Stage two reuses the
published count at 4e18 together with a table-derived enclosure of the
partial sum to reproduce the headline bound.
"""

import argparse

from brun.interval import Interval
from brun.rv_bound import brun_upper
from brun.sieve import census


def describe(cert):
    print(f"  threshold x0          {cert.x0:.3e}")
    print(f"  twin pairs at x0      {cert.pi2_x0}")
    print(
        "  censused partial sum  "
        f"[{cert.brun_partial_x0.lo:.12f}, {cert.brun_partial_x0.hi:.12f}]"
    )
    print(f"  pair term 2*pi2/x0    [{cert.pair_term.lo:.6e}, {cert.pair_term.hi:.6e}]")
    print(
        f"  integral to u={cert.cutoff_u:g}   "
        f"[{cert.integral.lo:.9f}, {cert.integral.hi:.9f}]"
        f"  ({cert.quad_pieces} pieces)"
    )
    print(f"  tail beyond cutoff    {cert.tail_bound.hi:.6e} (before 16C scaling)")
    print(f"  sqrt error term       {cert.sqrt_tail.hi:.6e}")
    print(f"  certified             {cert.lower:.9f} <= B <= {cert.upper:.9f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--limit",
        type=int,
        default=10**8,
        help="census threshold for the self-contained stage (default 1e8)",
    )
    args = parser.parse_args()

    print(f"stage 1: self-contained, census to {args.limit:.0e}")
    counted = census(args.limit)
    cert = brun_upper(args.limit, counted.pi2, counted.brun_partial)
    describe(cert)

    print()
    print("stage 2: published census count at 4e18")
    cert = brun_upper(
        4 * 10**18, 3023463123235320, Interval(1.840503, 1.840518)
    )
    describe(cert)
    print()
    print(
        "the split threshold does the heavy lifting: pushing x0 from "
        f"{args.limit:.0e} to 4e18 sharpens the bound by the amount shown above"
    )


if __name__ == "__main__":
    main()
