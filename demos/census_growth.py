#!/usr/bin/env python3
"""Watch the twin-pair reciprocal sum crawl toward its limit.

Counts twin pairs up to increasing thresholds and prints the certified
enclosure of sum(1/p + 1/(p+2)) at each stage.  The series converges
painfully slowly: squaring the threshold moves the sum by roughly the
same small increment every time, which is why certified bounds need the
sieve-theoretic tail machinery instead of raw summation.

The last block repeats one census on one and on two worker processes,
which sieve the segments in different shards, to show the enclosure is
bit-identical regardless of how the work is split.
"""

import time

from brun.sieve import census


def main():
    print(f"{'limit':>12}  {'pairs':>9}  {'partial sum enclosure':>41}  {'secs':>6}")
    for exponent in range(4, 9):
        limit = 10**exponent
        started = time.monotonic()
        result = census(limit)
        elapsed = time.monotonic() - started
        iv = result.brun_partial
        print(
            f"{limit:>12}  {result.pi2:>9}  "
            f"[{iv.lo:.15f}, {iv.hi:.15f}]  {elapsed:>6.2f}"
        )

    print()
    print("partition independence at 10^8:")
    for threads in (1, 2):
        result = census(10**8, threads=threads)
        print(
            f"  threads={threads}  pi2={result.pi2}  "
            f"lo={result.brun_partial.lo.hex()}  hi={result.brun_partial.hi.hex()}"
        )


if __name__ == "__main__":
    main()
