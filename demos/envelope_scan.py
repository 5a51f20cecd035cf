#!/usr/bin/env python3
# Scan the divisor-sum error envelope that feeds the sieve constants.
#
# For a tuning exponent alpha the quantity scanned is
#
#     |E(x)| x^alpha,   E(x) = sum over n <= x of d(n)/n - A(x),
#
# with d the divisor count and A the smooth log-square model of the sum.
# Each prefix sum is an exact int64 sum of the terms floored to units of
# 2^-52; everything after it is float arithmetic with directed rounding.
# On [1, xmax] the scan bounds every unit interval [n, n+1) from its
# endpoint values; on (0, 1) the supremum is found analytically.  The
# certified maximum is what enters the bound constants; the argmax says
# where the worst case lives: below 1 for alpha 1/3 and 2/5, where the
# empty sum leaves E(x) = -A(x), and at x = 12 for alpha 9/20.

from fractions import Fraction

from brun.divisor_error import scan_c


def main():
    print("alpha    certified max of envelope        argmax")
    for alpha in (Fraction(1, 3), Fraction(2, 5), Fraction(9, 20)):
        scan = scan_c(alpha, 10**5)
        print(
            f"{str(alpha):>5}    [{scan.bound.lo:.6f}, {scan.bound.hi:.6f}]"
            f"    {scan.argmax:.6e}"
        )

    print()
    third = scan_c(Fraction(1, 3), 10**5)
    print(
        "note: at alpha=1/3 the certified lower end "
        f"{third.bound.lo:.4f} already exceeds 1.16, so any claimed "
        "envelope constant at or below 1.16 cannot hold"
    )


if __name__ == "__main__":
    main()
