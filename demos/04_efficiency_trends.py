"""
How much does halving buy?
==========================

Efficiency here is Y / ln(last interval element): how long an excluded
interval you get per unit of log-height.  The plain construction tends
toward 1/4: every prime p = 3 (mod 4) up to 4Y pins an offset, so
ln(modulus) is about 4Y.  Halving keeps the primes up to delta * Y at
exponent 2 (one more than the valuation they pin) and the rest at 1, so
the halved modulus has log about (2 + delta/2) Y and the ratio tends to
8 / (4 + delta), not 2: 16/9 = 1.778 at delta = 1/2.  It nears 2 only
as delta falls, and the bad set then limits how far delta can fall at a
given Y.
"""

import math
from fractions import Fraction

from twosquare_gaps import (
    GAP_RATE_HALVED,
    GAP_RATE_PLAIN,
    NoGoodIntervalError,
    efficiency_report,
    modulus_growth,
    richards_construction,
    small_prime_contribution,
)

print("efficiency at delta = 1/2")
print(f"{'Y':>4} {'ln(plain)':>10} {'ln(halved)':>11} "
      f"{'e_plain':>8} {'e_halved':>9} {'ratio':>7}")
for y, ln_p, ln_h, e_p, e_h, ratio in efficiency_report([10, 20, 50, 100]):
    print(f"{y:>4} {ln_p:>10.2f} {ln_h:>11.2f} "
          f"{e_p:>8.4f} {e_h:>9.4f} {ratio:>7.4f}")

# A delta sweep at one Y, beside the limit 8 / (4 + delta).
print()
print("ratio at Y = 1000 by delta:")
for delta in [Fraction(1, 2**k) for k in range(1, 6)]:
    limit = float(8 / (4 + delta))
    try:
        (row,) = efficiency_report([1000], delta)
        print(f"  delta = {str(delta):>4}: {row[5]:.4f}  (limit {limit:.4f})")
    except NoGoodIntervalError as exc:
        print(f"  delta = {str(delta):>4}: no good interval index, "
              f"{len(exc.bad_n)} bad  (limit {limit:.4f})")

# The small primes keep exponent 2 after halving; their share of
# ln(modulus) tends to delta/4 and does not thin out as Y grows.
print()
print("small-prime share of ln(modulus), eps = 1/2:")
for y in [10, 20, 50, 100, 200, 500]:
    share = small_prime_contribution(richards_construction(y), 0.5)
    print(f"  Y = {y:>3}: {share:.4f}")

# ln(modulus)/Y hovers around 4: the modulus costs about e**(4Y) to
# exclude Y integers, which is where the asymptotic rates below come
# from.
print()
print("modulus growth ln(value)/Y:")
for y in [50, 100, 200, 300, 400, 500]:
    print(f"  Y = {y:>3}: {modulus_growth(y):.4f}")

print()
print("asymptotic gap rates (gap >= rate * ln X along the construction):")
print(f"  plain:  {GAP_RATE_PLAIN} = {float(GAP_RATE_PLAIN):.6f}")
print(f"  halved: {GAP_RATE_HALVED} = {float(GAP_RATE_HALVED):.6f}")
print(f"  ratio of rates: {float(GAP_RATE_HALVED / GAP_RATE_PLAIN)}")

# The rates translate into a guaranteed gap floor at height X: somewhere
# below X there is a member-free stretch of about rate * ln X integers.
# A record scan (demo 01) finds much larger gaps at small X, but those
# come with no guarantee of continuing.
print()
print("guaranteed gap floor near X = 1e12:",
      round(math.log(1e12) * float(GAP_RATE_HALVED), 2))
