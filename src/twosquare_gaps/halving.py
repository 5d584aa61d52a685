"""Exponent halving: shrink a covering modulus P to roughly sqrt(P) while
keeping a certified member-free interval.

Each odd prime p of P keeps only the exponent its covering valuations
need.  If no offset j <= y sees an odd valuation of p in shift + j that P
pins (shift + j is not 0 mod p^e), p drops out.  Otherwise let K be the
largest such valuation: a prime up to the cutoff delta*y (the small part)
keeps exponent K + 1, which pins every odd valuation k <= K exactly, and
a larger prime keeps exponent 1.  The prime 2 keeps its full exponent.
The shift is reduced modulo the new modulus, and the interval family
lo = 1 + a0 + n*value(halved) is screened for indices n where some
element would pick up a square factor of a large prime; the least
surviving n gives the certified interval.  Its elements carry the
covering certificates over: a small prime's valuation stays exact, a
large prime's becomes exactly 1.  The construction module's element
check re-checks each one on the element, and cross-checks it with the
oracle when the element itself is at most 10^18 (a per-element budget).

find_gap_interval runs the construction module's covering walk once and
takes the certificates and each prime's largest pinned odd valuation
from it; the screen walks the halved modulus's large primes the same
way (offsets j = -shift mod p only).  One private helper derives the
plan (checked delta, cutoff, halved modulus, reduced shift) for every
entry point.  A construction the halving leaves unchanged (degenerate)
needs no special case: a modulus prime at exponent 1 pins nothing and
drops out, and a large prime keeps exponent 1, so an unchanged modulus
has no prime above the cutoff, an empty bad set and interval index 0.
The construction module writes the halving document beside its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DEFAULT_EFFORT, FactoredInteger, mod_inverse, prime_count
from .construction import (
    ORACLE_VALUE_LIMIT,
    Construction,
    ElementCheck,
    _check_element,
    _covered_walk,
    _covering_walk,
    _offset_residues,
    halving_result_to_json,
    richards_construction,
)
from .oracle import OddValuation


class NoGoodIntervalError(RuntimeError):
    """Every candidate interval index was disqualified."""

    def __init__(self, bad_n: frozenset[int]):
        self.bad_n = bad_n
        super().__init__(f"all interval indices are bad: {sorted(bad_n)}")


@dataclass(frozen=True)
class HalvingResult:
    y: int
    delta: Fraction
    small_part: FactoredInteger
    halved_modulus: FactoredInteger
    a0: int
    bad_n: frozenset[int]
    chosen_n: int
    interval: tuple[int, int]
    certificates: tuple[ElementCheck, ...]
    degenerate: bool


def small_part(c: Construction, threshold: int) -> FactoredInteger:
    """Sub-product of the modulus over primes <= threshold, exponents kept."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return FactoredInteger._trusted(
        tuple((p, e) for p, e in c.modulus.factors if p <= threshold)
    )


def has_odd_cover(c: Construction, p: int) -> bool:
    """Whether some offset j <= y sees an odd valuation of p in shift + j.

    True means the prime is still needed after halving.
    """
    e = c.modulus.exponent(p)
    if p == 2 or not e:
        raise ValueError("p must be an odd prime of the modulus")
    # the covering walk of p^e alone; c has validated p and the shift
    alone = FactoredInteger._trusted(((p, e),))
    return _covering_walk(alone, c.shift, 1, c.y)[1][p] > 0


def halved_modulus(c: Construction, delta) -> FactoredInteger:
    """Modulus with each odd prime at the exponent its covering needs.

    A prime p <= floor(delta*y) gets K + 1, K its largest pinned odd
    valuation (never more than its exponent in P, since K < e); a larger
    prime gets 1; a prime with no pinned odd valuation drops out; 2 keeps
    its exponent.
    """
    return _halved(c, _covering_walk(c.modulus, c.shift, 1, c.y)[1], delta)[2]


def _halved(
    c: Construction, pinned: dict[int, int], delta
) -> tuple[Fraction, int, FactoredInteger, int]:
    # the halving plan from the covering walk's pinned valuations: checked
    # delta, threshold floor(delta*y), halved modulus and reduced shift a0
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if delta * c.y <= 2:
        raise ValueError("delta * y must exceed 2 so the 2-power part stays small")
    threshold = math.floor(delta * c.y)
    factors = []
    for p, e in c.modulus.factors:
        if p == 2:
            factors.append((p, e))
        elif pinned[p]:
            factors.append((p, pinned[p] + 1 if p <= threshold else 1))
    halved = FactoredInteger._trusted(tuple(factors))
    v = halved.value()
    return delta, threshold, halved, c.shift % v or v


def reduced_shift(c: Construction, halved: FactoredInteger) -> int:
    """Representative of shift mod value(halved) in (0, value(halved)]."""
    full = dict(c.modulus.factors)
    for p, e in halved.factors:
        if full.get(p, 0) < e:
            raise ValueError("halved modulus must divide the construction modulus")
    v = halved.value()
    return c.shift % v or v


def _exceptional_pairs(
    y: int, halved: FactoredInteger, a0: int, threshold: int
) -> list[tuple[int, int, int | None]]:
    # exceptional_pairs on a halved modulus and reduced shift already built
    v = halved.value()
    pairs: list[tuple[int, int, int | None]] = []
    for p, e in halved.factors:
        if p <= threshold:
            continue
        if e != 1:
            raise AssertionError(f"large prime {p} has exponent {e}, not 1")
        pp = p * p
        # (value/p) mod p and ((a0 + j)/p) mod p, read off residues mod p^2
        cofactor_inv = mod_inverse(v % pp // p, p)
        for j, r in _offset_residues(a0, 1, y, p, pp):
            n = (-(r // p) * cofactor_inv) % p
            pairs.append((j, p, n if n <= threshold else None))
    return pairs


def _bad_set(pairs: list[tuple[int, int, int | None]]) -> frozenset[int]:
    return frozenset(n for _, _, n in pairs if n is not None)


def exceptional_pairs(c: Construction, delta) -> list[tuple[int, int, int | None]]:
    """All (j, p, marked_n) with p a surviving large prime dividing a0 + j.

    Each pair disqualifies at most one interval index: the unique
    n = -((a0+j)/p) * (value/p)^-1 mod p, recorded when it lands in
    [0, floor(delta*y)] and None otherwise.
    """
    pinned = _covering_walk(c.modulus, c.shift, 1, c.y)[1]
    _, threshold, halved, a0 = _halved(c, pinned, delta)
    return _exceptional_pairs(c.y, halved, a0, threshold)


def enumerate_bad_n(c: Construction, delta) -> frozenset[int]:
    return _bad_set(exceptional_pairs(c, delta))


def find_gap_interval(
    c: Construction,
    delta=Fraction(1, 2),
    effort: int = DEFAULT_EFFORT,
    deep_verify: bool = False,
    seed: int = 0,
) -> HalvingResult:
    """Run the whole pipeline on a covered construction.

    Picks the least good interval index, transfers or rebuilds a
    certificate for each of the y elements, and cross-checks elements
    with the factorization oracle when they fit the value budget
    (deep_verify lifts the budget).  Raises NoGoodIntervalError when the
    bad set swallows every index, and ValueError if c is not covered.
    """
    table, pinned = _covered_walk(c)
    delta, threshold, halved, a0 = _halved(c, pinned, delta)
    bad = _bad_set(_exceptional_pairs(c.y, halved, a0, threshold))
    chosen = next((n for n in range(threshold + 1) if n not in bad), None)
    if chosen is None:
        raise NoGoodIntervalError(bad)

    base = a0 + chosen * halved.value()
    checks = []
    for j, nm in enumerate(table, 1):
        if isinstance(nm, OddValuation) and nm.p > threshold and nm.k > 1:
            # large prime: the halved modulus pins one factor of p, so k >= 3
            # becomes exactly 1 and the walk's shared k = 1 stays; the element
            # check confirms p*p does not divide the element rather than
            # trusting the bad-set bookkeeping; Construction has validated p
            nm = OddValuation._trusted(nm.p, 1)
        element = base + j
        run_oracle = deep_verify or element <= ORACLE_VALUE_LIMIT
        checks.append(_check_element(j, element, nm, run_oracle, effort, seed))
    return HalvingResult(
        y=c.y,
        delta=delta,
        # primes <= threshold at the trimmed exponents the halved modulus keeps
        small_part=FactoredInteger._trusted(
            tuple((p, e) for p, e in halved.factors if p <= threshold)
        ),
        halved_modulus=halved,
        a0=a0,
        bad_n=bad,
        chosen_n=chosen,
        interval=(base + 1, base + c.y),
        certificates=tuple(checks),
        degenerate=halved.factors == c.modulus.factors,
    )


def efficiency_report(ys: list[int], delta=Fraction(1, 2)) -> list[tuple]:
    """Rows (y, ln_plain, ln_halved, e_plain, e_halved, ratio).

    e_plain = y / ln(a + y) for the plain construction, e_halved uses the
    top of the chosen halved interval; ratio is their quotient (the
    halving payoff, approaching 2 from below as the small part thins out).
    """
    rows = []
    for y in ys:
        c = richards_construction(y)
        rows.append(efficiency_row(c, find_gap_interval(c, delta)))
    return rows


def efficiency_row(c: Construction, res: HalvingResult) -> tuple:
    """The efficiency_report row of a construction and its halving result."""
    ln_plain = math.log(c.shift + c.y)
    ln_halved = math.log(res.interval[1])
    e_plain = c.y / ln_plain
    e_halved = c.y / ln_halved
    return (c.y, ln_plain, ln_halved, e_plain, e_halved, e_halved / e_plain)


def small_prime_contribution(c: Construction, eps, check_bound: bool = True) -> float:
    """Share of ln(modulus) carried by primes <= eps*y.

    With check_bound (meant for moduli built by richards_construction) the
    analytic cap ln(small part) <= 2 pi(eps*y) ln(16 y) is asserted.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    threshold = math.floor(eps * c.y)
    part = small_part(c, threshold)
    num = part.log()
    den = c.modulus.log()
    if check_bound:
        cap = 2 * prime_count(threshold) * math.log(16 * c.y)
        if num > cap + 1e-9:
            raise AssertionError("small part exceeds its analytic cap")
    return num / den if den else 0.0
