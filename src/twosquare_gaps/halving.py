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
surviving n gives the certified interval.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DEFAULT_EFFORT, FactoredInteger, mod_inverse, prime_count, valuation
from .construction import (
    ORACLE_VALUE_LIMIT,
    Construction,
    CoveringCertificate,
    ElementCheck,
    richards_construction,
    verify_covering,
)
from .oracle import Member, NonMember, OddValuation, classify


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
    return FactoredInteger(
        factors=tuple((p, e) for p, e in c.modulus.factors if p <= threshold)
    )


def _max_odd_valuation(c: Construction, p: int) -> int:
    """Largest odd valuation of p in shift + j, 1 <= j <= y, pinned by the
    modulus (shift + j not 0 mod p^e); 0 if there is none.

    Only offsets with p | shift + j can have one, so the scan strides by p.
    """
    e = c.modulus.exponent(p)
    if p == 2 or e == 0:
        raise ValueError("p must be an odd prime of the modulus")
    pe = p**e
    rbase = c.shift % pe
    best = 0
    j = (-c.shift) % p or p
    while j <= c.y:
        r = (rbase + j) % pe
        if r:
            k = valuation(r, p)
            if k % 2 == 1 and k > best:
                best = k
        j += p
    return best


def has_odd_cover(c: Construction, p: int) -> bool:
    """Whether some offset j <= y sees an odd valuation of p in shift + j.

    True means the prime is still needed after halving.
    """
    return _max_odd_valuation(c, p) > 0


def _checked_delta(c: Construction, delta) -> tuple[Fraction, int]:
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if delta * c.y <= 2:
        raise ValueError("delta * y must exceed 2 so the 2-power part stays small")
    return delta, math.floor(delta * c.y)


def halved_modulus(c: Construction, delta) -> FactoredInteger:
    """Modulus with each odd prime at the exponent its covering needs.

    A prime p <= floor(delta*y) gets K + 1, K its largest pinned odd
    valuation (never more than its exponent in P, since K < e); a larger
    prime gets 1; a prime with no pinned odd valuation drops out; 2 keeps
    its exponent.
    """
    _, threshold = _checked_delta(c, delta)
    factors = []
    for p, e in c.modulus.factors:
        if p == 2:
            factors.append((p, e))
            continue
        k = _max_odd_valuation(c, p)
        if k:
            factors.append((p, k + 1 if p <= threshold else 1))
    return FactoredInteger(factors=tuple(factors))


def reduced_shift(c: Construction, halved: FactoredInteger) -> int:
    """Representative of shift mod value(halved) in (0, value(halved)]."""
    for p, e in halved.factors:
        if c.modulus.exponent(p) < e:
            raise ValueError("halved modulus must divide the construction modulus")
    v = halved.value()
    return c.shift % v or v


def exceptional_pairs(c: Construction, delta) -> list[tuple[int, int, int | None]]:
    """All (j, p, marked_n) with p a surviving large prime dividing a0 + j.

    Each pair disqualifies at most one interval index: the unique
    n = -((a0+j)/p) * (value/p)^-1 mod p, recorded when it lands in
    [0, floor(delta*y)] and None otherwise.
    """
    delta, threshold = _checked_delta(c, delta)
    halved = halved_modulus(c, delta)
    a0 = reduced_shift(c, halved)
    v = halved.value()
    pairs: list[tuple[int, int, int | None]] = []
    for p, e in halved.factors:
        if p <= threshold:
            continue
        assert e == 1
        cofactor_inv = mod_inverse(v // p, p)
        j = (-a0) % p or p
        while j <= c.y:
            t = (a0 + j) // p
            n = (-t * cofactor_inv) % p
            pairs.append((j, p, n if n <= threshold else None))
            j += p
    return pairs


def enumerate_bad_n(c: Construction, delta) -> frozenset[int]:
    return frozenset(n for _, _, n in exceptional_pairs(c, delta) if n is not None)


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
    report = verify_covering(c)
    if not report.ok:
        raise ValueError(
            f"construction is not covered: offset {report.first_uncovered}"
        )
    delta, threshold = _checked_delta(c, delta)
    halved = halved_modulus(c, delta)
    # primes <= threshold at the trimmed exponents the halved modulus keeps
    small = FactoredInteger(
        factors=tuple((p, e) for p, e in halved.factors if p <= threshold)
    )
    a0 = reduced_shift(c, halved)
    v = halved.value()
    degenerate = halved.factors == c.modulus.factors

    if degenerate:
        bad: frozenset[int] = frozenset()
        chosen = 0
    else:
        bad = enumerate_bad_n(c, delta)
        chosen = next((n for n in range(threshold + 1) if n not in bad), None)
        if chosen is None:
            raise NoGoodIntervalError(bad)

    base = a0 + chosen * v
    checks = []
    run_oracle_limit = None if deep_verify else ORACLE_VALUE_LIMIT
    for cert in report.certificates:
        element = base + cert.offset
        checks.append(
            _transferred_check(
                c, halved, threshold, cert, element, effort, run_oracle_limit, seed
            )
        )
    return HalvingResult(
        y=c.y,
        delta=delta,
        small_part=small,
        halved_modulus=halved,
        a0=a0,
        bad_n=bad,
        chosen_n=chosen,
        interval=(base + 1, base + c.y),
        certificates=tuple(checks),
        degenerate=degenerate,
    )


def _transferred_check(
    c: Construction,
    halved: FactoredInteger,
    threshold: int,
    cert: CoveringCertificate,
    element: int,
    effort: int,
    oracle_limit: int | None,
    seed: int,
) -> ElementCheck:
    nm = cert.certificate
    if isinstance(nm, OddValuation) and nm.p > threshold:
        # large prime: the halved modulus pins only one factor of p, so the
        # certificate becomes valuation exactly 1; confirm p*p does not
        # divide the element rather than trusting the bad-set bookkeeping
        if element % nm.p != 0 or element % (nm.p * nm.p) == 0:
            raise AssertionError(
                f"large-prime transfer failed at offset {cert.offset}"
            )
        nm = OddValuation(nm.p, 1)
    if not nm.holds_for(element):
        raise AssertionError(f"certificate does not hold at offset {cert.offset}")
    if oracle_limit is None or element <= oracle_limit:
        verdict = classify(element, effort=effort, seed=seed)
        if isinstance(verdict, Member):
            raise AssertionError(f"oracle found witness for certified {element}")
        status = "confirmed" if isinstance(verdict, NonMember) else "unknown"
    else:
        status = "skipped"
    return ElementCheck(
        offset=cert.offset, element=element, certificate=nm, oracle=status
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
        res = find_gap_interval(c, delta)
        ln_plain = math.log(c.shift + y)
        ln_halved = math.log(res.interval[1])
        e_plain = y / ln_plain
        e_halved = y / ln_halved
        rows.append((y, ln_plain, ln_halved, e_plain, e_halved, e_halved / e_plain))
    return rows


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


def halving_result_to_json(res: HalvingResult) -> str:
    cert_rows = []
    for chk in res.certificates:
        nm = chk.certificate
        if isinstance(nm, OddValuation):
            cert_rows.append([chk.offset, "odd", nm.p, nm.k])
        else:
            cert_rows.append([chk.offset, "two_power", 2, nm.k])
    obj = {
        "delta": str(res.delta),
        "halved_modulus": [[p, e] for p, e in res.halved_modulus.factors],
        "a0": str(res.a0),
        "bad_n": sorted(res.bad_n),
        "chosen_n": res.chosen_n,
        "interval": [str(res.interval[0]), str(res.interval[1])],
        "certificates": cert_rows,
    }
    return json.dumps(obj, indent=2) + "\n"
