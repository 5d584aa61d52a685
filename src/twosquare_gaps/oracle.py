"""Membership oracle for sums of two squares.

An integer n >= 1 is a sum of two squares exactly when every prime
p = 3 (mod 4) divides n to an even power.  This module decides
membership three independent ways:

* classify()            factorization route, produces a witness or a
                        non-membership certificate.  The primes below
                        2**16 are screened first (by one uint64
                        multiply-by-inverse pass below 2**64, by run
                        gcds above); when one
                        p = 3 (mod 4) among them sits at odd valuation,
                        classify answers without running rho.
* membership_sieve()    parity sieve over a window: odd part 3 mod 4, or
                        some p = 3 (mod 4) up to sqrt(hi) at odd power;
                        2, 3 and 7 start from a periodic tile, and the
                        primes that hit the window at most 64 times
                        share one chunked vector pass
* certify_non_membership()  certificate search against a caller-supplied
                        prime list, no factorization

Keeping the routes separate is deliberate: tests cross-check them
against each other.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    DEFAULT_EFFORT,
    CapacityError,
    _large_factors,
    _prime_array,
    _small_factors,
    is_prime,
    valuation,
)

_SIEVE_WIDTH_CAP = 1 << 26
# bounds the sieve's prime table: primes up to 2**25, ~0.2 s and ~50 MB
_SIEVE_VALUE_CAP = 1 << 50
_SIEVE_PRIME_BOUND = math.isqrt(_SIEVE_VALUE_CAP)
# membership_sieve's vector pass takes every prime with at most
# _FEW_HITS hits in the window, in chunks of about _CHUNK_ENTRIES
# (prime, hit) entries.  Timed from 1e9 to 2**50: 64 was as fast as any
# H in 16..256 at every height (256 slower at 2**28), and chunks of 2**16
# keep the traced peak near 5 bytes per window entry (2**18: 6.9)
_FEW_HITS = 64
_CHUNK_ENTRIES = 1 << 16


@lru_cache(maxsize=4096)
def _checked_cert_prime(p: int) -> None:
    if p % 4 != 3:
        raise ValueError(f"{p} is not 3 mod 4")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class OddValuation:
    """Certificate: v_p(n) == k with k odd and p prime, p = 3 (mod 4).

    Any such n is not a sum of two squares.  Like TwoPowerForm, the claim
    is a residue test: it holds on n >= 1 iff holds_mod(n % modulus()),
    the one test that holds_for and the element stream both run.
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be a positive odd integer")
        _checked_cert_prime(self.p)

    @classmethod
    def _trusted(cls, p: int, k: int) -> OddValuation:
        # for p = 3 (mod 4) already known prime and odd k >= 1: found by the
        # library's own factorization, a prime of a validated construction
        # modulus, or a prime certify_non_membership has just checked
        obj = object.__new__(cls)
        # the fields straight into __dict__, past the frozen __setattr__
        fields = obj.__dict__
        fields["p"], fields["k"] = p, k
        return obj

    def modulus(self) -> int:
        return self.p ** (self.k + 1)

    def holds_mod(self, r: int) -> bool:
        # v_p(n) == k for n >= 1 with r = n mod p^(k+1): r is nonzero iff
        # p^(k+1) does not divide n, and p^k divides r iff it divides n
        return r != 0 and r % self.p**self.k == 0

    def holds_for(self, n: int) -> bool:
        return n >= 1 and self.holds_mod(n % self.modulus())


@dataclass(frozen=True)
class TwoPowerForm:
    """Certificate: n = 2**k * m with m = 3 (mod 4).

    The odd part being 3 mod 4 forces an odd total count of prime factors
    3 mod 4, hence some single prime to an odd power, so n is not a sum
    of two squares.  k = 0 is allowed (n itself odd and 3 mod 4).
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be >= 0")

    def modulus(self) -> int:
        return 4 << self.k

    def holds_mod(self, r: int) -> bool:
        # n = 2^k * m with m = 3 (mod 4) iff n = 3 * 2^k (mod 2^(k+2)),
        # for n >= 1 with r = n mod 2^(k+2)
        return r == 3 << self.k

    def holds_for(self, n: int) -> bool:
        return n >= 1 and self.holds_mod(n % self.modulus())


def _two_power_form(n: int) -> TwoPowerForm | None:
    # the two-power certificate of n >= 1, if its odd part is 3 mod 4
    k = valuation(n, 2)
    return TwoPowerForm(k) if (n >> k) % 4 == 3 else None


def _two_power_hits(
    x: int, width: int, k0: int, cap: int
) -> Iterator[tuple[int, int, int]]:
    # range(first, width, step) are the i with x + i = 3 * 2**k (mod 4 * 2**k),
    # k0 <= k <= cap - 2; strided while 4 * 2**k < width, then i by i mod 2**cap
    for k in range(k0, cap - 1):
        if 4 << k >= width:
            for i in range(-x & ((1 << k) - 1), width, 1 << k):
                if (r := (x + i) % (1 << cap)) and (form := _two_power_form(r)):
                    yield i, 4 << form.k, form.k
            return
        yield ((3 << k) - x) & ((4 << k) - 1), 4 << k, k


@dataclass(frozen=True)
class Member:
    """n is a sum of two squares; witness x*x + y*y == n with x <= y."""

    x: int
    y: int


@dataclass(frozen=True)
class NonMember:
    certificate: OddValuation | TwoPowerForm


@dataclass(frozen=True)
class Unknown:
    """Factorization gave out before membership could be decided.

    residual is the unfactored composite cofactor; all certificates from
    the factored part were even-powered, so the answer hides in residual.
    """

    residual: int


def _sqrt_minus_one(p: int) -> int:
    # z with z*z = -1 (mod p), p prime, p = 1 (mod 4)
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return pow(a, (p - 1) // 4, p)
    raise ValueError(f"no quadratic nonresidue found for {p}")


def two_square_decomposition(p: int) -> tuple[int, int]:
    """Write prime p = 1 (mod 4) as x*x + y*y, x <= y.

    Descent on the Euclidean remainder sequence of (p, sqrt(-1) mod p):
    the first remainder at most sqrt(p) is one leg of the decomposition.
    """
    if p == 2:
        return (1, 1)
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not 2 or a prime 1 mod 4")
    return _prime_legs(p)


def _prime_legs(p: int) -> tuple[int, int]:
    # two_square_decomposition for p already known to be a prime 1 mod 4
    bound = math.isqrt(p)
    a, b = p, _sqrt_minus_one(p)
    while b > bound:
        a, b = b, a % b
    x = b
    y = math.isqrt(p - x * x)
    if x * x + y * y != p:
        raise AssertionError(f"descent did not decompose {p}")
    return (min(x, y), max(x, y))


def _compose(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # Brahmagupta-Fibonacci: product of two sums of squares is one again
    a, b = u
    c, d = v
    return (abs(a * c - b * d), a * d + b * c)


def _odd_valuation(counts: dict[int, int]) -> OddValuation | None:
    # the smallest prime = 3 (mod 4) at odd valuation, as a certificate;
    # every key of counts is a prime the factorization established
    for p, e in sorted(counts.items()):
        if p % 4 == 3 and e % 2 == 1:
            return OddValuation._trusted(p, e)
    return None


def classify(
    n: int, effort: int = DEFAULT_EFFORT, seed: int = 0
) -> Member | NonMember | Unknown:
    """Decide whether n is a sum of two squares.

    Returns Member with an explicit witness, NonMember with a checkable
    certificate, or Unknown when the factorization effort budget runs out
    before the answer is pinned down.  n is read through operator.index,
    so numpy integers work and floats raise TypeError.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("classify expects n >= 1")
    two_power = _two_power_form(n)
    if two_power is not None:
        return NonMember(two_power)
    # the primes below 2**16 first: every prime rho finds is larger, so
    # an odd valuation among them is already the smallest certificate
    counts, residual = _small_factors(n)
    certificate = _odd_valuation(counts)
    if certificate is None:
        residual = _large_factors(residual, counts, effort, seed)
        certificate = _odd_valuation(counts)
    if certificate is not None:
        return NonMember(certificate)
    if residual != 1:
        return Unknown(residual)
    acc = (1, 0)
    for p, e in sorted(counts.items()):
        if p % 4 == 3:
            acc = _compose(acc, (p ** (e // 2), 0))
            continue
        leg = (1, 1) if p == 2 else _prime_legs(p)
        for _ in range(e):
            acc = _compose(acc, leg)
    x, y = sorted((abs(acc[0]), abs(acc[1])))
    if x * x + y * y != n:
        raise AssertionError(f"two-squares witness does not sum to {n}")
    return Member(x, y)


def certify_non_membership(
    n: int, primes: list[int] | tuple[int, ...]
) -> OddValuation | TwoPowerForm | None:
    """Search for a non-membership certificate without factoring n.

    Tries the supplied primes in their given order (each must be a prime
    3 mod 4, else ValueError), then the two-power form.  Returns the
    first certificate that holds, or None.
    """
    if n < 1:
        raise ValueError("certify_non_membership expects n >= 1")
    for p in primes:
        _checked_cert_prime(p)
        k = valuation(n, p)
        if k % 2 == 1:
            return OddValuation._trusted(p, k)
    return _two_power_form(n)


def _primes_3_mod_4(bound: int) -> np.ndarray:
    """Primes p = 3 (mod 4) with p <= bound, ascending, as int64.

    Served from a cached table sieved to the next power of two above
    bound (up to the square root of the value cap).
    """
    table = _prime_table(min(1 << bound.bit_length(), _SIEVE_PRIME_BOUND))
    return table[: table.searchsorted(bound, side="right")]


@lru_cache(maxsize=None)
def _prime_table(limit: int) -> np.ndarray:
    primes = _prime_array(limit)
    return primes[primes % 4 == 3]


_TILE_PERIOD = 16 * 9 * 49


@lru_cache(maxsize=None)
def _small_prime_tile() -> np.ndarray:
    # the non-members that 2, 3 and 7 decide alone, over two periods of
    # 7056: entry i stands for every n = i (mod 7056), and a window
    # starting at any phase copies its first period with one slice
    tile = np.zeros(2 * _TILE_PERIOD, dtype=bool)
    # odd part 3 mod 4 at v_2 = 0, 1, 2
    for first, step, _ in _two_power_hits(0, 2 * _TILE_PERIOD, 0, 4):
        tile[first::step] = True
    # v_p == 1: the multiples of p that p**2 does not divide
    for p in (3, 7):
        for r in range(p, p * p, p):
            tile[r :: p * p] = True
    return tile


def membership_sieve(lo: int, hi: int) -> np.ndarray:
    """Boolean array over [lo, hi]: entry i says whether lo + i is a sum
    of two squares.

    A parity sieve on the Fermat-Euler criterion that strides over the
    window and divides none of its values.  n is marked a non-member
    when its odd part is 3 mod 4, or when some prime p = 3 (mod 4) with
    p <= isqrt(hi) divides it to an odd power.  That is exact: n <= hi
    has at most one prime factor above isqrt(hi), and once every smaller
    p = 3 (mod 4) has even valuation, that factor is 3 mod 4 exactly
    when the odd part of n is.

    The window starts as copies of a cached tile of period 16 * 9 * 49
    that holds the odd parts 3 mod 4 at v_2 <= 2 and v_3 = v_7 = 1.
    Higher powers of two come from _two_power_hits, the two-power pass
    the tile and the covering walk share: one stride of 2**(k+2) per k
    while that stride is shorter than the window, then the few multiples
    of 2**k left, each decided alone.  Each prime p = 3 (mod 4) below
    max(8, width / 64) keeps a parity mask, flipped at every multiple of
    the next powers of p, in one buffer reused by all primes.  For 3 and
    7 the mask is over the multiples of p**3 (v_p = 2 is even).  Every
    other such prime marks all its multiples with one strided write, and
    its mask rewrites only the multiples of p**2 from what they held
    before; where the window holds at most one of them, it is decided
    alone.  A larger prime hits the window 64 times at most; those
    primes take their valuation parity together, one entry per (prime,
    hit), in a vector pass run in chunks of about 2**16 entries.

    Cost: about width * loglog(hi) element operations plus one Python
    step per prime p = 3 (mod 4) below max(8, width / 64), one per chunk
    and one per power of 2 up to the width; memory is the window's bytes
    plus a few words per prime up to isqrt(hi) and per chunk entry.  The
    prime table is cached across calls; the first call near the value
    cap builds it in about 0.2 s and ~50 MB.  Width above 2**26 or hi
    above 2**50 raises CapacityError.  lo and hi are read through
    operator.index, so numpy integers work and floats raise TypeError.
    """
    lo, hi = operator.index(lo), operator.index(hi)
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    width = hi - lo + 1
    if width > _SIEVE_WIDTH_CAP:
        raise CapacityError(f"window width {width} exceeds {_SIEVE_WIDTH_CAP}")
    if hi > _SIEVE_VALUE_CAP:
        raise CapacityError(f"upper end {hi} exceeds {_SIEVE_VALUE_CAP}")
    bad = np.empty(width, dtype=bool)
    phase = lo % _TILE_PERIOD
    filled = min(width, _TILE_PERIOD)
    bad[:filled] = _small_prime_tile()[phase : phase + filled]
    while filled < width:
        # filled is a whole number of periods, so the prefix repeats
        copied = min(filled, width - filled)
        bad[filled : filled + copied] = bad[:copied]
        filled += copied
    for first, step, _ in _two_power_hits(lo, width, 3, hi.bit_length() + 2):
        bad[first::step] = True
    primes = _primes_3_mod_4(math.isqrt(hi))
    split = primes.searchsorted(max(8, -(-width // _FEW_HITS)))
    # the longest view is over the multiples of 27
    buffer = np.empty(width // 27 + 1, dtype=bool)
    for p in primes[:split].tolist():
        # view[i] is m = lo + s + i*q, q = p**k; parity[i] ends up as
        # v_p(m) odd.  Parity stays per prime: a mask shared across primes
        # would let two odd valuations cancel (21 = 3 * 7).  The tile
        # holds v_p = 1 for 3 and 7, and v_p = 2 is even, so their masks
        # start at the multiples of p**3.  Every other prime marks all its
        # multiples with one strided write, and its mask rewrites only the
        # multiples of p**2, ORed with what they held before the write.
        k = 3 if p <= 7 else 2
        q = p**k
        s = -lo % q
        view = bad[s::q]
        if len(view) > 1:
            parity = buffer[: len(view)]
            parity.fill(k % 2)
            base = (lo + s) // q
            stride = p
            # once p**j has no multiple among the bases, no higher power has
            while (first := -base % stride) < len(parity):
                flip = parity[first::stride]
                np.logical_not(flip, out=flip)
                stride *= p
            parity |= view
        else:
            # at most one multiple of q in the window: decide it alone
            parity = len(view) == 1 and bool(view[0] or valuation(lo + s, p) % 2)
        if k == 2:
            bad[-lo % p :: p] = True
        view[...] = parity
    # a prime p >= width / _FEW_HITS hits the window _FEW_HITS times at
    # most, at n = lo + s + t*p.  All such primes share one vector pass
    # with one entry per (prime, hit), so each entry keeps its own parity
    # and two primes' odd valuations cannot cancel.  The entries run in
    # chunks of whole primes, about _CHUNK_ENTRIES each, so the pass
    # holds a few arrays of that length however wide the window.
    primes = primes[split:]
    starts = -lo % primes
    hits = starts < width
    primes, starts = primes[hits], starts[hits]
    counts = (width - 1 - starts) // primes + 1
    ends = counts.cumsum()
    a = 0
    while a < len(primes):
        # primes a..b-1: every one whose entries end within
        # _CHUNK_ENTRIES of the chunk's first entry
        b = ends.searchsorted(ends[a] - counts[a] + _CHUNK_ENTRIES, side="right")
        c = counts[a:b]
        p = primes[a:b].repeat(c)
        # entry t of a prime (t = 0, 1, ...) sits at s + t*p
        pos = np.arange(ends[a] - c[0], ends[b - 1])
        pos -= (ends[a:b] - c).repeat(c)
        pos *= p
        pos += starts[a:b].repeat(c)
        # m = n / p**k: the entries that p does not divide have
        # v_p(n) = k, and the others divide again
        m = (pos + lo) // p
        k = 1
        while len(m):
            r = m % p
            if k % 2:
                bad[pos[r != 0]] = True
            deeper = r == 0
            pos, m, p = pos[deeper], m[deeper] // p[deeper], p[deeper]
            k += 1
        a = b
    return np.logical_not(bad, out=bad)
