"""Membership oracle for sums of two squares.

An integer n >= 1 is a sum of two squares exactly when every prime
p = 3 (mod 4) divides n to an even power.  This module decides
membership three independent ways:

* classify()            factorization route, produces a witness or a
                        non-membership certificate
* membership_sieve()    parity sieve over a window: odd part 3 mod 4, or
                        some p = 3 (mod 4) up to sqrt(hi) at odd power
* certify_non_membership()  certificate search against a caller-supplied
                        prime list, no factorization

Keeping the routes separate is deliberate: tests cross-check them
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import (
    DEFAULT_EFFORT,
    CapacityError,
    _prime_array,
    factorize,
    is_prime,
    valuation,
)

_SIEVE_WIDTH_CAP = 1 << 26
# bounds the sieve's prime table: primes up to 2**25, ~0.2 s and ~50 MB
_SIEVE_VALUE_CAP = 1 << 50
_SIEVE_PRIME_BOUND = math.isqrt(_SIEVE_VALUE_CAP)

# (limit, primes = 3 mod 4 up to limit); replaced whole, never mutated
_prime_table: tuple[int, np.ndarray] = (0, np.zeros(0, dtype=np.int64))


@lru_cache(maxsize=4096)
def _checked_cert_prime(p: int) -> None:
    if p % 4 != 3:
        raise ValueError(f"{p} is not 3 mod 4")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


@dataclass(frozen=True)
class OddValuation:
    """Certificate: v_p(n) == k with k odd and p prime, p = 3 (mod 4).

    Any such n is not a sum of two squares.
    """

    p: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError("k must be a positive odd integer")
        _checked_cert_prime(self.p)

    def holds_for(self, n: int) -> bool:
        return n >= 1 and valuation(n, self.p) == self.k


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

    def holds_for(self, n: int) -> bool:
        if n < 1 or valuation(n, 2) != self.k:
            return False
        return (n >> self.k) % 4 == 3


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
    bound = math.isqrt(p)
    a, b = p, _sqrt_minus_one(p)
    while b > bound:
        a, b = b, a % b
    x = b
    y = math.isqrt(p - x * x)
    assert x * x + y * y == p
    return (min(x, y), max(x, y))


def _compose(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # Brahmagupta-Fibonacci: product of two sums of squares is one again
    a, b = u
    c, d = v
    return (abs(a * c - b * d), a * d + b * c)


def classify(
    n: int, effort: int = DEFAULT_EFFORT, seed: int = 0
) -> Member | NonMember | Unknown:
    """Decide whether n is a sum of two squares.

    Returns Member with an explicit witness, NonMember with a checkable
    certificate, or Unknown when the factorization effort budget runs out
    before the answer is pinned down.
    """
    if n < 1:
        raise ValueError("classify expects n >= 1")
    k2 = valuation(n, 2) if n > 1 else 0
    if (n >> k2) % 4 == 3:
        return NonMember(TwoPowerForm(k2))
    fac = factorize(n, effort=effort, seed=seed)
    for p, e in fac.factors:
        if p % 4 == 3 and e % 2 == 1:
            return NonMember(OddValuation(p, e))
    if not fac.complete:
        return Unknown(fac.residual)
    acc = (1, 0)
    for p, e in fac.factors:
        if p == 2:
            for _ in range(e):
                acc = _compose(acc, (1, 1))
        elif p % 4 == 1:
            leg = two_square_decomposition(p)
            for _ in range(e):
                acc = _compose(acc, leg)
        else:
            acc = _compose(acc, (p ** (e // 2), 0))
    x, y = sorted((abs(acc[0]), abs(acc[1])))
    assert x * x + y * y == n
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
            return OddValuation(p, k)
    k2 = valuation(n, 2) if n > 1 else 0
    if (n >> k2) % 4 == 3:
        return TwoPowerForm(k2)
    return None


def _primes_3_mod_4(bound: int) -> np.ndarray:
    """Primes p = 3 (mod 4) with p <= bound, ascending, as int64.

    Served from a module table that grows by doubling (up to the square
    root of the value cap).  Concurrent callers may both rebuild it; each
    builds a complete table and publishes it with one assignment, and
    readers work from a local reference, so no reader sees a partial one.
    """
    global _prime_table
    limit, table = _prime_table
    if bound > limit:
        limit = max(bound, min(2 * limit, _SIEVE_PRIME_BOUND))
        primes = _prime_array(limit)
        table = primes[primes % 4 == 3]
        _prime_table = (limit, table)
    return table[: np.searchsorted(table, bound, side="right")]


def membership_sieve(lo: int, hi: int) -> np.ndarray:
    """Boolean array over [lo, hi]: entry i says whether lo + i is a sum
    of two squares.

    A parity sieve on the Fermat-Euler criterion that strides over the
    window and divides none of its values.  n is marked a non-member
    when its odd part is 3 mod 4 (one stride of 2**(k+2) per k), or when
    some prime p = 3 (mod 4) with p <= isqrt(hi) divides it to an odd
    power (a parity mask over the multiples of p, flipped at every
    multiple of p**2, p**3, ...).  That is exact: n <= hi has at most
    one prime factor above isqrt(hi), and once every smaller p = 3
    (mod 4) has even valuation, that factor is 3 mod 4 exactly when the
    odd part of n is.

    Cost: about width * loglog(hi) element operations plus one Python
    step per prime p = 3 (mod 4) up to isqrt(hi) that hits the window.
    The prime table is cached across calls; the first call near the
    value cap builds it in about 0.2 s and ~50 MB, after which a
    1000-wide window there takes about 10 ms.  Width above 2**26 or hi
    above 2**50 raises CapacityError.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    width = hi - lo + 1
    if width > _SIEVE_WIDTH_CAP:
        raise CapacityError(f"window width {width} exceeds {_SIEVE_WIDTH_CAP}")
    if hi > _SIEVE_VALUE_CAP:
        raise CapacityError(f"upper end {hi} exceeds {_SIEVE_VALUE_CAP}")
    bad = np.zeros(width, dtype=bool)
    # odd part 3 mod 4: n = 3 * 2**k (mod 2**(k+2))
    k = 0
    while 3 << k <= hi:
        step = 4 << k
        bad[((3 << k) - lo) % step :: step] = True
        k += 1
    primes = _primes_3_mod_4(math.isqrt(hi))
    starts = (-lo) % primes
    hits = starts < width
    for p, s in zip(primes[hits].tolist(), starts[hits].tolist()):
        # view[i] is m = lo + s + i*p; parity[i] ends up as v_p(m) odd.
        # Parity stays per prime: a mask shared across primes would let
        # two odd valuations cancel (21 = 3 * 7).
        view = bad[s::p]
        parity = np.ones(len(view), dtype=bool)
        base = (lo + s) // p
        stride = p
        while stride * p <= hi:
            first = -base % stride
            if first < len(parity):
                flip = parity[first::stride]
                np.logical_not(flip, out=flip)
            stride *= p
        view |= parity
    return ~bad
