"""Integer arithmetic helpers: primality, factorization, valuations.

Everything here is exact integer arithmetic.  No floating point is used
anywhere a wrong rounding could change a result; floats only appear in
logarithms reported for diagnostics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_EFFORT = 2_000_000

_SIEVE_LIMIT_CAP = 1 << 32
_SMALL_PRIME_LIMIT = 1 << 16


class CapacityError(ValueError):
    """Raised when a request exceeds the supported exact-arithmetic range."""


def sieve_primes(limit: int) -> list[int]:
    """All primes p <= limit, ascending.

    Odd-only sieve of Eratosthenes on a numpy bool array.  limit above
    2**32 raises CapacityError rather than attempting to allocate.
    """
    return _prime_array(limit).tolist()


def _prime_array(limit: int) -> np.ndarray:
    # sieve_primes as an int64 array, for callers that stay in numpy
    if limit > _SIEVE_LIMIT_CAP:
        raise CapacityError(f"sieve limit {limit} exceeds {_SIEVE_LIMIT_CAP}")
    if limit < 3:
        return np.arange(2, limit + 1, dtype=np.int64)
    # index i represents the odd number 2*i + 1; index 0 (the number 1) unused
    half = (limit + 1) // 2
    mask = np.ones(half, dtype=bool)
    mask[0] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2 + 1):
        if mask[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            if start < half:
                mask[start::p] = False
    odds = 2 * np.nonzero(mask)[0].astype(np.int64) + 1
    return np.concatenate((np.array([2], dtype=np.int64), odds))


_small_primes: list[int] | None = None


def _small_prime_table() -> list[int]:
    global _small_primes
    if _small_primes is None:
        _small_primes = sieve_primes(_SMALL_PRIME_LIMIT)
    return _small_primes


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x."""
    if x < 2:
        return 0
    return len(sieve_primes(x))


def _miller_rabin_composite(n: int, a: int, d: int, r: int) -> bool:
    # True means a witnesses compositeness of n
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True

# Deterministic witness sets, smallest published ladders.  Above the last
# threshold the test falls back to seeded random rounds.
_MR_LADDER: list[tuple[int, tuple[int, ...]]] = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]

_RANDOM_ROUNDS = 64  # error probability below 4**-64


def is_prime(n: int, seed: int = 0) -> bool:
    """Primality test.

    Deterministic for n below ~3.3e24 via fixed Miller-Rabin witness sets;
    beyond that, 64 seeded random rounds (reproducible for a given seed).
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, bases in _MR_LADDER:
        if n < bound:
            return not any(
                _miller_rabin_composite(n, a % n, d, r) for a in bases if a % n
            )
    for a in _MR_LADDER[-1][1]:
        if _miller_rabin_composite(n, a, d, r):
            return False
    rng = random.Random(n * 1_000_003 + seed)
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_composite(n, a, d, r):
            return False
    return True


def valuation(n: int, p: int) -> int:
    """Exponent of p in n (n != 0, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError("p must be >= 2")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  Raises ValueError if gcd(a, m) != 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return 0
    return pow(a, -1, m)


def integer_log(p: int, bound: int) -> int:
    """Largest k >= 0 with p**k <= bound, by exact powering."""
    if p < 2:
        raise ValueError("base must be >= 2")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    k = 0
    power = p
    while power <= bound:
        k += 1
        power *= p
    return k


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, by Newton iteration on integers."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def _brent_rho(n: int, effort: int, seed: int) -> int | None:
    """One nontrivial factor of composite odd n, or None if effort ran out.

    Brent's cycle variant with batched gcd.  effort counts squarings mod n.
    """
    rng = random.Random(n * 1_000_003 + seed)
    remaining = effort
    while remaining > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and remaining > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(m, r - k, remaining)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                remaining -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # batch overshot a factor; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        # g == n with x == ys means a degenerate cycle; retry with new c
    return None


@dataclass(frozen=True)
class Factorization:
    """Result of factorize().  residual == 1 means fully factored;
    otherwise residual is an unfactored composite cofactor."""

    n: int
    factors: tuple[tuple[int, int], ...]
    residual: int = 1

    @property
    def complete(self) -> bool:
        return self.residual == 1

    def __post_init__(self) -> None:
        prod = self.residual
        for p, e in self.factors:
            prod *= p**e
        if prod != self.n:
            raise ValueError("factorization does not multiply back to n")


def factorize(n: int, effort: int = DEFAULT_EFFORT, seed: int = 0) -> Factorization:
    """Factor n >= 1.

    Trial division by all primes below 2**16, then perfect-power extraction
    and Brent rho on what is left.  If the rho budget (effort, counted in
    modular squarings) runs out, the remaining composite is reported as
    .residual instead of looping forever.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    counts: dict[int, int] = {}
    m = n
    for p in _small_prime_table():
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1 and m < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        # below the trial-division square, what survives is prime
        counts[m] = counts.get(m, 0) + 1
        m = 1

    residual = 1
    stack: list[tuple[int, int]] = [(m, 1)] if m > 1 else []
    while stack:
        v, mult = stack.pop()
        if is_prime(v, seed=seed):
            counts[v] = counts.get(v, 0) + mult
            continue
        reduced = False
        for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            if k > v.bit_length():
                break
            root = _iroot(v, k)
            if root**k == v:
                stack.append((root, mult * k))
                reduced = True
                break
        if reduced:
            continue
        d = _brent_rho(v, effort, seed)
        if d is None:
            residual *= v**mult
            continue
        stack.append((d, mult))
        stack.append((v // d, mult))

    factors = tuple(sorted(counts.items()))
    return Factorization(n=n, factors=factors, residual=residual)


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer carried in factored form.

    factors is a sorted tuple of (prime, exponent) pairs with distinct
    primes and exponents >= 1.  Validation is exact: each base must pass
    is_prime.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        prev = 0
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factors must be sorted by prime, distinct")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            seen.add(p)
            prev = p

    @classmethod
    def from_pairs(cls, pairs) -> FactoredInteger:
        return cls(factors=tuple(sorted((int(p), int(e)) for p, e in pairs)))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def log(self) -> float:
        """Natural log, summed from the factors (safe for huge values)."""
        return sum(e * math.log(p) for p, e in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0
