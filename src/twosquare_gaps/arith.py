"""Integer arithmetic helpers: primality, factorization, valuations.

Everything here is exact integer arithmetic.  No floating point is used
anywhere a wrong rounding could change a result; floats only appear in
logarithms reported for diagnostics.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        return np.arange(2, max(limit, 1) + 1, dtype=np.int64)
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


@lru_cache(maxsize=None)
def _small_prime_blocks() -> list[tuple[list[int], int]]:
    # the primes below 2**16 in 52 runs of 128 (the last has 14), each with
    # its product.  Products of ~2000 bits stay in Python's small-object
    # arenas; one product of all the primes would keep a ~94000-bit integer
    # in the C heap, where numpy's freed arrays left room, and fragment it
    # (a scan run's peak RSS +4 MB).
    primes = sieve_primes(_SMALL_PRIME_LIMIT)
    runs = [primes[i : i + 128] for i in range(0, len(primes), 128)]
    return [(run, math.prod(run)) for run in runs]


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x."""
    return len(_prime_array(x))


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

# Deterministic witness sets from the published ladders (Jaeschke, Math.
# Comp. 61, 1993, and later), without the rungs a wider one with no more
# bases covers: (31, 73) takes n < 9080191 from 2047 up, and (2, 7, 61)
# takes the rest below 4759123141.  Above the last threshold the test
# falls back to seeded random rounds.
_MR_LADDER: list[tuple[int, tuple[int, ...]]] = [
    (2047, (2,)),
    (9080191, (31, 73)),
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
    d = (n - 1) >> (r := valuation(n - 1, 2))
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
    if p == 2:
        return (n & -n).bit_length() - 1
    # divide by p, p^2, p^4, ... while it divides, then step back down the
    # same powers: about 2 log2(k) big divisions instead of k
    n = abs(n)
    powers = []
    pw = p
    while True:
        q, r = divmod(n, pw)
        if r:
            break
        n = q
        powers.append(pw)
        pw *= pw
    # v_p(n) is now below 2^len(powers)
    k = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            k += 1 << i
    return k


# Digits one str()/int() call converts, well below CPython's 4300-digit
# int<->str limit (sys.set_int_max_str_digits, CVE-2020-10735)
_DECIMAL_CHUNK = 1000


@lru_cache(maxsize=None)
def _pow10(k: int) -> int:
    return 10**k


def _int_to_decimal(n: int) -> str:
    """str(n) for n >= 0 at any size, by splitting at 10**(chunk * 2**i)."""
    k = _DECIMAL_CHUNK
    if n < _pow10(k):
        return str(n)
    while n >= _pow10(2 * k):
        k *= 2
    hi, lo = divmod(n, _pow10(k))
    return _int_to_decimal(hi) + _int_to_decimal(lo).zfill(k)


def _decimal_to_int(text: str) -> int:
    """int(text) for a string of decimal digits at any length."""
    k = _DECIMAL_CHUNK
    if len(text) <= k:
        return int(text)
    while 2 * k < len(text):
        k *= 2
    return _decimal_to_int(text[:-k]) * _pow10(k) + _decimal_to_int(text[-k:])


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [0, m).  Raises ValueError if gcd(a, m) != 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
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

    Brent's cycle variant with batched gcd.  effort counts the squarings
    mod n in the gcd batches and in the replay after a batch overshoots;
    no new batch starts once it is spent.
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
            while k < r and g == 1 and remaining > 0:
                ys = y
                steps = min(m, r - k, remaining)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                remaining -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # batch overshot a factor; replay one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                remaining -= 1
                g = math.gcd(x - ys, n)
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
        # adjacent pairs, level by level: one growing product would take
        # time quadratic in the size of n
        level = [p**e for p, e in self.factors]
        level.append(self.residual)
        while len(level) > 1:
            level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
        if level[0] != self.n:
            raise ValueError("factorization does not multiply back to n")


def factorize(n: int, effort: int = DEFAULT_EFFORT, seed: int = 0) -> Factorization:
    """Factor n >= 1.

    The primes below 2**16 come out of gcds of n with the products of
    runs of 128 of them, each hit run's primes tried against its gcd,
    instead of trial division of n.  Then perfect-power extraction and
    Brent rho work on what is left.  If the rho budget (effort,
    counted in modular squarings) runs out, the remaining composite is
    reported as .residual instead of looping forever.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    counts, m = _small_factors(n)
    residual = _large_factors(m, counts, effort, seed)
    return Factorization(n=n, factors=tuple(sorted(counts.items())), residual=residual)


def _small_factors(n: int) -> tuple[dict[int, int], int]:
    """(counts, m): the exponents of the primes below 2**16 in n, in
    ascending order, and the cofactor m they leave.

    gcd(n, product of a run) is the product of the run's primes that
    divide n; a run where it is 1 is skipped.  Otherwise the run's primes
    are tried against that gcd in ascending order until it is used up.
    n is divided once by the product of the run gcds, which is every
    such prime to the first power, and only the extra powers are divided
    out one by one.  m has no prime factor below 2**16, so m < 2**32 is 1
    or a prime, which is moved into counts.
    """
    hits = []
    for run, product in _small_prime_blocks():
        g = math.gcd(n, product)
        if g > 1:
            hits.append((run, g))
    m = n // math.prod(g for _, g in hits)
    counts: dict[int, int] = {}
    for run, g in hits:
        for p in run:
            if g % p == 0:
                g //= p
                e = 1
                while m % p == 0:
                    m //= p
                    e += 1
                counts[p] = e
                if g == 1:
                    break
    if 1 < m < _SMALL_PRIME_LIMIT * _SMALL_PRIME_LIMIT:
        counts[m] = 1
        m = 1
    return counts, m


def _large_factors(m: int, counts: dict[int, int], effort: int, seed: int) -> int:
    """Split m, free of primes below 2**16, into counts; return the
    residual that the rho budget left unfactored (1 when complete)."""
    residual = 1
    stack: list[tuple[int, int]] = [(m, 1)] if m > 1 else []
    while stack:
        v, mult = stack.pop()
        if is_prime(v, seed=seed):
            counts[v] = counts.get(v, 0) + mult
            continue
        reduced = False
        for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            # v = r**k with r > 2**16 needs more than 16 * k bits
            if 16 * k >= v.bit_length():
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
    return residual


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer carried in factored form.

    factors is a sorted tuple of (prime, exponent) pairs with distinct
    primes and exponents >= 1.  Validation is exact: each base must pass
    is_prime.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = 0
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factors must be sorted by prime, distinct")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, int], ...]) -> FactoredInteger:
        # for factor lists the library builds from primes it already knows
        # (a sieve or a validated modulus): skips the is_prime checks
        obj = object.__new__(cls)
        object.__setattr__(obj, "factors", factors)
        return obj

    @classmethod
    def from_pairs(cls, pairs) -> FactoredInteger:
        return cls(factors=tuple(sorted((int(p), int(e)) for p, e in pairs)))

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def value(self) -> int:
        return self._value

    @cached_property
    def _value(self) -> int:
        # once per object; cached_property writes __dict__ even when frozen
        return math.prod(p**e for p, e in self.factors)

    def log(self) -> float:
        """Natural log, summed from the factors (safe for huge values)."""
        return sum(e * math.log(p) for p, e in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q >= p:
                return e if q == p else 0
        return 0
