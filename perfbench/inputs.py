"""Seeded input generators for the benchmark workloads.

Every generator is a function of the seed alone: the same seed gives the
same requests, limits and ladders on any machine.  The library under test
only ever sees the generated integers; primes for the inputs come from
this module's own sieve and Miller-Rabin test, so a change to the
library's arithmetic cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

# Miller-Rabin with these bases is deterministic below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981

_SMALL_PRIMES_3MOD4 = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)

# Requests of each kind in one oracle round.  Member requests are half the
# classify traffic so the classify median falls inside their latency band
# rather than on the edge between the microsecond and millisecond kinds.
UNIFORM_PER_ROUND = 20
MEMBER_PER_ROUND = 50
EARLY_PER_ROUND = 30
BUDGET_PER_ROUND = 5
# 63 = 1 + 2 + ... + 32 squarings: the rho budget runs out exactly at the
# end of a doubling round.  A budget that ends partway through a batch
# (effort=50, say) makes _brent_rho loop forever; that known defect is
# reproduced on its own by families.known_defects, outside the workloads.
BUDGET_EFFORT = 63

_WINDOW_WIDTH = 1000
WINDOW_BANDS = 11
WINDOWS_PER_ROUND = 2
_WINDOW_LOG10 = (9.0, 11.0)

SCAN_LIMIT = 1 << 24
SCAN_PROBE_LIMIT = 1 << 22

# Ladder rungs below 2500 stay below it after jitter; the two top rungs
# stay inside [2500, 3000], where `richards` cannot print its shift (a
# known defect, see families.known_defects), so they run `halve` only.
RICHARDS_BELOW_Y = 2500
_LADDER_LOW = (10, 2300, 13)
_LADDER_HIGH = (2700, 2850)
_LADDER_JITTER = 0.01
LADDER_PROBE_MAX = 1100


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 <= n < 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError("outside the deterministic range")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a plain sieve."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(max(lo, 2), hi + 1) if sieve[p]]


def _random_prime(rng: random.Random, lo: int, hi: int, residue: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if p % 4 == residue and is_probable_prime(p):
            return p


@dataclass(frozen=True)
class Request:
    """One oracle request.  `kind` is uniform, member, early, budget or
    window; `n` is the integer to classify, or the low end of a window."""

    kind: str
    n: int

    @property
    def window(self) -> tuple[int, int]:
        return self.n, self.n + _WINDOW_WIDTH - 1


class OracleStream:
    """Endless stream of shuffled oracle rounds.

    Kinds, and why each is in the mix:

    * uniform: classify on integers of 6 to 24 digits, the digit count
      cycling so every run sees the same size mix.  Mostly the two-power
      shortcut and trial division; the rare hard semiprime is the tail.
    * member: products of 2-4 primes = 1 (mod 4) above the trial-division
      table, so rho splits them and the witness path runs
      (two_square_decomposition plus composition).
    * early: n = 1 (mod 4) with a small prime = 3 (mod 4) at an odd power
      times a rho-sized cofactor.  The answer is fixed by the small prime,
      but the two-power shortcut cannot fire, so any cost past trial
      division is avoidable work.
    * budget: BUDGET_PER_ROUND semiprimes per round above 1e15 with both factors
      = 1 (mod 4), classified with effort=BUDGET_EFFORT; the right answer
      is Unknown.
    * window: membership_sieve over 1000 integers at heights 1e9 to 1e11,
      the sieve layer that `scan` uses wide and low, used narrow and high.
      Heights sit at the centres of WINDOW_BANDS log-spaced bands, each
      visited once per cycle in seeded order, and the seed moves each by
      at most 1%.  With an odd number of bands the median falls inside
      the middle band's cluster of samples, not between two clusters.
      A stream built with window_bands=1 puts every window in the
      middle band, at 1e10.
    """

    def __init__(self, seed: int, window_bands: int = WINDOW_BANDS):
        self._rng = random.Random(seed * 1_000_003 + 11)
        self._bands = window_bands
        pool = primes_between(1 << 16, 10**6)
        self._p1 = [p for p in pool if p % 4 == 1]
        self._p3 = [p for p in pool if p % 4 == 3]
        self._digits = self._rng.randrange(19)
        self._strata: list[int] = []

    def _uniform(self) -> int:
        d = 6 + self._digits % 19
        self._digits += 1
        return self._rng.randrange(10 ** (d - 1), 10**d)

    def _member(self) -> int:
        n = 1
        for _ in range(self._rng.randint(2, 4)):
            n *= self._rng.choice(self._p1)
        return n

    def _early(self) -> int:
        rng = self._rng
        small = rng.choice(_SMALL_PRIMES_3MOD4) ** rng.choice((1, 3))
        p = rng.choice(self._p1 if rng.random() < 0.5 else self._p3)
        # the last prime fixes n = 1 (mod 4)
        q = rng.choice(self._p1 if small * p % 4 == 1 else self._p3)
        return small * p * q

    def _budget(self) -> int:
        lo, hi = 4 * 10**7, 10**8
        return _random_prime(self._rng, lo, hi, 1) * _random_prime(
            self._rng, lo, hi, 1
        )

    def _window(self) -> int:
        if not self._strata:
            self._strata = list(range(self._bands))
            self._rng.shuffle(self._strata)
        band = self._strata.pop()
        lo, hi = _WINDOW_LOG10
        centre = 10 ** (lo + (hi - lo) * (band + 0.5) / self._bands)
        # the cost grows with sqrt(height); a 1% offset moves it by 0.5%
        return int(centre * (1 + 0.01 * self._rng.random()))

    def next_round(self) -> list[Request]:
        reqs = [Request("uniform", self._uniform()) for _ in range(UNIFORM_PER_ROUND)]
        reqs += [Request("member", self._member()) for _ in range(MEMBER_PER_ROUND)]
        reqs += [Request("early", self._early()) for _ in range(EARLY_PER_ROUND)]
        reqs += [Request("window", self._window()) for _ in range(WINDOWS_PER_ROUND)]
        reqs += [Request("budget", self._budget()) for _ in range(BUDGET_PER_ROUND)]
        self._rng.shuffle(reqs)
        return reqs


def scan_limits(seed: int, probe: bool) -> Iterator[int]:
    """Endless scan limits: SCAN_LIMIT (or SCAN_PROBE_LIMIT) minus a
    seeded offset below one default segment."""
    rng = random.Random(seed * 1_000_003 + 13)
    top = SCAN_PROBE_LIMIT if probe else SCAN_LIMIT
    while True:
        yield top - rng.randrange(1 << 16 if probe else 1 << 20)


def ladder_passes(seed: int, probe: bool) -> Iterator[tuple[list[int], list[int]]]:
    """Endless ladder passes: (rungs, bounds_ys).

    The rungs are 13 log-spaced from 10 to 2300 plus two rungs in
    [2500, 3000] (halve only, see RICHARDS_BELOW_Y), each moved by up to 1% with a fresh seeded draw per
    pass; halve time grows like Y**1.5, so the draw barely moves it.
    Both the full ladder (15 rungs) and the probe ladder (the 11 rungs up
    to LADDER_PROBE_MAX) have an odd number of rungs, so the halve median
    is the middle rung's own cluster of samples, not a gap between two.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    lo, hi, count = _LADDER_LOW
    base = [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]
    base += _LADDER_HIGH
    if probe:
        base = [y for y in base if y <= LADDER_PROBE_MAX]
    while True:
        rungs = [
            round(y * (1 + _LADDER_JITTER * (2 * rng.random() - 1))) for y in base
        ]
        yield rungs, [rungs[1], rungs[4], rungs[7]]
