"""Differential test of is_prime's small-prime table against Miller-Rabin.

is_prime answers n below 2**16 by looking it up in a table of the primes
sieved once, and runs Miller-Rabin only from 2**16 up.  The reference
below is is_prime as it was before the table, Miller-Rabin for every
n >= 4, kept here as test-only reference code.
"""

import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps import arith
from twosquare_gaps.arith import (
    _MR_LADDER,
    _RANDOM_ROUNDS,
    _SMALL_PRIME_LIMIT,
    _miller_rabin_composite,
    is_prime,
    valuation,
)


def reference_is_prime(n: int, seed: int = 0) -> bool:
    n = operator.index(n)
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


def test_every_n_up_to_past_the_table():
    ns = range(-2, _SMALL_PRIME_LIMIT + 256)
    assert [is_prime(n) for n in ns] == [reference_is_prime(n) for n in ns]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(_SMALL_PRIME_LIMIT + 256, 2**64),
        # above the deterministic ladder's last rung: the seeded rounds
        st.integers(_MR_LADDER[-1][0], 2**100),
    ),
    st.integers(0, 3),
)
def test_large_n_agree(n, seed):
    assert is_prime(n, seed=seed) == reference_is_prime(n, seed=seed)


def test_no_miller_rabin_below_the_table_limit(monkeypatch):
    calls = []
    real = arith._miller_rabin_composite

    def counted(n, a, d, r):
        calls.append(n)
        return real(n, a, d, r)

    monkeypatch.setattr(arith, "_miller_rabin_composite", counted)
    assert sum(map(is_prime, range(_SMALL_PRIME_LIMIT))) == 6542
    assert calls == []
    # the counter counts: the least prime above the table runs the ladder's
    # rung for n < 9080191, the bases 31 and 73
    assert is_prime(_SMALL_PRIME_LIMIT + 1)
    assert calls == [_SMALL_PRIME_LIMIT + 1] * 2
