import decimal
import math
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosquare_gaps import arith
from twosquare_gaps.arith import (
    CapacityError,
    FactoredInteger,
    Factorization,
    _brent_rho,
    _decimal_to_int,
    _int_to_decimal,
    _miller_rabin_composite,
    factorize,
    integer_log,
    is_prime,
    mod_inverse,
    prime_count,
    sieve_primes,
    valuation,
)
from twosquare_gaps.oracle import Unknown, classify


def naive_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# The Miller-Rabin ladder below 4759123141 before its dominated rungs were
# dropped, kept as test-only reference code for is_prime.
REFERENCE_MR_LADDER = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
]

# strong pseudoprimes to each rung's bases, the least first
STRONG_PSEUDOPRIMES = {
    (2,): [2047, 3277, 4033, 4681, 8321],
    (2, 3): [1373653, 1530787, 1987021, 2284453, 3116107, 5173601, 6787327, 11541307],
    (31, 73): [9080191],
    (2, 3, 5): [25326001, 161304001, 960946321, 1157839381, 3215031751],
    (2, 3, 5, 7): [3215031751],
    (2, 7, 61): [4759123141],
}


def reference_is_prime(n):
    # odd n with 2047 <= n < 4759123141, on the reference ladder
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = next(b for bound, b in REFERENCE_MR_LADDER if n < bound)
    return not any(_miller_rabin_composite(n, a, d, r) for a in bases)


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(1) == []
        assert sieve_primes(2) == [2]
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_counts(self):
        # reference values of pi(x)
        assert len(sieve_primes(10**4)) == 1229
        assert len(sieve_primes(10**6)) == 78498

    def test_agrees_with_trial_division(self):
        assert sieve_primes(2000) == [n for n in range(2001) if naive_is_prime(n)]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sieve_primes((1 << 32) + 1)


class TestIsPrime:
    def test_exhaustive_small(self):
        primes = set(sieve_primes(10**4))
        for n in range(10**4 + 1):
            assert is_prime(n) == (n in primes)

    def test_known_values(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not is_prime(561)  # Carmichael
        assert not is_prime(3215031751)  # strong pseudoprime to 2,3,5,7
        assert is_prime(1000000000000000009)
        assert not is_prime(88135877101041)

    @pytest.mark.parametrize(
        "lo, hi", [(2047, 1373653), (9080191, 25326001), (25326001, 3215031751)]
    )
    def test_dropped_rungs_match_reference(self, lo, hi):
        # the bands whose rung gave way to a wider one with no more bases
        rng = random.Random(lo)
        for _ in range(3000):
            n = rng.randrange(lo, hi) | 1
            assert is_prime(n) == reference_is_prime(n), n

    def test_strong_pseudoprimes(self):
        for bases, ns in STRONG_PSEUDOPRIMES.items():
            for n in ns:
                d, r = n - 1, 0
                while d % 2 == 0:
                    d //= 2
                    r += 1
                assert not any(_miller_rabin_composite(n, a, d, r) for a in bases)
                assert not is_prime(n), n
                if n < REFERENCE_MR_LADDER[-1][0]:
                    assert not reference_is_prime(n), n

    def test_beyond_deterministic_range(self):
        # 2**89 - 1 is a Mersenne prime; its square exercises the seeded rounds
        assert is_prime(2**89 - 1)
        assert not is_prime((2**89 - 1) ** 2)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_naive(self, n):
        assert is_prime(n) == naive_is_prime(n)


def reference_valuation(n: int, p: int) -> int:
    # the division loop valuation ran before it read the lowest set bit
    # (p = 2) and divided by repeated squares of p (odd p)
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def reference_valuation_2(n: int) -> int:
    return reference_valuation(n, 2)


class TestValuation:
    def test_basic(self):
        assert valuation(54, 3) == 3
        assert valuation(54, 2) == 1
        assert valuation(54, 5) == 0
        assert valuation(1, 2) == 0
        assert valuation(-12, 2) == 2

    def test_errors(self):
        with pytest.raises(ValueError):
            valuation(0, 3)
        with pytest.raises(ValueError):
            valuation(10, 1)

    @given(
        st.integers(min_value=-(2**4000), max_value=2**4000).filter(bool),
        st.integers(0, 5000),
    )
    def test_two_matches_division_loop(self, u, k):
        for n in (u, u << k, -(u << k)):
            assert valuation(n, 2) == reference_valuation_2(n)

    def test_two_at_powers_and_huge(self):
        # the division loop is quadratic in the bit length, so at k = 100000
        # it checks 1 << k alone
        for k in (0, 1, 2, 62, 63, 64, 65, 1000, 100000):
            for n in (1 << k, -(1 << k), 3 << k, -(5 << k), (1 << (k + 7)) - (1 << k)):
                assert valuation(n, 2) == k
                if k < 100000 or n == 1 << k:
                    assert reference_valuation_2(n) == k
        assert valuation(2**100000 - 1, 2) == 0
        with pytest.raises(ValueError):
            valuation(0, 2)

    @given(
        st.integers(min_value=-(2**4000), max_value=2**4000).filter(bool),
        st.sampled_from([3, 7, 9, 10, 11, 15, 10007, 2**61 - 1]),
        st.integers(0, 300),
    )
    def test_odd_matches_division_loop(self, u, p, k):
        for n in (u, u * p**k, -(u * p**k)):
            assert valuation(n, p) == reference_valuation(n, p)

    def test_odd_at_powers(self):
        # exponents at, below and above the powers of 2 the squaring climbs by
        for p in (3, 7, 2**61 - 1):
            for k in (0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000):
                pk = p**k
                for n in (pk, -pk, pk * (p + 1), pk * (p - 1) * p**k + pk):
                    assert valuation(n, p) == reference_valuation(n, p)
                assert valuation(pk, p) == k

    @given(st.integers(min_value=1, max_value=10**9), st.sampled_from([2, 3, 7, 11]))
    def test_divides_exactly(self, n, p):
        k = valuation(n, p)
        assert n % p**k == 0
        assert n % p ** (k + 1) != 0


class TestModInverse:
    def test_values(self):
        assert mod_inverse(4, 81) == 61
        assert mod_inverse(3, 10) == 7
        assert mod_inverse(1, 7) == 1
        assert mod_inverse(5, 1) == 0

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            mod_inverse(2, 4)
        with pytest.raises(ValueError):
            mod_inverse(4, 0)

    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1))
    def test_inverse_property(self, m, a):
        if math.gcd(a, m) == 1:
            assert a * mod_inverse(a, m) % m == 1


class TestIntegerLog:
    def test_values(self):
        assert integer_log(3, 40) == 3
        assert integer_log(7, 40) == 1
        assert integer_log(3, 80) == 3
        assert integer_log(7, 80) == 2
        assert integer_log(2, 1) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            integer_log(1, 10)
        with pytest.raises(ValueError):
            integer_log(3, 0)

    @given(st.integers(min_value=2, max_value=100), st.integers(min_value=1, max_value=10**18))
    def test_exact_powering(self, p, bound):
        k = integer_log(p, bound)
        assert p**k <= bound < p ** (k + 1)


class TestFactorize:
    def test_small(self):
        assert factorize(54).factors == ((2, 1), (3, 3))
        assert factorize(8633).factors == ((89, 1), (97, 1))
        assert factorize(1).factors == ()
        assert factorize(1024).factors == ((2, 10),)

    def test_complete_flag(self):
        fac = factorize(54)
        assert fac.complete and fac.residual == 1

    def test_perfect_power(self):
        fac = factorize(3**40)
        assert fac.factors == ((3, 40),)
        p = 10**9 + 7
        assert factorize(p * p).factors == ((p, 2),)

    def test_large_semiprime(self):
        fac = factorize(1000003 * 1000033)
        assert fac.factors == ((1000003, 1), (1000033, 1))

    def test_budget_exhaustion_is_reported(self):
        n = 1000000000061 * 1000000000121
        fac = factorize(n, effort=0)
        assert not fac.complete
        assert fac.residual == n
        assert fac.factors == ()
        # and the default budget finishes the job
        assert factorize(n).complete

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_factor_list_off_by_one_prime_power_is_rejected(self):
        primes = sieve_primes(1 << 12)
        factors = tuple((p, 2) for p in primes)
        n = math.prod(p * p for p in primes)
        assert Factorization(n, factors).complete
        assert Factorization(n * 7919, factors, residual=7919).residual == 7919
        for i in (0, 1, len(primes) // 2, len(primes) - 1):
            p = primes[i]
            short = factors[:i] + ((p, 1),) + factors[i + 1 :]
            long = factors[:i] + ((p, 3),) + factors[i + 1 :]
            for wrong in (short, long, factors[:i] + factors[i + 1 :]):
                with pytest.raises(ValueError):
                    Factorization(n, wrong)
        with pytest.raises(ValueError):
            Factorization(n, factors, residual=7919)

    def test_power_test_skips_roots_below_the_table(self, monkeypatch):
        # what reaches the perfect-power test has no prime below 2**16, so
        # v = r**k needs more than 16 * k bits; no k-th root is taken below
        iroot = arith._iroot
        calls = []

        def checked_iroot(v, k):
            assert 16 * k < v.bit_length(), (v, k)
            calls.append(k)
            return iroot(v, k)

        monkeypatch.setattr(arith, "_iroot", checked_iroot)
        rng = random.Random(16)
        pool = [p for p in range(65537, 70000, 2) if is_prime(p)]
        for _ in range(40):
            primes = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            n = math.prod(primes)
            classify(n)
            fac = factorize(n)
            assert fac.complete and math.prod(p**e for p, e in fac.factors) == n
        assert calls

    @settings(max_examples=60)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_multiplies_back(self, n):
        fac = factorize(n)
        assert fac.complete
        prod = 1
        for p, e in fac.factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


class Overrun(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise Overrun in the body once `seconds` have passed (SIGALRM)."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs SIGALRM")

    def on_alarm(signum, frame):
        raise Overrun

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# semiprimes whose factors are all above the 2**16 trial-division bound
SEMIPRIMES = (
    1000033 * 3000029,
    65537 * 65539,
    999983 * 1000003,
    1000000007 * 998244353,
    4294967291 * 4294967279,
)


class TestBrentRhoBudget:
    def test_every_effort_up_to_200_returns(self):
        for n in SEMIPRIMES:
            for effort in range(201):
                with deadline(2.0):
                    d = _brent_rho(n, effort, 0)
                assert d is None or (1 < d < n and n % d == 0)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from(SEMIPRIMES),
        effort=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(n=1000033 * 3000029, effort=50, seed=0)
    def test_factorize_returns_within_budget(self, n, effort, seed):
        with deadline(2.0):
            fac = factorize(n, effort=effort, seed=seed)
        assert fac.residual in (1, n)

    def test_effort_50_classify(self):
        # the budget used to run out partway through a batch and spin
        n = 1000033 * 3000029
        with deadline(2.0):
            verdict = classify(n, effort=50)
        assert verdict == Unknown(n)

    def test_doubling_boundary_budget_unchanged(self):
        # effort = 63 = 1 + 2 + ... + 32 ends exactly at a doubling round;
        # semiprimes of two primes = 1 (mod 4), as in the benchmark's
        # budget requests
        for n in (
            54118549 * 88082497,
            56699693 * 98121869,
            60082153 * 86842909,
            58977473 * 85709837,
        ):
            assert classify(n, effort=63) == Unknown(n)


class TestDecimalText:
    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10**4299))
    def test_matches_str_below_limit(self, n):
        assert _int_to_decimal(n) == str(n)
        assert _decimal_to_int(str(n)) == n

    def test_matches_decimal_above_limit(self):
        for n in (
            10**1000 - 1,
            10**1000,
            10**2000 + 1,
            10**4300,
            10**9000 - 1,
            7**12345 + 10**3000,
            (10**4500 + 1) * 10**2500,
        ):
            text = _int_to_decimal(n)
            # decimal.Decimal converts ints without the int<->str limit
            assert text == str(decimal.Decimal(n))
            assert _decimal_to_int(text) == n
            assert _decimal_to_int("000" + text) == n


class TestFactoredInteger:
    def test_value_log_exponent(self):
        f = FactoredInteger(factors=((3, 4), (7, 2)))
        assert f.value() == 81 * 49
        assert f.exponent(3) == 4
        assert f.exponent(5) == 0
        assert f.primes == (3, 7)
        assert f.log() == pytest.approx(math.log(81 * 49))

    def test_from_pairs_sorts(self):
        f = FactoredInteger.from_pairs([(7, 2), (3, 4)])
        assert f.factors == ((3, 4), (7, 2))

    def test_empty_product(self):
        assert FactoredInteger(factors=()).value() == 1

    def test_value_built_once(self):
        # a second call returns the same int object, not a new product; the
        # cache leaves equality and hashing to the factors
        for f in (
            FactoredInteger(factors=((3, 200), (7, 100))),
            FactoredInteger._trusted(((3, 200), (7, 100))),
        ):
            assert f.value() is f.value() == 3**200 * 7**100
            assert f == FactoredInteger(factors=f.factors)
            assert hash(f) == hash(FactoredInteger(factors=f.factors))

    def test_validation(self):
        with pytest.raises(ValueError):
            FactoredInteger(factors=((4, 1),))  # not prime
        with pytest.raises(ValueError):
            FactoredInteger(factors=((3, 0),))  # exponent < 1
        with pytest.raises(ValueError):
            FactoredInteger(factors=((7, 1), (3, 1)))  # unsorted
        with pytest.raises(ValueError):
            FactoredInteger(factors=((3, 1), (3, 2)))  # duplicate


def test_prime_count():
    assert prime_count(100) == 25
    assert prime_count(1) == 0
    assert prime_count(2) == 1


def test_prime_count_counts_the_sieve():
    for x in (-(2**70), -1, 0, 1, 2, 3, 4, 1000, 65536):
        assert prime_count(x) == len(sieve_primes(x)) == sum(map(is_prime, range(x + 1)))
    with pytest.raises(CapacityError):
        prime_count(2**32 + 1)
