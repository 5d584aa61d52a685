"""Differential tests: the screened factorize and classify against the
trial-division versions they replaced, the small-prime screen against the
run-gcd and int64 screens it replaced below 2**64, and Brent rho against
its one-squaring-per-step batch loop.

reference_factorize and reference_classify are test-only reference code:
trial division by every prime below 2**16, then the perfect-power and
Brent rho stage, with the rho batch product taken over |x - y|, and a
classify that factors n completely before it looks for a certificate.
The library must return the same Factorization, and the same verdict with
the same witness, certificate or Unknown residual, at every effort.

reference_small_factors and reference_int64_screen are test-only
reference code too: the run-gcd screen that served every n before one
int64 remainder pass took n below 2**63, and that int64 pass, which the
uint64 multiply-by-inverse pass replaced below 2**64.  _small_factors must
return the same (counts, m) as each, with counts in the same ascending
key order.

reference_brent_rho is the rho loop with one squaring per step, as it ran
before its batches took four per step; _brent_rho must return the same
factor or None at every effort and seed.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps import arith
from twosquare_gaps.arith import (
    DEFAULT_EFFORT,
    Factorization,
    _brent_rho,
    _iroot,
    _small_factors,
    factorize,
    is_prime,
    sieve_primes,
)
from twosquare_gaps.oracle import (
    Member,
    NonMember,
    OddValuation,
    Unknown,
    _two_power_form,
    classify,
    two_square_decomposition,
)

from test_arith import SEMIPRIMES

SMALL_LIMIT = 1 << 16
TABLE = sieve_primes(SMALL_LIMIT - 1)
ROOT = math.prod(TABLE)
# the library screens n >= 2**64 with the gcds of TABLE's runs of 128 primes
RUNS = [TABLE[i : i + 128] for i in range(0, len(TABLE), 128)]
RUN_PRODUCTS = [math.prod(run) for run in RUNS]
INT64 = 1 << 63
UINT64 = 1 << 64
INT64_TABLE = np.array(TABLE, dtype=np.int64)


def reference_brent_rho(n, effort, seed):
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
                    q = q * abs(x - y) % n
                remaining -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                remaining -= 1
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def reference_factorize(n, effort=DEFAULT_EFFORT, seed=0):
    counts = {}
    m = n
    for p in TABLE:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1 and m < SMALL_LIMIT * SMALL_LIMIT:
        counts[m] = counts.get(m, 0) + 1
        m = 1
    residual = 1
    stack = [(m, 1)] if m > 1 else []
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
        d = reference_brent_rho(v, effort, seed)
        if d is None:
            residual *= v**mult
            continue
        stack.append((d, mult))
        stack.append((v // d, mult))
    return Factorization(n=n, factors=tuple(sorted(counts.items())), residual=residual)


def reference_classify(n, effort=DEFAULT_EFFORT, seed=0):
    two_power = _two_power_form(n)
    if two_power is not None:
        return NonMember(two_power)
    fac = reference_factorize(n, effort=effort, seed=seed)
    for p, e in fac.factors:
        if p % 4 == 3 and e % 2 == 1:
            return NonMember(OddValuation(p, e))
    if not fac.complete:
        return Unknown(fac.residual)
    x, y = 1, 0
    for p, e in fac.factors:
        if p == 2:
            leg = (1, 1)
        elif p % 4 == 1:
            leg = two_square_decomposition(p)
        else:
            x, y = x * p ** (e // 2), y * p ** (e // 2)
            continue
        for _ in range(e):
            x, y = abs(x * leg[0] - y * leg[1]), x * leg[1] + y * leg[0]
    return Member(*sorted((x, y)))


def assert_same(n, effort=DEFAULT_EFFORT, seed=0):
    assert factorize(n, effort=effort, seed=seed) == reference_factorize(
        n, effort=effort, seed=seed
    )
    assert classify(n, effort=effort, seed=seed) == reference_classify(
        n, effort=effort, seed=seed
    )


def _large_primes(rng, count, residue=None):
    out = []
    while len(out) < count:
        p = rng.randrange(SMALL_LIMIT + 1, 10**6)
        if is_prime(p) and p not in out and residue in (None, p % 4):
            out.append(p)
    return out


@st.composite
def small_prime_heavy(draw, bound=1 << 80):
    # table primes at random powers, times a random cofactor, below bound
    n = 1
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        p = draw(st.sampled_from(TABLE[:30]) | st.sampled_from(TABLE))
        k = draw(st.integers(min_value=1, max_value=7))
        if n * p**k >= bound:
            break
        n *= p**k
    return n * draw(st.integers(min_value=1, max_value=(bound - 1) // n))


class TestAgainstTrialDivision:
    @settings(max_examples=150, deadline=None)
    @given(small_prime_heavy(), st.integers(min_value=0, max_value=3))
    def test_default_effort(self, n, seed):
        assert_same(n, seed=seed)

    @settings(max_examples=150, deadline=None)
    @given(
        small_prime_heavy(),
        st.sampled_from((0, 63)),
        st.integers(min_value=0, max_value=3),
    )
    def test_low_effort(self, n, effort, seed):
        # Unknown.residual and the partial factorization must match too
        assert_same(n, effort=effort, seed=seed)

    @pytest.mark.parametrize(
        "n",
        [
            1,
            2,
            2**5,
            2**64,
            2**200,
            65521,
            65537,
            65521**2,
            65521 * 65537,
            4294967291,  # largest prime below 2**32: left over after the screen
            3 * 4294967291,
            65537 * 4294967291,
            65537**2,
            65537**3 * 65539,
            (65537 * 65539) ** 2,
        ],
        ids=lambda n: str(n) if n < 10**20 else f"2**{n.bit_length() - 1}",
    )
    def test_pinned(self, n):
        for effort in (DEFAULT_EFFORT, 0, 63):
            assert_same(n, effort=effort)

    def test_members_split_by_rho(self):
        # 2 to 4 primes = 1 (mod 4) above the table, as the benchmark's
        # `member` requests: rho finds them in no set order, and the witness
        # depends on the order in which their legs are composed
        rng = random.Random(4)
        for _ in range(12):
            n = math.prod(_large_primes(rng, rng.randint(2, 4), residue=1))
            assert isinstance(reference_classify(n), Member)
            assert_same(n)

    def test_root_product(self):
        # every table prime once: every run is hit and tried through to its
        # last prime, and no cofactor is left for rho, so one effort covers it
        assert_same(ROOT)

    @pytest.mark.parametrize(
        "base, power", [(3, 2001), (65521, 301)], ids=["3**2001", "65521**301"]
    )
    def test_high_prime_power(self, base, power):
        # the one prime found is divided out once with the run gcds, then
        # power - 1 more times
        assert_same(base**power)

    def test_root_product_with_powers(self):
        # every table prime, three of them at higher powers
        assert_same(ROOT * 2**9 * 3**4 * 65521**2)

    @pytest.mark.parametrize("i", range(len(RUNS)))
    def test_run_ends(self, i):
        # the first and the last prime of each run, alone and together
        first, last = RUNS[i][0], RUNS[i][-1]
        for n in (first, last, first * last, first**3 * last**2 * 65537):
            assert_same(n)

    def test_last_prime_of_every_run(self):
        # every run hit, each tried through to its last prime
        assert_same(math.prod(run[-1] for run in RUNS))

    def test_run_end_times_large_prime(self):
        # the last prime of run 0 next to primes above the table: one left
        # over after the screen, then two that rho has to split
        assert_same(RUNS[0][127] * 65537)
        assert_same(RUNS[0][127] ** 2 * 65537 * 65539)

    def test_short_last_run(self):
        # the 14 primes of the last run, at powers 1 and 2
        assert len(RUNS[-1]) == 14
        last = math.prod(RUNS[-1])
        assert_same(last)
        assert_same(last**2 * RUNS[-1][0])


class RhoCalled(Exception):
    pass


def _raise_rho(n, effort, seed):
    raise RhoCalled(n)


def early_inputs(power):
    # q**power * p1 * p2 = 1 (mod 4), q = 3 (mod 4) in the table, p1 and
    # p2 above it, as the benchmark's `early` requests are built
    rng = random.Random(power)
    out = []
    for q in (3, 7, 11, 19, 83, 65519):
        while True:
            p1, p2 = _large_primes(rng, 2)
            n = q**power * p1 * p2
            if n % 4 == 1:
                out.append((q, n))
                break
    return out


class TestEarlyExit:
    @pytest.mark.parametrize("power", [1, 3])
    def test_decided_without_rho(self, monkeypatch, power):
        for q, n in early_inputs(power):
            expected = reference_classify(n)
            assert expected == NonMember(OddValuation(q, power))
            with monkeypatch.context() as mp:
                mp.setattr(arith, "_brent_rho", _raise_rho)
                assert classify(n) == expected

    def test_even_power_reaches_rho(self, monkeypatch):
        # negative control: q**2 decides nothing, so rho must run
        monkeypatch.setattr(arith, "_brent_rho", _raise_rho)
        for _, n in early_inputs(2):
            with pytest.raises(RhoCalled):
                classify(n)


def reference_small_factors(n):
    hits = []
    for run, product in zip(RUNS, RUN_PRODUCTS):
        g = math.gcd(n, product)
        if g > 1:
            hits.append((run, g))
    return reference_extraction(n, hits)


def reference_int64_screen(n):
    # n < 2**63: one int64 remainder pass finds the primes that divide n
    found = INT64_TABLE[np.int64(n) % INT64_TABLE == 0].tolist()
    return reference_extraction(n, [(found, math.prod(found))])


def reference_extraction(n, hits):
    # each hit is (primes in ascending order, the product of those of them
    # that divide n)
    m = n // math.prod(g for _, g in hits)
    counts = {}
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
    if 1 < m < SMALL_LIMIT * SMALL_LIMIT:
        counts[m] = 1
        m = 1
    return counts, m


def assert_same_screen(n):
    counts, m = _small_factors(n)
    wants = [reference_small_factors(n)]
    if n < INT64:
        wants.append(reference_int64_screen(n))
    for want_counts, want_m in wants:
        assert (counts, m) == (want_counts, want_m)
        assert list(counts) == list(want_counts)


def structured_screen_inputs():
    out = [1, 65537, 65537**2, 3 * 65537, 3 * 65537**2]
    # either side of 2**63, alone and times small primes
    for base in (INT64 - 1, INT64, INT64 + 1):
        for k in (1, 2, 3, 7, 65521, 2 * 3 * 5 * 7, 65519 * 65521):
            out.append(base * k)
    # the last primes below 2**16 and the first above, as products
    top = (65519, 65521, 65537)
    for a in top:
        for b in top:
            out += [a * b, a * b * 2**40, a**2 * b**2]
    out.append(math.prod(top) ** 2)
    # p**k on both sides of 2**63
    for p in (3, 65521):
        out += powers_across(p, INT64)
    # the same shapes at 2**64, each value once and only where 2**63's
    # shapes did not already give it
    seen = set(out)
    for n in [(UINT64 + d) * k for d in (-1, 0, 1)
              for k in (1, 2, 3, 7, 65521, 2 * 3 * 5 * 7, 65519 * 65521)] + [
        n for p in (3, 65521) for n in powers_across(p, UINT64)
    ]:
        if n not in seen:
            seen.add(n)
            out.append(n)
    return out


def powers_across(p, edge):
    # p**k either side of edge, and two of them times a further prime
    k = edge.bit_length() // p.bit_length()
    while p**k < edge:
        k += 1
    return [p ** (k - 2), p ** (k - 1), p**k, p ** (k + 1),
            p ** (k - 1) * 65537, p ** (k - 1) * 2]


class TestScreenAgainstRunGcds:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=(1 << 70) - 1))
    def test_uniform(self, n):
        assert_same_screen(n)

    @settings(max_examples=300, deadline=None)
    @given(small_prime_heavy(bound=1 << 70))
    def test_small_prime_heavy(self, n):
        assert_same_screen(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=INT64 - 2**20, max_value=INT64 + 2**20))
    def test_near_int64_edge(self, n):
        assert_same_screen(n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=UINT64 - 1))
    def test_below_uint64(self, n):
        assert_same_screen(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=UINT64 - 2**20, max_value=UINT64 + 2**20))
    def test_near_uint64_edge(self, n):
        assert_same_screen(n)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=UINT64 - 1),
        st.integers(min_value=1, max_value=63),
    )
    def test_even(self, n, shift):
        # 2 is read off n's low bit, not from the odd primes' table
        assert_same_screen(max(n >> shift, 1) << shift)

    @pytest.mark.parametrize("n", structured_screen_inputs())
    def test_structured(self, n):
        assert_same_screen(n)

    def test_cofactors(self):
        # 65537 is moved into counts as a prime; 65537**2 is above 2**32
        # and stays the cofactor
        assert _small_factors(3 * 65537) == ({3: 1, 65537: 1}, 1)
        assert _small_factors(3 * 65537**2) == ({3: 1}, 65537**2)
        assert _small_factors(1) == ({}, 1)


class _CountingMath:
    # stands in for the math module inside arith, counting the gcds taken
    # against a run product
    def __init__(self):
        self.run_gcds = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.run_gcds += any(a in RUN_PRODUCTS for a in args)
        return math.gcd(*args)


class TestRunGcdGate:
    # a semiprime of the benchmark's `budget` shape: two primes = 1 (mod 4)
    # between 4e7 and 1e8, classified at effort 63
    BUDGET = 63072721 * 66660701

    def test_budget_shape_makes_no_run_gcd(self, monkeypatch):
        assert self.BUDGET.bit_length() == 52
        counting = _CountingMath()
        monkeypatch.setattr(arith, "math", counting)
        assert classify(self.BUDGET, effort=63) == Unknown(self.BUDGET)
        assert counting.run_gcds == 0

    def test_above_int64_keeps_the_run_gcds(self, monkeypatch):
        counting = _CountingMath()
        monkeypatch.setattr(arith, "math", counting)
        n = (INT64 + 9) * self.BUDGET
        assert n >= UINT64
        assert _small_factors(n) == reference_small_factors(n)
        assert counting.run_gcds == len(RUNS) == 52

    def test_below_uint64_makes_no_run_gcd(self, monkeypatch):
        # [2**63, 2**64) is screened by the uint64 pass, which took 52 run
        # gcds while the split sat at 2**63
        counting = _CountingMath()
        monkeypatch.setattr(arith, "math", counting)
        for n in (INT64, INT64 + 9, self.BUDGET << 12, 65521**4, UINT64 - 1):
            assert INT64 <= n < UINT64
            assert _small_factors(n) == reference_small_factors(n)
        assert counting.run_gcds == 0


class TestRhoAgainstOneSquaringPerStep:
    def test_every_effort_up_to_200(self):
        for n in SEMIPRIMES:
            for effort in range(201):
                assert _brent_rho(n, effort, 0) == reference_brent_rho(n, effort, 0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=3, max_value=1 << 40),
        st.integers(min_value=3, max_value=1 << 40),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=3),
    )
    def test_composites(self, a, b, effort, seed):
        # every effort, so batches cut short by it leave steps % 4 != 0
        n = a * b
        assert _brent_rho(n, effort, seed) == reference_brent_rho(n, effort, seed)
