import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps import arith, oracle
from twosquare_gaps.arith import CapacityError, valuation
from twosquare_gaps.oracle import (
    Member,
    NonMember,
    OddValuation,
    TwoPowerForm,
    Unknown,
    certify_non_membership,
    classify,
    membership_sieve,
    two_square_decomposition,
)


def naive_members(hi):
    out = set()
    x = 0
    while x * x <= hi:
        y = x
        while x * x + y * y <= hi:
            out.add(x * x + y * y)
            y += 1
        x += 1
    out.discard(0)
    return out


def reference_holds_for(cert: OddValuation, n: int) -> bool:
    # the two-remainder form OddValuation.holds_for ran before it took one
    pk = cert.p**cert.k
    return n >= 1 and n % pk == 0 and n % (pk * cert.p) != 0


def _ints_of(verdict):
    # every integer a verdict carries
    if isinstance(verdict, Member):
        return (verdict.x, verdict.y)
    if isinstance(verdict, Unknown):
        return (verdict.residual,)
    return tuple(vars(verdict.certificate).values())


class TestCertificates:
    def test_odd_valuation_validation(self):
        OddValuation(3, 1)
        OddValuation(7, 3)
        with pytest.raises(ValueError):
            OddValuation(3, 2)  # even k
        with pytest.raises(ValueError):
            OddValuation(5, 1)  # 1 mod 4
        with pytest.raises(ValueError):
            OddValuation(9, 1)  # composite

    def test_odd_valuation_holds(self):
        cert = OddValuation(3, 1)
        assert cert.holds_for(6)
        assert cert.holds_for(21)
        assert not cert.holds_for(18)  # valuation 2
        assert not cert.holds_for(5)

    @given(
        st.sampled_from([3, 7, 11, 19, 43, 10007]),
        st.integers(0, 20).map(lambda i: 2 * i + 1),
        st.integers(min_value=1, max_value=2**4000),
        st.integers(0, 3),
    )
    def test_odd_valuation_holds_matches_two_remainders(self, p, k, m, extra):
        cert = OddValuation(p, k)
        pk = p**k
        for n in (
            0,
            -m,
            -pk * m,
            pk,
            pk * p ** (extra + 1) * m,
            pk * (m * p + 1),
            pk * m,
            m,
            m * p**extra,
        ):
            assert cert.holds_for(n) == reference_holds_for(cert, n)
        assert cert.holds_for(pk)
        assert not cert.holds_for(pk * p)
        assert not cert.holds_for(-pk)

    @given(
        st.sampled_from([3, 7, 11, 19, 43, 10007]),
        st.integers(0, 20).map(lambda i: 2 * i + 1),
        st.integers(0, 70),
        st.integers(min_value=-(2**600), max_value=2**600),
        st.integers(0, 3),
    )
    def test_residue_test_matches_definition(self, p, k, k2, m, extra):
        # holds_for is holds_mod on n mod modulus(), the test the element
        # stream runs; both agree with the definitions for every sign of n
        odd, two = OddValuation(p, k), TwoPowerForm(k2)
        assert odd.modulus() == p ** (k + 1) and two.modulus() == 2 ** (k2 + 2)
        pk = p**k
        for n in (
            *range(-3, 4),
            m,
            -m,
            pk * m,
            pk * p * m,
            pk * (m * p + 1),
            pk * p**extra * m,
            m << k2,
            (4 * m + 3) << k2,
            ((4 * m + 3) << k2) * pk,
        ):
            on_odd = n >= 1 and valuation(n, p) == k
            on_two = n >= 1 and valuation(n, 2) == k2 and (n >> k2) % 4 == 3
            assert (odd.holds_for(n), two.holds_for(n)) == (on_odd, on_two), n
            if n >= 1:
                assert odd.holds_mod(n % odd.modulus()) == on_odd
                assert two.holds_mod(n % two.modulus()) == on_two

    @settings(max_examples=50)
    @given(st.integers(3000, 6000), st.randoms(use_true_random=False))
    def test_odd_valuation_holds_on_large_integers(self, bits, rnd):
        for p, k in ((3, 1), (3, 5), (7, 3), (2**31 - 1, 1)):
            cert = OddValuation(p, k)
            for n in (rnd.getrandbits(bits), rnd.getrandbits(bits) * p**k):
                assert cert.holds_for(n) == reference_holds_for(cert, n)

    def test_two_power_form(self):
        assert TwoPowerForm(2).holds_for(12)
        assert TwoPowerForm(0).holds_for(3)
        assert not TwoPowerForm(1).holds_for(12)
        assert not TwoPowerForm(2).holds_for(20)  # 20 = 4*5, 5 = 1 mod 4
        with pytest.raises(ValueError):
            TwoPowerForm(-1)
        # holds_for reads the integer; it used to build the certificate of
        # n and compare the two, kept here as the reference
        rng = random.Random(0)
        for _ in range(3000):
            k = rng.randrange(12)
            j = rng.choice((k, rng.randrange(12)))
            odd = 4 * rng.randrange(1 << rng.randrange(1, 200)) + rng.choice((1, 3))
            for n in (odd << j, -(odd << j), 0, rng.randrange(-64, 64)):
                expected = n >= 1 and oracle._two_power_form(n) == TwoPowerForm(k)
                assert TwoPowerForm(k).holds_for(n) == expected, (k, n)

    def test_certificates_are_sound(self):
        members = naive_members(3000)
        for n in range(1, 3001):
            for cert in (
                OddValuation(3, valuation(n, 3)) if valuation(n, 3) % 2 else None,
                TwoPowerForm(valuation(n, 2)),
            ):
                if cert is not None and cert.holds_for(n):
                    assert n not in members


class TestClassify:
    def test_examples(self):
        v = classify(25)
        assert isinstance(v, Member) and v.x**2 + v.y**2 == 25
        assert classify(2) == Member(1, 1)
        assert classify(1) == Member(0, 1)
        v6 = classify(6)
        assert isinstance(v6, NonMember) and v6.certificate.holds_for(6)

    def test_large_member_by_factorization(self):
        v = classify(88135877101042)
        assert isinstance(v, Member)
        assert v.x**2 + v.y**2 == 88135877101042

    def test_unknown_when_budget_exhausted(self):
        n = 1000000000061 * 1000000000121  # both primes are 1 mod 4
        v = classify(n, effort=0)
        assert isinstance(v, Unknown) and v.residual == n
        assert isinstance(classify(n), Member)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify(0)

    def test_agrees_with_enumeration(self):
        members = naive_members(2000)
        for n in range(1, 2001):
            v = classify(n)
            assert isinstance(v, (Member, NonMember))
            assert isinstance(v, Member) == (n in members)

    def test_certificate_prime_tested_once(self, monkeypatch):
        # rho splits n and tests each factor; the certificate for 999983
        # must not test it again
        calls = []
        real = arith.is_prime

        def counting(n, seed=0):
            calls.append(n)
            return real(n, seed=seed)

        monkeypatch.setattr(arith, "is_prime", counting)
        monkeypatch.setattr(oracle, "is_prime", counting)
        oracle._checked_cert_prime.cache_clear()
        v = classify(1000003 * 999983 * 1000037)
        assert calls.count(999983) == 1
        assert calls.count(1000003) == 1
        assert v == NonMember(OddValuation(999983, 1))

    @pytest.mark.parametrize(
        "n", [1, 2, 25, 6, 1001, 4204471795837421, 999983**3, (1 << 63) + 9]
    )
    def test_numpy_integers_answer_as_python_ints(self, n):
        for effort in (63, arith.DEFAULT_EFFORT):
            want = classify(n, effort=effort)
            kinds = (np.int64, np.uint64) if n < 1 << 63 else (np.uint64,)
            for kind in kinds:
                got = classify(kind(n), effort=effort)
                assert got == want
                assert all(type(v) is int for v in _ints_of(got))

    def test_float_raises_type_error_first(self):
        # before the range check, which would raise ValueError for 0 and -3
        for n in (0.0, -3.0, 25.0, np.float64(25), np.float64(0)):
            with pytest.raises(TypeError):
                classify(n)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=10**10))
    def test_verdicts_carry_evidence(self, n):
        v = classify(n)
        if isinstance(v, Member):
            assert v.x**2 + v.y**2 == n
        elif isinstance(v, NonMember):
            assert v.certificate.holds_for(n)


class TestTwoSquareDecomposition:
    def test_small_primes(self):
        assert two_square_decomposition(2) == (1, 1)
        assert two_square_decomposition(5) == (1, 2)
        assert two_square_decomposition(13) == (2, 3)

    def test_many_primes(self):
        from twosquare_gaps.arith import sieve_primes

        for p in sieve_primes(3000):
            if p % 4 == 1:
                x, y = two_square_decomposition(p)
                assert x * x + y * y == p and 0 < x <= y

    def test_large_prime(self):
        p = 1000000000061
        x, y = two_square_decomposition(p)
        assert x * x + y * y == p

    def test_rejects_wrong_inputs(self):
        with pytest.raises(ValueError):
            two_square_decomposition(7)
        with pytest.raises(ValueError):
            two_square_decomposition(25)


class TestCertifyNonMembership:
    def test_examples(self):
        assert certify_non_membership(45, [3]) is None  # 45 = 36 + 9
        assert certify_non_membership(21, [3, 7]) == OddValuation(3, 1)
        assert certify_non_membership(12, []) == TwoPowerForm(2)
        assert certify_non_membership(3, []) == TwoPowerForm(0)

    def test_first_listed_prime_wins(self):
        assert certify_non_membership(21, [7, 3]) == OddValuation(7, 1)

    def test_each_prime_checked_once(self, monkeypatch):
        # the certificate is built from the prime just checked, unchecked
        expected = OddValuation(7, 1)
        checked = []
        real = oracle._checked_cert_prime

        def recording(p):
            checked.append(p)
            return real(p)

        monkeypatch.setattr(oracle, "_checked_cert_prime", recording)
        assert certify_non_membership(945, [19, 7, 3]) == expected  # 3^3 * 5 * 7
        assert checked == [19, 7]

    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            certify_non_membership(10, [5])
        with pytest.raises(ValueError):
            certify_non_membership(10, [39])  # composite, 3 mod 4

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="expects n >= 1"):
            certify_non_membership(0, [3])

    def test_soundness_against_sieve(self):
        from twosquare_gaps.arith import sieve_primes

        primes = [p for p in sieve_primes(100) if p % 4 == 3]
        bits = membership_sieve(1, 10**4)
        for n in range(1, 10**4 + 1):
            if certify_non_membership(n, primes) is not None:
                assert not bits[n - 1]


class TestMembershipSieve:
    def test_window_1_30(self):
        bits = membership_sieve(1, 30)
        got = {i + 1 for i in np.nonzero(bits)[0]}
        assert got == {1, 2, 4, 5, 8, 9, 10, 13, 16, 17, 18, 20, 25, 26, 29}

    def test_single_cell(self):
        assert membership_sieve(1, 1).tolist() == [True]
        assert membership_sieve(3, 3).tolist() == [False]

    def test_matches_enumeration(self):
        hi = 5000
        bits = membership_sieve(1, hi)
        members = naive_members(hi)
        assert {i + 1 for i in np.nonzero(bits)[0]} == members

    def test_offset_window_matches_classify(self):
        lo = 10**6
        bits = membership_sieve(lo, lo + 300)
        for i, bit in enumerate(bits.tolist()):
            assert bit == isinstance(classify(lo + i), Member)

    def test_large_values_exact(self):
        # near 10^14: floats would misplace these, isqrt must not
        n = 10**14
        bits = membership_sieve(n, n + 2)
        assert bits.tolist() == [
            isinstance(classify(n + i), Member) for i in range(3)
        ]

    def test_errors(self):
        with pytest.raises(ValueError):
            membership_sieve(0, 5)
        with pytest.raises(ValueError):
            membership_sieve(7, 6)
        with pytest.raises(CapacityError):
            membership_sieve(1, (1 << 26) + 1)
        with pytest.raises(CapacityError):
            membership_sieve((1 << 50) + 1, (1 << 50) + 2)
        with pytest.raises(CapacityError):
            membership_sieve((1 << 62) + 1, (1 << 62) + 2)

    def test_numpy_integer_bounds(self):
        lo = 10**10
        want = membership_sieve(lo, lo + 999)
        for kind in (np.int64, np.uint64):
            got = membership_sieve(kind(lo), kind(lo + 999))
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert membership_sieve(np.int32(1), np.int8(30)).tolist() == (
            membership_sieve(1, 30).tolist()
        )

    def test_float_bounds_raise_type_error_first(self):
        # before the range and capacity checks, which would raise
        # ValueError or CapacityError for these values as integers
        for lo, hi in ((1.0, 5), (1, 5.0), (0.0, 5), (1, 2.0**60), (np.float64(9), 9)):
            with pytest.raises(TypeError):
                membership_sieve(lo, hi)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**6))
def test_classify_and_sieve_agree(n):
    bit = bool(membership_sieve(n, n)[0])
    assert bit == isinstance(classify(n), Member)
