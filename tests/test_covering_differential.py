"""Differential test: the per-prime residue walk against per-offset scans.

One covering walk visits each modulus prime's offsets j = -shift (mod p)
once and yields both verify_covering's certificates and the largest
pinned odd valuations halved_modulus reads; exceptional_pairs walks the
halved modulus's large primes the same way.  The reference functions below
are the per-offset and per-prime scans they replaced, kept here as
test-only reference code: the covering tries every prime for every
offset in ascending order, and the halving references are the stride
scans of each prime on its own, with the exceptional pairs' quotients
and cofactors taken from the full integers.  The element checks of
interval_check and find_gap_interval share one checker; the reference
keeps the two loops each of them ran on its own, with their oracle
budgets (value(P) per construction, the element itself in halving).
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps.arith import FactoredInteger, mod_inverse, sieve_primes, valuation
from twosquare_gaps.construction import (
    ORACLE_VALUE_LIMIT,
    Construction,
    CoveringCertificate,
    CoveringReport,
    ElementCheck,
    _covering_walk,
    covering_certificate,
    interval_check,
    richards_construction,
    verify_covering,
)
from twosquare_gaps.halving import (
    enumerate_bad_n,
    exceptional_pairs,
    find_gap_interval,
    halved_modulus,
    has_odd_cover,
)
from twosquare_gaps.oracle import Member, NonMember, OddValuation, TwoPowerForm, classify

DELTAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def reference_certificate(c: Construction, offset: int) -> CoveringCertificate | None:
    # odd primes in ascending order, then the two-power condition
    two = None
    for p, e in c.modulus.factors:
        pe = p**e
        if p == 2:
            two = (e, c.shift % pe)
            continue
        r = (c.shift % pe + offset) % pe
        if r == 0:
            continue  # valuation not pinned by the modulus
        k = valuation(r, p)
        if k % 2 == 1:
            return CoveringCertificate(offset, OddValuation(p, k))
    if two is not None:
        e2, rbase = two
        r = (rbase + offset) % (1 << e2)
        if r:
            k = valuation(r, 2)
            if k + 2 <= e2 and (r >> k) % 4 == 3:
                return CoveringCertificate(offset, TwoPowerForm(k))
    return None


def reference_covering(c: Construction) -> CoveringReport:
    certs = []
    for offset in range(1, c.y + 1):
        cert = reference_certificate(c, offset)
        if cert is None:
            return CoveringReport(c.y, tuple(certs), offset)
        certs.append(cert)
    return CoveringReport(c.y, tuple(certs), None)


def reference_max_odd_valuation(c: Construction, p: int) -> int:
    # strides by p from the least offset with p | shift + j
    pe = p ** c.modulus.exponent(p)
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


def reference_halved_modulus(c: Construction, delta) -> FactoredInteger:
    threshold = math.floor(Fraction(delta) * c.y)
    factors = []
    for p, e in c.modulus.factors:
        if p == 2:
            factors.append((p, e))
            continue
        k = reference_max_odd_valuation(c, p)
        if k:
            factors.append((p, k + 1 if p <= threshold else 1))
    return FactoredInteger(tuple(factors))


def reference_exceptional_pairs(c: Construction, delta) -> list:
    # (a0 + j) // p and value // p as full integers
    threshold = math.floor(Fraction(delta) * c.y)
    halved = reference_halved_modulus(c, delta)
    v = halved.value()
    a0 = c.shift % v or v
    pairs = []
    for p, _ in halved.factors:
        if p <= threshold:
            continue
        cofactor_inv = mod_inverse(v // p, p)
        j = (-a0) % p or p
        while j <= c.y:
            n = (-((a0 + j) // p) * cofactor_inv) % p
            pairs.append((j, p, n if n <= threshold else None))
            j += p
    return pairs


def reference_element_check(
    offset: int, element: int, nm, run_oracle: bool, effort: int
) -> ElementCheck:
    assert nm.holds_for(element)
    status = "skipped"
    if run_oracle:
        verdict = classify(element, effort=effort)
        assert not isinstance(verdict, Member)
        status = "confirmed" if isinstance(verdict, NonMember) else "unknown"
    return ElementCheck(offset, element, nm, status)


def reference_interval_check(
    c: Construction, effort: int, deep_verify: bool
) -> list[ElementCheck]:
    run_oracle = deep_verify or c.modulus.value() <= ORACLE_VALUE_LIMIT
    return [
        reference_element_check(
            cert.offset, c.shift + cert.offset, cert.certificate, run_oracle, effort
        )
        for cert in reference_covering(c).certificates
    ]


def reference_transferred_checks(
    c: Construction, delta, base: int, effort: int, deep_verify: bool
) -> list[ElementCheck]:
    # elements base + j; a large prime's certificate becomes valuation 1
    threshold = math.floor(Fraction(delta) * c.y)
    out = []
    for cert in reference_covering(c).certificates:
        nm = cert.certificate
        if isinstance(nm, OddValuation) and nm.p > threshold:
            nm = OddValuation(nm.p, 1)
        element = base + cert.offset
        run_oracle = deep_verify or element <= ORACLE_VALUE_LIMIT
        out.append(reference_element_check(cert.offset, element, nm, run_oracle, effort))
    return out


def assert_same_covering(c: Construction) -> None:
    assert verify_covering(c) == reference_covering(c)


def assert_same_pinned(c: Construction) -> None:
    # the covering walk's largest pinned odd valuation of each odd prime
    _, pinned, _ = _covering_walk(c.modulus, c.shift, 1, c.y)
    odd = [p for p, _ in c.modulus.factors if p != 2]
    assert pinned == {p: reference_max_odd_valuation(c, p) for p in odd}


class TestCovering:
    def test_richards_up_to_300(self, richards_sweep):
        for c in richards_sweep[:300]:
            assert_same_covering(c)

    @pytest.mark.parametrize("y", [500, 1000, 2300, 2850])
    def test_richards_large(self, y):
        assert_same_covering(richards_construction(y))

    def test_two_power_factor(self):
        for y, shift in ((5, 90), (2, 37), (7, 1), (12, 100)):
            c = Construction(y=y, modulus=FactoredInteger(((2, 4), (3, 2))), shift=shift)
            assert_same_covering(c)

    def test_uncovered_offsets(self):
        # a Richards modulus with a shifted shift leaves holes; the report
        # must stop at the same offset with the same certificate prefix
        holes = 0
        for y in (10, 50, 200):
            base = richards_construction(y)
            for delta in (1, 2, 5, 11):
                shift = (base.shift + delta) % base.modulus.value() or 1
                c = Construction(y=y, modulus=base.modulus, shift=shift)
                got, want = verify_covering(c), reference_covering(c)
                holes += want.first_uncovered is not None
                assert got == want
        assert holes >= 6
        hole = Construction(y=1, modulus=FactoredInteger(((3, 1),)), shift=2)
        assert verify_covering(hole) == reference_covering(hole)

    @pytest.mark.parametrize("v", [100000, 99999])
    def test_huge_two_power_is_fast(self, v):
        # shift + 1 = 2**v is 0 mod 2**100000, or 2**99999, which pins no
        # two-power form; the walk decides it alone instead of stepping k
        c = Construction(y=5, modulus=FactoredInteger(((2, 100000),)), shift=2**v - 1)
        start = time.perf_counter()
        report = verify_covering(c)
        assert time.perf_counter() - start < 0.5
        assert report.first_uncovered == 1
        assert report == reference_covering(c)

    @pytest.mark.parametrize("e", [40000, 40001])
    def test_huge_odd_valuation_is_fast(self, e):
        # shift + 1 = 3**(e - 2): the walk takes its valuation by repeated
        # squares of 3, not by e - 2 divisions of a residue of e * 1.6 bits
        c = Construction(y=5, modulus=FactoredInteger(((3, e),)), shift=3 ** (e - 2) - 1)
        start = time.perf_counter()
        report = verify_covering(c)
        assert time.perf_counter() - start < 0.5
        # an even valuation leaves offset 1 open, an odd one certifies it
        assert report.first_uncovered == (1 if e % 2 == 0 else 2)
        assert report == reference_covering(c)

    def test_two_power_with_holes(self):
        m = FactoredInteger(((2, 5), (3, 3), (7, 2), (11, 1)))
        for shift in range(1, 400, 7):
            assert_same_covering(Construction(y=20, modulus=m, shift=shift))


ODD_PRIMES_3_MOD_4 = [p for p in sieve_primes(60) if p % 4 == 3]


@st.composite
def small_constructions(draw):
    primes = draw(
        st.lists(st.sampled_from(ODD_PRIMES_3_MOD_4), min_size=1, max_size=6, unique=True)
    )
    factors = [(p, draw(st.integers(1, 4))) for p in sorted(primes)]
    e2 = draw(st.integers(0, 64))
    if e2:
        factors.insert(0, (2, e2))
    modulus = FactoredInteger(tuple(factors))
    value = modulus.value()
    y = draw(st.integers(1, 40))
    shift = draw(st.integers(1, value))
    if e2 and draw(st.booleans()):
        # move shift mod 2**e2 so that shift + j0 = 2**v * u at one offset j0,
        # with u odd and v high, v = e2 giving residue 0: past the window's
        # width the walk decides that offset alone
        pe, odd = 1 << e2, value >> e2
        j0 = draw(st.integers(1, y))
        v = draw(st.integers(max(0, e2 - 8), e2))
        u = draw(st.integers(0, pe - 1)) | 1
        t = ((u << v) - j0 - shift) * mod_inverse(odd, pe) % pe
        shift = (shift + odd * t) % value or value
    return Construction(y=y, modulus=modulus, shift=shift)


@settings(max_examples=200, deadline=None)
@given(small_constructions())
def test_small_constructions(c):
    assert_same_covering(c)
    for j in range(1, c.y + 1):
        assert covering_certificate(c, j) == reference_certificate(c, j)
    for delta in DELTAS:
        if delta * c.y > 2:
            halved = halved_modulus(c, delta)
            assert halved == reference_halved_modulus(c, delta)
            assert exceptional_pairs(c, delta) == reference_exceptional_pairs(c, delta)
            if halved == c.modulus:
                # a degenerate halving has no prime above the cutoff, so the
                # general path finds no bad index and picks n = 0
                assert all(p <= math.floor(delta * c.y) for p, _ in halved.factors)
                assert enumerate_bad_n(c, delta) == frozenset()


@settings(max_examples=200, deadline=None)
@given(small_constructions())
def test_small_constructions_pinned(c):
    assert_same_pinned(c)


class TestHalving:
    def test_pinned_valuations_up_to_500(self, richards_sweep):
        for c in richards_sweep:
            assert_same_pinned(c)

    def test_halved_modulus_up_to_500(self, richards_sweep):
        for c in richards_sweep:
            for delta in DELTAS:
                if delta * c.y <= 2:
                    continue
                assert halved_modulus(c, delta) == reference_halved_modulus(c, delta)

    def test_exceptional_pairs_up_to_500(self, richards_sweep):
        for c in richards_sweep:
            for delta in DELTAS:
                if delta * c.y <= 2:
                    continue
                assert exceptional_pairs(c, delta) == reference_exceptional_pairs(c, delta)

    def test_has_odd_cover(self, richards_sweep):
        for c in richards_sweep[:100]:
            for p, _ in c.modulus.factors:
                assert has_odd_cover(c, p) == (reference_max_odd_valuation(c, p) > 0)

    def test_has_odd_cover_builds_no_construction(self, monkeypatch):
        # the walk of one prime power reads c's modulus and shift as they are
        c = richards_construction(300)
        built = []
        post_init = Construction.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Construction, "__post_init__", counted)
        odd = [p for p, _ in c.modulus.factors if p != 2]
        assert len(odd) == 100
        assert all(has_odd_cover(c, p) for p in odd)
        assert built == []

    def test_two_power_factor(self):
        c = Construction(y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90)
        delta = Fraction(7, 10)
        assert halved_modulus(c, delta) == reference_halved_modulus(c, delta)
        assert exceptional_pairs(c, delta) == reference_exceptional_pairs(c, delta)

    def test_prime_divides_shift(self):
        # offset 0 is outside the walk even when p | shift; Richards
        # shifts never have this (4a = -1 mod P)
        m = FactoredInteger(((3, 2), (7, 2), (11, 1), (19, 1)))
        for shift in (21, 231, 63 * 19, 3 * 7 * 11 * 19):
            c = Construction(y=12, modulus=m, shift=shift)
            for delta in DELTAS:
                assert halved_modulus(c, delta) == reference_halved_modulus(c, delta)
                assert exceptional_pairs(c, delta) == reference_exceptional_pairs(c, delta)


# Every Richards element has an odd valuation of a prime below 2**16, so
# trial division decides it; a small rho budget keeps deep_verify cheap
# (the default budget takes minutes on the 49-digit elements of Y = 30).
CHECK_EFFORT = 1000


@pytest.mark.parametrize("deep_verify", [False, True])
class TestElementChecks:
    def test_interval_check(self, richards_sweep, deep_verify):
        two_power = Construction(y=5, modulus=FactoredInteger(((2, 4), (3, 2))), shift=90)
        for c in richards_sweep[:30] + [two_power]:
            got = interval_check(c, effort=CHECK_EFFORT, deep_verify=deep_verify)
            assert got == reference_interval_check(c, CHECK_EFFORT, deep_verify)

    def test_find_gap_interval(self, richards_sweep, deep_verify):
        for c in richards_sweep[4:30]:
            res = find_gap_interval(c, effort=CHECK_EFFORT, deep_verify=deep_verify)
            want = reference_transferred_checks(
                c, Fraction(1, 2), res.interval[0] - 1, CHECK_EFFORT, deep_verify
            )
            assert list(res.certificates) == want


def test_large_prime_pinned_above_one_is_rebuilt():
    # the walk certifies offset 1 by v_3(3267) = 3; at delta = 1/2 the prime
    # 3 lies above the cutoff 2, so the halving must certify that element by
    # valuation exactly 1 rather than carry the walk's (3, 3) over
    m = FactoredInteger(((2, 2), (3, 4), (7, 2), (11, 2), (19, 2)))
    c = Construction(y=5, modulus=m, shift=3266)
    assert verify_covering(c).certificates[0] == CoveringCertificate(1, OddValuation(3, 3))
    res = find_gap_interval(c, effort=CHECK_EFFORT)
    assert res.interval == (75, 79)
    want = reference_transferred_checks(c, Fraction(1, 2), 74, CHECK_EFFORT, False)
    assert list(res.certificates) == want
    assert want[0] == ElementCheck(1, 75, OddValuation(3, 1), "confirmed")
