"""Differential test: the per-prime covering walk against the walks and
per-offset scans it replaced.

One covering walk writes each modulus prime's certificates by list
slices and yields both verify_covering's certificates and the largest
pinned odd valuations halved_modulus reads; exceptional_pairs walks the
halved modulus's large primes by their offsets j = -shift (mod p).  The
reference functions below are the code these replaced, kept here as
test-only reference code: reference_walk is the covering walk that took
one step per offset j = -shift (mod p) of every odd prime, in ascending
order, and filled the offsets still open from the two-power pass last;
the covering reference tries every prime for every offset in ascending
order, and the halving references are the stride scans of each prime on
its own, with the exceptional pairs' quotients and cofactors taken from
the full integers.  The element checks of interval_check and
find_gap_interval are one generator; the reference keeps the two loops
each of them ran on its own, with their oracle budgets (value(P) per
construction, the element itself in halving).
"""

import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosquare_gaps import construction
from twosquare_gaps.arith import (
    FactoredInteger,
    _remainders,
    mod_inverse,
    sieve_primes,
    valuation,
)
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
from twosquare_gaps.oracle import (
    Member,
    NonMember,
    OddValuation,
    TwoPowerForm,
    _two_power_hits,
    classify,
)

DELTAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def reference_walk(modulus: FactoredInteger, shift: int, lo: int, hi: int):
    # one step per offset j = -shift (mod p) of each odd prime, ascending,
    # an offset keeping the first odd valuation; then the two-power pass
    # fills the offsets still open
    table = [None] * (hi - lo + 1)
    pinned = {}
    e2 = r2 = 0
    tree = modulus._tree
    for (p, e), pe, r0 in zip(modulus.factors, tree[0], _remainders(shift, tree)):
        if p == 2:
            e2, r2 = e, r0
            continue
        certs, pp = {}, p * p
        for j in range(lo + (-(r0 + lo)) % p, hi + 1, p):
            r = (r0 + j) % pe
            # k = 0 where p^e divides shift + j: the modulus pins nothing
            k = 1 if r % pp else valuation(r, p) if r else 0
            if k & 1:
                cert = certs.get(k)
                if cert is None:
                    cert = certs[k] = OddValuation._trusted(p, k)
                if table[j - lo] is None:
                    table[j - lo] = cert
        pinned[p] = max(certs, default=0)
    for first, step, k in _two_power_hits(r2 + lo, len(table), 0, e2):
        cert = TwoPowerForm(k)
        for i in range(first, len(table), step):
            if table[i] is None:
                table[i] = cert
    hole = next((lo + i for i, cert in enumerate(table) if cert is None), None)
    return table, pinned, hole


def walk_entries(table: list) -> list:
    # each entry as (type, fields, index of its object's first entry), so
    # that equal lists share certificates between the same offsets
    first = {}
    return [
        None if nm is None
        else (type(nm), tuple(vars(nm).items()), first.setdefault(id(nm), i))
        for i, nm in enumerate(table)
    ]


def assert_lists_each_certificate_once(certs: list, table: list) -> None:
    # the table's indices lie in range(len(certs)), and no two listed
    # certificates are equal; a certificate that later writers cover at
    # every offset of the window stays listed
    assert set(table).difference([None]) <= set(range(len(certs)))
    assert len(set(certs)) == len(certs)


def assert_same_walk(
    modulus: FactoredInteger, shift: int, lo: int, hi: int
) -> tuple[list, list]:
    certs, table, pinned, hole = _covering_walk(modulus, shift, lo, hi)
    want_table, want_pinned, want_hole = reference_walk(modulus, shift, lo, hi)
    got_table = [None if i is None else certs[i] for i in table]
    assert walk_entries(got_table) == walk_entries(want_table)
    assert list(pinned.items()) == list(want_pinned.items())
    assert hole == want_hole
    assert_lists_each_certificate_once(certs, table)
    return certs, table


def assert_same_richards_walk(c: Construction) -> None:
    # on a whole Richards window 1..Y every listed certificate certifies
    # some offset: the table's indices are exactly range(len(certs))
    certs, table = assert_same_walk(c.modulus, c.shift, 1, c.y)
    assert sorted(set(table).difference([None])) == list(range(len(certs)))


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
    _, _, pinned, _ = _covering_walk(c.modulus, c.shift, 1, c.y)
    odd = [p for p, _ in c.modulus.factors if p != 2]
    assert pinned == {p: reference_max_odd_valuation(c, p) for p in odd}


def walk_line_events(walk, *args) -> int:
    # line events of walk(*args) and of every call it makes
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        events += event == "line"
        return tracer

    sys.settrace(tracer)
    try:
        walk(*args)
    finally:
        sys.settrace(None)
    return events


class TestWalk:
    def test_richards_up_to_500(self, richards_sweep):
        for c in richards_sweep:
            assert_same_richards_walk(c)

    @pytest.mark.parametrize("y", [2300, 2700, 2850])
    def test_richards_large(self, y):
        assert_same_richards_walk(richards_construction(y))

    def test_richards_certificate_owns_an_offset(self, richards_sweep):
        # 4(a + j) = 4j - 1 (mod P), so offset j0 = (p^k + 1)/4 has
        # 4j0 - 1 = p^k and (p, k) as its only certificate; p^k <= 4j - 1
        # at any offset j it certifies, so j0 lies in 1..Y
        for c in richards_sweep:
            certs, table, _, _ = _covering_walk(c.modulus, c.shift, 1, c.y)
            for i, nm in enumerate(certs):
                assert isinstance(nm, OddValuation)
                j0 = (nm.p**nm.k + 1) // 4
                assert 1 <= j0 <= c.y
                assert table[j0 - 1] == i

    def test_single_offsets(self, richards_sweep):
        # covering_certificate's one-offset windows
        c = richards_sweep[-1]
        for j in range(1, c.y + 1, 7):
            assert_same_walk(c.modulus, c.shift, j, j)

    def test_empty_modulus(self):
        empty = FactoredInteger(())
        for lo, hi in ((1, 1), (1, 9), (4, 30)):
            assert_same_walk(empty, 1, lo, hi)
        assert _covering_walk(empty, 1, 4, 30) == ([], [None] * 27, {}, 4)

    def test_overwritten_certificate_stays_listed(self):
        # (3, 1) covers the two-power form's only offset, and the walk
        # still lists the form, which the table does not index
        m = FactoredInteger(((2, 12), (3, 2)))
        certs, table, _, _ = _covering_walk(m, 2, 1, 1)
        assert certs == [TwoPowerForm(0), OddValuation(3, 1)]
        assert table == [1]

    def test_python_steps(self):
        # the reference walk steps through every multiple of each odd prime
        # and reads 39,353 line events here on Python 3.11; the slice walk
        # read 21,557 when it stepped through the multiples of p^2
        c = richards_construction(2300)
        args = (c.modulus, c.shift, 1, c.y)
        assert walk_line_events(_covering_walk, *args) < 30000
        assert walk_line_events(reference_walk, *args) > 30000

    def test_one_slice_per_valuation_level(self):
        # a step per multiple of p^2 read 21,555 line events here; one slice
        # per valuation level t while p^t is shorter than the window reads
        # 11,410 on Python 3.11
        c = richards_construction(2300)
        assert walk_line_events(_covering_walk, c.modulus, c.shift, 1, c.y) < 12000

    def test_valuation_calls(self, richards_sweep, monkeypatch):
        # a step per multiple of p^2 took 335 valuations at Y = 2300.  Now
        # only a lone multiple of p^t (p^t at least the width) with v_p > t
        # takes one; 4(a + j) = 4j - 1 (mod P) puts p^(t+1) below 4Y, so
        # p < 4 on a Richards window
        calls = []
        real = construction.valuation

        def counted(r, p):
            calls.append(p)
            return real(r, p)

        monkeypatch.setattr(construction, "valuation", counted)
        for c in richards_sweep + [richards_construction(y) for y in (2300, 2850)]:
            calls.clear()
            _covering_walk(c.modulus, c.shift, 1, c.y)
            assert calls in ([], [3]), c.y
            if c.y == 2300:
                assert calls == []


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


@st.composite
def walk_windows(draw):
    # a modulus with 2^e (e <= 12), odd primes at exponents 1 to 6 and
    # perhaps 3 or 7 at 10^5, a shift in [1, value] and a window lo..hi;
    # optionally the shift is moved mod one p^e so that shift + j0 = p^v * u,
    # p not dividing u, at one offset j0 of the window, with v up to e
    # (0 mod p^e)
    factors = {}
    e2 = draw(st.integers(0, 12))
    if e2:
        factors[2] = e2
    for p in draw(st.lists(st.sampled_from(ODD_PRIMES_3_MOD_4), max_size=5, unique=True)):
        factors[p] = draw(st.sampled_from([1, 1, 2, 2, 3, 4, 5, 6]))
    huge = draw(st.sampled_from([None, None, None, 3, 7]))
    if huge:
        factors[huge] = 10**5
    modulus = FactoredInteger(tuple(sorted(factors.items())))
    value = modulus.value()
    shift = draw(st.integers(1, value))
    lo = draw(st.integers(1, 80))
    hi = lo + draw(st.integers(0, 150))
    if factors and draw(st.booleans()):
        p = draw(st.sampled_from(sorted(factors)))
        e = factors[p]
        pe = p**e
        j0 = draw(st.integers(lo, hi))
        v = draw(st.integers(max(0, e - 8), e))
        u = draw(st.integers(1, p - 1))
        t = (p**v * u - j0 - shift) * mod_inverse(value // pe, pe) % pe
        shift = (shift + value // pe * t) % value or value
    return modulus, shift, lo, hi


@settings(max_examples=300, deadline=None)
@given(walk_windows())
@example((FactoredInteger(()), 1, 1, 1))
@example((FactoredInteger(((3, 10**5),)), 3**99998 - 1, 1, 5))
@example((FactoredInteger(((2, 12), (3, 1), (7, 1))), 5, 3, 3))
# one multiple of 3, shift + 1 = 9, and the next one just past the window
@example((FactoredInteger(((3, 2),)), 8, 1, 3))
# shift + 1 = 3 is 3 * 2^0 and has v_3 = 1: (3, 1) covers the two-power
# form's only offset, so the walk lists both and indexes (3, 1) alone
@example((FactoredInteger(((2, 12), (3, 2))), 2, 1, 1))
# shift + j runs over 55..107: 81 is the one multiple of 27 and has
# v_3 = 4, so no offset has v_3 = 3 and the walk pins 1 at most
@example((FactoredInteger(((3, 6),)), 54, 1, 53))
# shift + j runs over 51..110, with 54, 81 and 108 the multiples of 27: at
# e = 3 the modulus pins none of them, and at e = 4 it pins v_3 = 3 at 54
# and 108 and nothing at 81, decided alone as 81 reaches the width
@example((FactoredInteger(((3, 3),)), 50, 1, 60))
@example((FactoredInteger(((3, 4),)), 50, 1, 60))
def test_walk_windows(window):
    assert_same_walk(*window)


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
