"""Differential tests of the element stream against the per-element loop.

construction._element_checks checks element base + j as its certificate's
residue test on (base mod q + j) mod q, q the certificate's modulus(),
with base reduced once per entry of the certificate list, and builds
base + j only for the oracle.  The reference below is the loop it
replaced: it builds every element and checks the certificate on the
integer itself, here by the definition (v_p(n) = k, or v_2(n) = k with
odd part 3 mod 4) rather than by holds_for, so the two share no
certificate code and the reference takes its own big remainders per
element.  It is kept here as test-only reference code.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twosquare_gaps.halving as halving
from twosquare_gaps.arith import DEFAULT_EFFORT, valuation
from twosquare_gaps.construction import (
    ORACLE_VALUE_LIMIT,
    _covered_walk,
    _element_checks,
    interval_check,
    richards_construction,
)
from twosquare_gaps.halving import NoGoodIntervalError, _gap_interval
from twosquare_gaps.oracle import Member, NonMember, OddValuation, TwoPowerForm, classify

SMALL_PRIMES_3_MOD_4 = [3, 7, 11, 19, 23, 31, 43, 47]


def reference_holds(cert, n: int) -> bool:
    if n < 1:
        return False
    if isinstance(cert, OddValuation):
        return valuation(n, cert.p) == cert.k
    return valuation(n, 2) == cert.k and (n >> cert.k) % 4 == 3


def reference_element_checks(certs, table, base, oracle_limit, effort, seed):
    # the stream as it was: one element integer and one check on it per j
    for j, i in enumerate(table, 1):
        n = base + j
        if not reference_holds(certs[i], n):
            raise AssertionError(f"certificate does not hold at offset {j}")
        if oracle_limit is not None and n > oracle_limit:
            yield j, i, "skipped"
            continue
        verdict = classify(n, effort=effort, seed=seed)
        if isinstance(verdict, Member):
            raise AssertionError(f"oracle found witness for certified element {n}")
        yield j, i, "confirmed" if isinstance(verdict, NonMember) else "unknown"


def read(stream):
    """Each (j, certificate index, status) the stream yields, and the
    message of the AssertionError that ends it (None if it ends normally)."""
    rows = []
    try:
        for row in stream:
            rows.append(row)
    except AssertionError as exc:
        return rows, str(exc)
    return rows, None


def assert_streams_agree(
    certs, table, base, oracle_limit, effort=DEFAULT_EFFORT, seed=0
):
    args = (certs, table, base, oracle_limit, effort, seed)
    got = read(_element_checks(*args))
    assert got == read(reference_element_checks(*args))
    return got


def interval_args(c):
    # interval_check's arguments to the stream
    certs, table, _ = _covered_walk(c)
    limit = None if c.modulus.value() <= ORACLE_VALUE_LIMIT else 0
    return certs, table, c.shift, limit


def halving_args(c, monkeypatch):
    # _gap_interval's arguments to the stream, None without a good index
    calls = []

    def capture(*args):
        calls.append(args)
        return _element_checks(*args)

    monkeypatch.setattr(halving, "_element_checks", capture)
    try:
        _gap_interval(c, Fraction(1, 2))
    except NoGoodIntervalError:
        return None
    (args,) = calls
    return args


@pytest.mark.parametrize("ys", [range(1, 101), range(101, 251), range(251, 401), [2300]])
def test_richards_streams_agree(ys, monkeypatch):
    for y in ys:
        c = richards_construction(y)
        rows, failure = assert_streams_agree(*interval_args(c))
        assert failure is None and len(rows) == y
        if y * Fraction(1, 2) <= 2:
            continue  # the halving needs delta * y > 2
        args = halving_args(c, monkeypatch)
        if args is not None:
            rows, failure = assert_streams_agree(*args)
            assert failure is None and len(rows) == y


@st.composite
def certified_tables(draw):
    """A certificate list, a table holding for each element the index of a
    certificate that holds on it where one from 2 and a few small primes
    does, shared between offsets or listed afresh (so the list may repeat
    a certificate), and a base >= 0; any certificate elsewhere, so the
    stream may stop there."""
    base = draw(st.one_of(st.integers(0, 10**6), st.integers(0, 2**3000)))
    n = draw(st.integers(1, 60))
    shared = {}
    certs, table = [], []
    for j in range(1, n + 1):
        element = base + j
        k = valuation(element, 2)
        cert = TwoPowerForm(k) if (element >> k) % 4 == 3 else None
        for p in SMALL_PRIMES_3_MOD_4:
            if cert is None and valuation(element, p) % 2:
                cert = OddValuation(p, valuation(element, p))
        if cert is None:
            cert = draw(st.sampled_from([TwoPowerForm(0), OddValuation(3, 1)]))
        i = len(certs)
        if draw(st.booleans()):
            i = shared.setdefault(cert, i)
        if i == len(certs):
            certs.append(cert)
        table.append(i)
    return certs, table, base


@settings(max_examples=300, deadline=None)
@example(([TwoPowerForm(0)], [0] * 3, 2), None)  # elements 3, 4, 5: stops at offset 2
@example(([OddValuation(3, 1)], [0], 2), 0)
# elements 42, 43, 44 with oracle_limit = base + 2: the oracle checks 43,
# the element at the limit, and skips 44
@example(([OddValuation(3, 1), TwoPowerForm(0), TwoPowerForm(2)], [0, 1, 2], 41), 43)
@given(
    certified_tables(),
    st.one_of(st.none(), st.integers(-5, 10**6), st.just(ORACLE_VALUE_LIMIT)),
)
def test_hypothesis_tables_agree(certs_table_base, oracle_limit):
    assert_streams_agree(*certs_table_base, oracle_limit, effort=2000, seed=1)


def wrong_certificate(cert, rnd):
    # a certificate of the same kind with another exponent, or another prime
    if isinstance(cert, TwoPowerForm):
        return TwoPowerForm(cert.k + rnd.choice((1, 2)))
    if rnd.random() < 0.5:
        return OddValuation(cert.p, cert.k + 2)
    return OddValuation(rnd.choice([p for p in SMALL_PRIMES_3_MOD_4 if p != cert.p]), 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.randoms(use_true_random=False), st.booleans())
def test_one_wrong_certificate_fails_at_its_offset(y, rnd, halve):
    c = richards_construction(y)
    certs, table, base, limit = interval_args(c)
    if halve and y > 4:
        with pytest.MonkeyPatch.context() as mp:
            args = halving_args(c, mp)
        if args is not None:
            certs, table, base, limit = args[:4]
    i = rnd.randrange(len(table))
    wrong = wrong_certificate(certs[table[i]], rnd)
    assume(not reference_holds(wrong, base + i + 1))
    # the wrong certificate at offset i + 1 alone
    table = table[:i] + [len(certs)] + table[i + 1 :]
    rows, failure = assert_streams_agree(certs + [wrong], table, base, limit)
    assert failure == f"certificate does not hold at offset {i + 1}"
    assert len(rows) == i


def test_richards_2300_reduces_the_base_once_per_certificate(monkeypatch):
    # one reduction of the ~13,000-bit shift per entry of the walk's
    # certificate list, each a distinct object, not one per element
    calls = []
    for cls in (OddValuation, TwoPowerForm):
        real = cls.modulus
        monkeypatch.setattr(
            cls, "modulus", lambda self, real=real: calls.append(self) or real(self)
        )
    checks = interval_check(richards_construction(2300))
    assert len(checks) == 2300
    assert len(calls) == len({id(cert) for cert in calls}) == 579
    assert {id(chk.certificate) for chk in checks} == {id(cert) for cert in calls}
