"""Differential test: the fixed-shape document writers against json.dumps.

construction_to_json and halving_result_to_json render their documents
row by row from templates.  The reference functions below are the
json.dumps(obj, indent=2) writers they replaced, kept here as test-only
reference code; the two must agree byte for byte on random documents of
both shapes and on real Richards constructions and halving results.
"""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosquare_gaps import construction
from twosquare_gaps.arith import FactoredInteger, _int_to_decimal
from twosquare_gaps.construction import (
    Construction,
    ElementCheck,
    _halving_json,
    construction_to_json,
    richards_construction,
)
from twosquare_gaps.halving import (
    HalvingResult,
    _gap_interval,
    find_gap_interval,
    halving_result_to_json,
)
from twosquare_gaps.oracle import OddValuation, TwoPowerForm


def reference_construction_to_json(c: Construction) -> str:
    obj = {
        "y": c.y,
        "factors": [[p, e] for p, e in c.modulus.factors],
        "a": _int_to_decimal(c.shift),
    }
    return json.dumps(obj, indent=2) + "\n"


def reference_halving_result_to_json(res: HalvingResult) -> str:
    cert_rows = []
    for chk in res.certificates:
        nm = chk.certificate
        if isinstance(nm, OddValuation):
            cert_rows.append([chk.offset, "odd", nm.p, nm.k])
        else:
            cert_rows.append([chk.offset, "two_power", 2, nm.k])
    obj = {
        "delta": str(res.delta),
        "halved_modulus": [[p, e] for p, e in res.halved_modulus.factors],
        "a0": _int_to_decimal(res.a0),
        "bad_n": sorted(res.bad_n),
        "chosen_n": res.chosen_n,
        "interval": [_int_to_decimal(v) for v in res.interval],
        "certificates": cert_rows,
    }
    return json.dumps(obj, indent=2) + "\n"


ODD_PRIMES = [3, 7, 11, 19, 23, 31, 43, 10007, 2**31 - 1]
PRIMES = [2, *ODD_PRIMES]

# decimal strings on both sides of CPython's 4300-digit int<->str limit
big_ints = st.one_of(
    st.integers(0, 10**30),
    st.integers(10**4300, 10**4400),
)


def factor_lists(min_size: int):
    return st.lists(
        st.tuples(st.sampled_from(PRIMES), st.integers(1, 40)),
        min_size=min_size,
        max_size=12,
        unique_by=lambda f: f[0],
    ).map(lambda fs: FactoredInteger(tuple(sorted(fs))))


@st.composite
def constructions(draw):
    modulus = draw(factor_lists(0))
    if draw(st.booleans()):
        # a shift of more than 4300 digits
        rest = [(p, e) for p, e in modulus.factors if p != 3]
        modulus = FactoredInteger(tuple(sorted([(3, 9100), *rest])))
    value = modulus.value()
    shift = draw(st.one_of(st.integers(1, min(value, 10**20)), st.integers(1, value)))
    return Construction(y=draw(st.integers(1, 10**6)), modulus=modulus, shift=shift)


certificates = st.one_of(
    st.builds(
        OddValuation,
        st.sampled_from(ODD_PRIMES),
        st.integers(0, 30).map(lambda i: 2 * i + 1),
    ),
    st.builds(TwoPowerForm, st.integers(0, 64)),
)


@st.composite
def halving_results(draw):
    rows = draw(st.lists(certificates, max_size=40))
    lo = draw(big_ints)
    return HalvingResult(
        y=len(rows),
        delta=draw(st.fractions(min_value=0, max_value=1, max_denominator=10**9)),
        small_part=FactoredInteger(()),
        halved_modulus=draw(factor_lists(1)),
        a0=draw(big_ints),
        bad_n=frozenset(draw(st.lists(st.integers(0, 10**6), max_size=30))),
        chosen_n=draw(st.integers(0, 10**6)),
        interval=(lo + 1, lo + len(rows)),
        certificates=tuple(
            ElementCheck(j, lo + j, cert, "skipped") for j, cert in enumerate(rows, 1)
        ),
        degenerate=False,
    )


@settings(max_examples=150, deadline=None)
@given(constructions())
def test_construction_writer_matches_json_dumps(c):
    assert construction_to_json(c) == reference_construction_to_json(c)


@settings(max_examples=150, deadline=None)
@given(halving_results())
@example(
    HalvingResult(
        y=0,
        delta=Fraction(3, 7),
        small_part=FactoredInteger(()),
        halved_modulus=FactoredInteger(((3, 1),)),
        a0=1,
        bad_n=frozenset(),
        chosen_n=0,
        interval=(1, 0),
        certificates=(),
        degenerate=True,
    )
)
def test_halving_writer_matches_json_dumps(res):
    assert halving_result_to_json(res) == reference_halving_result_to_json(res)


def test_writers_match_json_dumps_on_richards_rungs():
    for y in (1, 2, 3, 5, 10, 16, 20, 37, 96, 200, 2600):
        c = richards_construction(y)
        assert construction_to_json(c) == reference_construction_to_json(c)
        if y >= 5:  # delta * y must exceed 2
            res = find_gap_interval(c, Fraction(1, 2))
            assert halving_result_to_json(res) == reference_halving_result_to_json(res)


def test_halving_writer_renders_each_distinct_certificate_once(monkeypatch):
    # a HalvingResult holds one ElementCheck per row; its writer lists their
    # certificates by value and renders each distinct one once, into the
    # same bytes as the halve command's document from the walk's list
    c = richards_construction(300)
    res = find_gap_interval(c, Fraction(1, 2))
    head, certs, elements = _gap_interval(c, Fraction(1, 2))
    cli_text = _halving_json(head, certs, elements)
    render = construction._certificate_row
    calls = 0

    def counted(nm):
        nonlocal calls
        calls += 1
        return render(nm)

    monkeypatch.setattr(construction, "_certificate_row", counted)
    assert halving_result_to_json(res) == cli_text
    distinct = {chk.certificate for chk in res.certificates}
    assert calls == len(distinct) < len(res.certificates) == 300
