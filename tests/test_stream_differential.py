"""Differential tests of the one-pass construct path and its remainder tree.

The covering walk and the exceptional pairs take their starting residues
from a remainder tree (arith._product_tree and arith._remainders); the
reference below is the direct n % m per modulus that they replaced, kept
here as test-only reference code.  The CLI's halve, verify and bounds go
from the walk to their output rows with no ElementCheck or
CoveringCertificate per element; what they print must equal what the
public API's objects give through the same writers.
"""

import contextlib
import dataclasses
import io
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import twosquare_gaps.cli as cli
from twosquare_gaps.arith import FactoredInteger, _product_tree, _remainders
from twosquare_gaps.construction import (
    Construction,
    construction_from_json,
    construction_to_json,
    covering_certificate,
    richards_construction,
    verify_covering,
)
from twosquare_gaps.halving import (
    HalvingResult,
    NoGoodIntervalError,
    _gap_interval,
    efficiency_report,
    efficiency_row,
    find_gap_interval,
    halving_result_to_json,
    has_odd_cover,
)
from twosquare_gaps.oracle import OddValuation

from test_covering_differential import reference_covering, small_constructions


def reference_remainders(n: int, moduli: list[int]) -> list[int]:
    return [n % m for m in moduli]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 2**300), min_size=1, max_size=80),
    st.integers(-(2**4000), 2**4000),
)
def test_remainders_match_direct(moduli, n):
    tree = _product_tree(moduli)
    assert tree[-1] == [math.prod(moduli)]
    assert _remainders(n, tree) == reference_remainders(n, moduli)


@pytest.mark.parametrize("leaves", [1, 2, 7, 8, 9, 63, 64, 65, 512, 513, 700])
def test_remainders_at_fanout_edges(leaves):
    rng = random.Random(leaves)
    moduli = [rng.randrange(1, 2 ** rng.randrange(1, 90)) for _ in range(leaves)]
    tree = _product_tree(moduli)
    for n in (0, 1, tree[-1][0] - 1, tree[-1][0], rng.randrange(2**20000)):
        assert _remainders(n, tree) == reference_remainders(n, moduli)


LARGE_EXPONENTS = [
    ((3, 10**5),),
    ((2, 10**5),),
    ((2, 64), (3, 40), (7, 2), (10007, 3)),
    ((3, 1),),
    (),
]


RICHARDS = [richards_construction(y).modulus.factors for y in (10, 237, 2839)]


@pytest.mark.parametrize("factors", LARGE_EXPONENTS + RICHARDS)
def test_modulus_residues_match_direct(factors):
    # the covering walk's starting residues: shift mod each p^e
    modulus = FactoredInteger(factors)
    powers = [p**e for p, e in factors]
    assert modulus.value() == math.prod(powers)
    rng = random.Random(len(factors))
    shifts = [1, modulus.value()] + [rng.randrange(1, modulus.value() + 1) for _ in range(5)]
    for shift in shifts:
        got = _remainders(shift, modulus._tree)[: len(factors)]
        assert got == reference_remainders(shift, powers)


@pytest.mark.parametrize("shift", ["1", "12345", "3" * 4000])
def test_large_exponent_documents(shift):
    # documents whose single modulus prime power runs to 10^5 digits' worth
    for factors in ("[[3, 100000]]", "[[2, 100000]]", "[[2, 7], [3, 100000], [7, 2]]"):
        c = construction_from_json(f'{{"y": 9, "factors": {factors}, "a": "{shift}"}}')
        assert verify_covering(c) == reference_covering(c)


class CountingShift(int):
    """An int that counts the reductions (%, //, divmod) taken of it."""

    reductions = 0

    def __mod__(self, other):
        CountingShift.reductions += 1
        return int.__mod__(self, other)

    def __floordiv__(self, other):
        CountingShift.reductions += 1
        return int.__floordiv__(self, other)

    def __divmod__(self, other):
        CountingShift.reductions += 1
        return int.__divmod__(self, other)


@pytest.mark.parametrize("y", [10, 300, 2300])
def test_walk_reduces_the_shift_once(y, monkeypatch):
    # one remainder of the full shift per walk, however many primes the
    # modulus has (per prime before the remainder tree)
    base = richards_construction(y)
    c = Construction(y=y, modulus=base.modulus, shift=CountingShift(base.shift))
    assert len(c.modulus.factors) > 5
    monkeypatch.setattr(CountingShift, "reductions", 0)
    assert verify_covering(c).ok
    assert CountingShift.reductions == 1
    for offset in (1, y):
        assert covering_certificate(c, offset) is not None
    assert CountingShift.reductions == 3
    # has_odd_cover walks one prime power; the halving adds the reduced shift
    assert has_odd_cover(c, 3) and CountingShift.reductions == 4
    find_gap_interval(c, effort=1000)
    assert CountingShift.reductions == 6


def run_cli(*argv, stdin: str = ""):
    # (exit code, stdout, stderr); hypothesis tests cannot take capsys
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@example(10, Fraction(1, 4), False, 0)  # no good index
@example(20, Fraction(1, 2), True, 1)  # every element through the oracle
@example(60, Fraction(3, 4), True, 0)
@given(
    st.integers(5, 70),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.booleans(),
    st.integers(0, 3),
)
def test_halve_document_equals_public_api(y, delta, deep_verify, seed):
    assume(0 < delta < 1 and delta * y > 2)
    argv = ["halve", "--y", str(y), "--delta", str(delta), "--seed", str(seed)]
    code, out, err = run_cli(*argv, *(["--deep-verify"] if deep_verify else []))
    c = richards_construction(y)
    try:
        res = find_gap_interval(c, delta, deep_verify=deep_verify, seed=seed)
    except NoGoodIntervalError as exc:
        assert (code, out) == (4, "")
        assert err == f"no good interval index; bad set: {sorted(exc.bad_n)}\n"
        return
    assert (code, out) == (0, halving_result_to_json(res))
    # the CLI's halving value is the public result without its certificates
    head = _gap_interval(c, delta, deep_verify=deep_verify, seed=seed)[0]
    assert isinstance(head, HalvingResult)
    assert head == dataclasses.replace(res, certificates=())
    row = efficiency_row(c, res)
    ratio_line = f"e_plain={row[3]:.4f} e_halved={row[4]:.4f} ratio={row[5]:.4f}\n"
    assert err.endswith(ratio_line)
    assert ("halving disabled" in err) == res.degenerate


def reference_verify_report(c: Construction) -> str:
    # the verify command's lines, from verify_covering's report
    report = verify_covering(c)
    lines = []
    for cert in report.certificates:
        nm = cert.certificate
        if isinstance(nm, OddValuation):
            lines.append(f"offset {cert.offset}: odd p={nm.p} k={nm.k}")
        else:
            lines.append(f"offset {cert.offset}: two_power k={nm.k}")
    if report.ok:
        lines.append(f"covered: {c.y}/{c.y}")
    else:
        lines.append(f"uncovered at offset {report.first_uncovered}")
    return "\n".join(lines) + "\n"


def assert_verify_matches(c: Construction) -> None:
    code, out, err = run_cli("verify", stdin=construction_to_json(c))
    assert (out, err) == (reference_verify_report(c), "")
    assert code == (0 if verify_covering(c).ok else 1)


@settings(max_examples=150, deadline=None)
@given(small_constructions())
def test_verify_report_equals_verify_covering(c):
    assert_verify_matches(c)


@pytest.mark.parametrize("y", [1, 10, 591, 2600])
def test_verify_report_equals_verify_covering_on_richards(y):
    c = richards_construction(y)
    assert_verify_matches(c)
    # a shift moved off the covering leaves holes
    moved = Construction(y=y, modulus=c.modulus, shift=c.shift % c.modulus.value() + 1)
    assert_verify_matches(moved)


def test_bounds_table_equals_efficiency_report():
    ys = [10, 37, 200]
    for delta in (Fraction(1, 2), Fraction(3, 4)):
        code, out, _ = run_cli("bounds", "--y-list", ",".join(map(str, ys)), "--delta", str(delta))
        rows = efficiency_report(ys, delta)
        assert code == 0
        assert out.splitlines()[1:] == [",".join(map(repr, row)) for row in rows]


def traced_halve_peak(y: int, tmp_path) -> int:
    target = str(tmp_path / "h.json")
    assert run_cli("halve", "--y", str(y), "--out", target)[0] == 0  # lazy tables
    tracemalloc.start()
    try:
        assert run_cli("halve", "--y", str(y), "--out", target)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_halve_memory_grows_linearly(tmp_path):
    # the stream checks each element by residue tests and builds no
    # element integer, so the traced peak holds what grows linearly in Y,
    # such as the certificate table and the output rows: doubling Y about
    # doubles it (it quadrupled it, less the linear part, while every
    # element was kept)
    small, large = traced_halve_peak(1500, tmp_path), traced_halve_peak(3000, tmp_path)
    assert large / small < 2.5
