"""Self-tests of the benchmark machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs
from spans import Span, Tracer, calls_per_command, layer_totals, self_times
from timing import Deadline, Recorder, percentile


def _first(it, n):
    return list(itertools.islice(it, n))


def test_generators_deterministic_per_seed():
    a, b, c = (inputs.OracleStream(s) for s in (7, 7, 8))
    rounds_a = [a.next_round() for _ in range(3)]
    assert rounds_a == [b.next_round() for _ in range(3)]
    assert rounds_a != [c.next_round() for _ in range(3)]
    for gen in (inputs.scan_limits, inputs.ladder_passes):
        for probe in (False, True):
            assert _first(gen(7, probe), 4) == _first(gen(7, probe), 4)
            assert _first(gen(7, probe), 4) != _first(gen(8, probe), 4)


def test_oracle_round_composition():
    stream = inputs.OracleStream(3)
    rounds = [stream.next_round() for _ in range(5)]
    assert all(
        [r.kind for r in rnd].count("budget") == inputs.BUDGET_PER_ROUND for rnd in rounds
    )
    for rnd in rounds:
        for r in rnd:
            if r.kind == "early":
                assert r.n % 4 == 1
            if r.kind == "window":
                assert 10**9 <= r.n <= 10**11


def test_ladder_keeps_two_halve_only_rungs_above_2500():
    for rungs, bounds_ys in _first(inputs.ladder_passes(5, False), 20):
        assert sum(y >= inputs.RICHARDS_BELOW_Y for y in rungs) == 2
        assert max(rungs) <= 3000 and min(rungs) >= 9
        assert set(bounds_ys) <= set(rungs)
    for rungs, _ in _first(inputs.ladder_passes(5, True), 5):
        assert max(rungs) < 2500


def test_own_primality_matches_trial_division():
    naive = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(2000) if inputs.is_probable_prime(n)] == naive
    assert inputs.primes_between(1990, 2000) == [n for n in naive if n >= 1990]


def _span(i, parent, start, end, name="f", tag=""):
    return Span(i, parent, name, start, end, tag)


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span(1, 0, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "a"),  # overlaps its sibling, as worker threads do
        _span(4, 2, 2.0, 3.0, "b"),
        _span(5, 1, 8.0, 9.0, "b"),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == own[5] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["a"] == (2, pytest.approx(5.0))
    assert totals["b"] == (2, pytest.approx(2.0))


def test_calls_per_command():
    spans = [
        _span(1, 0, 0, 1, "cli.main", "halve"),
        _span(2, 1, 0, 1, "halving.find_gap_interval"),
        _span(3, 2, 0, 1, "halving.halved_modulus"),
        _span(4, 0, 1, 2, "cli.main", "halve"),
        _span(5, 4, 1, 2, "halving.find_gap_interval"),
    ]
    assert calls_per_command(spans) == {
        "halve": {"halving.find_gap_interval": 1.0, "halving.halved_modulus": 0.5}
    }


def test_deadline_overrun_is_a_failure_and_does_not_stall():
    deadline = Deadline()
    rec = Recorder()

    def spin():
        while True:
            pass

    start = time.perf_counter()
    value, elapsed, failure = deadline.call(spin, 0.05)
    rec.outcome("slow", elapsed, failure)
    assert time.perf_counter() - start < 2.0
    assert value is None and failure == "overrun" and elapsed >= 0.05
    assert (rec.attempted["slow"], rec.failed["slow"]) == (1, 1)

    value, _, failure = deadline.call(lambda: 42, 1.0)
    assert (value, failure) == (42, None)
    time.sleep(0.05)  # a cancelled timer must not fire later

    value, _, failure = deadline.call(lambda: 1 // 0, 1.0)
    assert failure == "ZeroDivisionError"


def test_budget_requests_return_unknown_at_the_workload_effort():
    from twosquare_gaps import oracle

    stream = inputs.OracleStream(4)
    for _ in range(5):
        req = next(r for r in stream.next_round() if r.kind == "budget")
        v = Deadline().call(lambda: oracle.classify(req.n, effort=inputs.BUDGET_EFFORT), 1.0)
        assert isinstance(v[0], oracle.Unknown) and v[2] is None


def test_known_defects_are_reported_without_stalling(tmp_path):
    import families

    ctx = families.Context(
        seed=1, cpus=frozenset({0}), workdir=tmp_path, deadline=Deadline(), tracer=Tracer()
    )
    start = time.perf_counter()
    found = families.known_defects(ctx)
    assert time.perf_counter() - start < 10.0
    assert set(found) == {"known_defect.brent_rho_hang", "known_defect.richards_str_limit"}
    assert all(m.value in (0, 1) and m.unit == "count" for m in found.values())
    assert not list(tmp_path.iterdir())


def test_percentile_reports_samples_beyond():
    p = percentile([float(i) for i in range(1, 1001)], 0.99)
    assert (p.value, p.samples, p.beyond, p.enough) == (990.0, 1000, 10, True)
    assert not percentile([1.0, 2.0, 3.0], 0.5).enough


def test_tracer_rebinds_internal_names_and_restores():
    from twosquare_gaps import arith, oracle, scanner

    originals = (scanner.membership_sieve, oracle.factorize, arith.is_prime)
    # 15 * p with p = 3 (mod 4) above 2**32: factorize runs and calls is_prime
    p = next(q for q in range(2**32 + 3, 2**33, 4) if inputs.is_probable_prime(q))
    tracer = Tracer()
    tracer.install()
    try:
        assert scanner.membership_sieve is not originals[0]
        assert oracle.factorize is not originals[1]
        scanner.scan_records(1000)
        oracle.classify(15 * p)
        with tracer.paused():
            oracle.classify(21)
    finally:
        tracer.uninstall()
    assert (scanner.membership_sieve, oracle.factorize, arith.is_prime) == originals
    names = {s.name for s in tracer.spans}
    assert {"scanner.scan_records", "oracle.membership_sieve", "oracle.classify",
            "arith.factorize", "arith.is_prime"} <= names
    assert sum(s.name == "oracle.classify" for s in tracer.spans) == 1
    by_id = {s.id: s for s in tracer.spans}
    sieve = next(s for s in tracer.spans if s.name == "oracle.membership_sieve")
    assert by_id[sieve.parent].name == "scanner.scan_records"
    assert tracer.counts["oracle.membership_sieve.ints"] == 1000
