import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from twosquare_gaps.arith import CapacityError
from twosquare_gaps.oracle import Member, classify, membership_sieve
from twosquare_gaps.scanner import (
    GAP_RATE_HALVED,
    GAP_RATE_PLAIN,
    GapRecord,
    max_gap,
    records_to_csv,
    scan_records,
    trend_report,
)


class TestScanRecords:
    def test_early_records(self):
        recs = [(r.s_prev, r.s_next, r.gap) for r in scan_records(30)]
        assert recs == [(1, 2, 1), (2, 4, 2), (5, 8, 3), (20, 25, 5)]

    def test_trivial_limits(self):
        assert [(r.s_prev, r.s_next, r.gap) for r in scan_records(2)] == [(1, 2, 1)]
        assert [(r.s_prev, r.s_next, r.gap) for r in scan_records(4)] == [
            (1, 2, 1),
            (2, 4, 2),
        ]

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            scan_records(1)
        with pytest.raises(ValueError):
            scan_records(100, segment_size=0)
        # above the sieve's value cap, raised before the first segment
        for scan in (scan_records, max_gap, lambda limit: trend_report([10, limit])):
            with pytest.raises(CapacityError):
                scan(2**50 + 1)

    def test_gaps_strictly_increase(self):
        recs = scan_records(10**5)
        gaps = [r.gap for r in recs]
        assert gaps == sorted(set(gaps))

    def test_records_are_real_gaps(self):
        for r in scan_records(10**4):
            assert r.gap == r.s_next - r.s_prev
            assert isinstance(classify(r.s_prev), Member)
            assert isinstance(classify(r.s_next), Member)
            if r.gap > 1:
                strip = membership_sieve(r.s_prev + 1, r.s_next - 1)
                assert not strip.any()

    def test_segment_size_independence(self):
        base = scan_records(10**5)
        for size in (977, 4096, 10**5 + 7):
            assert scan_records(10**5, segment_size=size) == base

    def test_thread_count_independence(self):
        base = scan_records(10**5, segment_size=4096)
        for threads in (2, 5):
            assert scan_records(10**5, segment_size=4096, threads=threads) == base

    def test_numpy_integer_bounds(self):
        want = scan_records(5000, segment_size=1024)
        assert scan_records(np.int64(5000), segment_size=np.int64(1024)) == want
        assert scan_records(np.uint32(5000), np.int16(1024)) == want

    def test_float_bounds_raise_type_error_first(self):
        for args in ((5000.0,), (1.0,), (2.0**60,), (5000, 1024.0), (5000, 0.0)):
            with pytest.raises(TypeError):
                scan_records(*args)

    def test_traced_peak_of_a_scan(self):
        # A scan to 2**24 holds about one segment's bytes and the sieve's
        # working arrays, ~2.2 MB.  The int64 positions of the first
        # segment's 226,419 members and their differences, as a dense
        # merge builds them, would take the traced peak to ~7 MB.
        limit = (1 << 24) - 1000
        membership_sieve(limit, limit)  # the cached prime table and tile
        tracemalloc.start()
        try:
            scan_records(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_ratio(self):
        r = GapRecord(20, 25, 5)
        assert r.ratio == pytest.approx(5 / math.log(25))


class TestMaxGap:
    def test_known_values(self):
        assert max_gap(25) == 5
        assert max_gap(8) == 3
        assert max_gap(2) == 1

    def test_equals_last_record(self):
        assert max_gap(10**5) == scan_records(10**5)[-1].gap

    def test_matches_monolithic_sieve(self):
        limit = 10**5
        bits = membership_sieve(1, limit)
        members = np.nonzero(bits)[0] + 1
        assert max_gap(limit) == int(np.diff(members).max())


class TestSegmentBoundaries:
    def test_strips_match_monolithic(self):
        # members are generated by x, y far outside any single window;
        # windows must still mark them identically
        hi = 20000
        whole = membership_sieve(1, hi)
        size = 512
        pieces = [
            membership_sieve(lo, min(lo + size - 1, hi))
            for lo in range(1, hi + 1, size)
        ]
        assert np.array_equal(np.concatenate(pieces), whole)


class TestTrendReport:
    def test_single(self):
        rows = trend_report([25])
        assert rows == [(25, 5, pytest.approx(5 / math.log(25)))]

    def test_empty(self):
        assert trend_report([]) == []

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            trend_report([100, 50])

    def test_cutoff_below_2(self):
        for limits in ([1, 10], [0, 10], [-5]):
            with pytest.raises(ValueError, match="limits must be >= 2"):
                trend_report(limits)

    def test_g_column_nondecreasing(self):
        rows = trend_report([10, 100, 1000, 10**4])
        gs = [g for _, g, _ in rows]
        assert gs == sorted(gs)


def test_rate_constants():
    assert GAP_RATE_PLAIN == Fraction(195, 449)
    assert GAP_RATE_HALVED == Fraction(390, 449)
    assert GAP_RATE_HALVED == 2 * GAP_RATE_PLAIN


def test_csv_output():
    text = records_to_csv(scan_records(30))
    lines = text.strip().split("\n")
    assert lines[0] == "s_prev,s_next,gap,ratio"
    assert lines[-1].startswith("20,25,5,1.55")
    # repr floats round-trip
    ratio = float(lines[-1].split(",")[3])
    assert ratio == GapRecord(20, 25, 5).ratio
