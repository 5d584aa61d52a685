"""Differential test: scan_records against the merge it replaced.

reference_scan is test-only reference code: the dense merge that every
segment used to run.  It takes the positions of all members of a
segment with flatnonzero, their differences with diff, and the records
among them with maximum.accumulate.  The library builds no array of
member positions: it looks only at each segment's leading gap and at
its runs of zero units, bytes while best < 31 (up to the record
(241882, 241913)) and 8-byte words after that, so the two must agree
on every limit and segment size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquare_gaps import scanner
from twosquare_gaps.oracle import membership_sieve
from twosquare_gaps.scanner import DEFAULT_SEGMENT_SIZE, GapRecord, scan_records


def reference_scan(limit, segment_size=DEFAULT_SEGMENT_SIZE):
    records = []
    prev = None
    best = 0
    for lo in range(1, limit + 1, segment_size):
        chunk = np.flatnonzero(membership_sieve(lo, min(lo + segment_size - 1, limit)))
        chunk += lo
        if prev is None and len(chunk):
            prev = int(chunk[0])
            chunk = chunk[1:]
        if len(chunk) == 0:
            continue
        gaps = np.diff(chunk, prepend=prev)
        running = np.maximum.accumulate(gaps)
        for i in np.nonzero((gaps == running) & (gaps > best))[0]:
            g = int(gaps[i])
            if g > best:
                best = g
                left = prev if i == 0 else int(chunk[i - 1])
                records.append(GapRecord(left, int(chunk[i]), g))
        prev = int(chunk[-1])
    return records


# (5165, 5184, 19) is found by the byte search, and (284002, 284036, 34)
# is the first record the word search finds
GAP19 = (5165, 5184)
LIMIT19 = 5200
GAP34 = (284002, 284036)
LIMIT34 = 284100


def segment_start(x, size):
    return 1 + (x - 1) // size * size


@pytest.mark.parametrize("segment_size", range(1, 71))
def test_small_limits_every_segment_size(segment_size):
    for limit in range(2, 401):
        assert scan_records(limit, segment_size) == reference_scan(limit), limit


@pytest.mark.parametrize("segment_size", range(1, 71))
def test_word_search_every_segment_size(segment_size):
    got = scan_records(LIMIT19, segment_size)
    assert got[-1] == GapRecord(*GAP19, 19)
    assert got == reference_scan(LIMIT19)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=3_000_000), st.data())
def test_property(limit, data):
    # at most ~2000 segments per example
    smallest = max(1, -(-limit // 2000))
    size = data.draw(st.integers(min_value=smallest, max_value=1 << 20))
    assert scan_records(limit, size) == reference_scan(limit)


@pytest.mark.parametrize("best", range(1, 48))
def test_word_search_finds_every_alignment(best):
    # Synthetic segments, all members but one run of best non-members:
    # a gap of best + 1 at every byte alignment and every tail length,
    # which a search for runs of zero bytes, and from best = 15 one for
    # runs of zero words, must still find.
    for unit in (1, 8) if best >= 15 else (1,):
        check_every_alignment(best, unit)


def check_every_alignment(best, unit):
    lo = 1000
    runs = best if unit == 1 else scanner._zero_words(best)
    assert runs >= 1
    for width in range(best + 2, best + 26):
        for left in range(width - best - 1):
            right = left + best + 1
            seg = np.ones(width, dtype=bool)
            seg[left + 1 : right] = False
            records = []
            prev, top = scanner._run_merge(seg, lo, lo - 1, best, unit, records)
            assert records == [GapRecord(lo + left, lo + right, best + 1)], (
                width,
                left,
            )
            assert (prev, top) == (lo + width - 1, best + 1)


@pytest.mark.parametrize("segment_size", [DEFAULT_SEGMENT_SIZE, 1000])
def test_limits_around_powers_of_two(segment_size):
    # the byte search runs in pieces that end at powers of two, so these
    # limits cut a piece at, just before and just after its end
    for k in range(2, 19):
        for limit in (2**k - 1, 2**k, 2**k + 1):
            assert scan_records(limit, segment_size) == reference_scan(limit), limit


@pytest.fixture
def found_by(monkeypatch):
    # found_by[record] is the unit of the run search that appended it
    units = {}
    merge = scanner._run_merge

    def spy(seg, lo, prev, best, unit, records):
        n = len(records)
        out = merge(seg, lo, prev, best, unit, records)
        units.update((r, unit) for r in records[n:])
        return out

    monkeypatch.setattr(scanner, "_run_merge", spy)
    return units


# The same three shapes at a record of the byte search and at the first
# record of the word search: (record, limit, segment size, unit).
class TestPinned:
    def check(self, found_by, gap, limit, size, unit):
        got = scan_records(limit, size)
        assert got == reference_scan(limit)
        assert got[-1] == GapRecord(*gap, gap[1] - gap[0])
        assert found_by[got[-1]] == unit

    def test_record_ends_in_tail_bytes(self, found_by):
        # segment 5158..5184 is 27 wide, 3 whole words and a 3-byte tail;
        # segment 283969..284036 is 68 wide, 8 whole words and a 4-byte
        # tail; the gap's right member is the segment's last byte
        for gap, limit, size, unit in ((GAP19, LIMIT19, 27, 1), (GAP34, LIMIT34, 68, 8)):
            lo = segment_start(gap[0], size)
            assert lo + size - 1 == gap[1]
            assert gap[1] - lo >= 8 * (size // 8)
            self.check(found_by, gap, limit, size, unit)

    def test_gap_across_segment_boundary(self, found_by):
        # the right member opens a segment, so the record is its leading gap
        for gap, limit, size, unit in ((GAP19, LIMIT19, 73, 1), (GAP34, LIMIT34, 56807, 8)):
            assert segment_start(gap[1], size) == gap[1]
            assert segment_start(gap[0], size) < gap[0]
            self.check(found_by, gap, limit, size, unit)

    @pytest.mark.parametrize("segment_size", [1000, DEFAULT_SEGMENT_SIZE])
    def test_bytes_then_words(self, found_by, segment_size):
        got = scan_records(LIMIT34, segment_size)
        units = [found_by[r] for r in got[1:]]
        assert units == sorted(units)
        assert got[units.index(8)] == GapRecord(241882, 241913, 31)
        assert got[units.index(8) + 1] == GapRecord(*GAP34, 34)

    def test_segment_without_member(self, found_by):
        for gap, limit, size, unit in ((GAP19, LIMIT19, 8, 1), (GAP34, LIMIT34, 16, 8)):
            lo = segment_start(gap[0], size) + size
            assert not membership_sieve(lo, lo + size - 1).any()
            self.check(found_by, gap, limit, size, unit)

    @pytest.mark.parametrize("limit", [685540, 685541, 685542, 685575, 685576, 685577])
    @pytest.mark.parametrize("segment_size", [1000, 4096, 1 << 16, 1 << 20])
    def test_around_record_endpoints(self, limit, segment_size):
        got = scan_records(limit, segment_size)
        assert got == reference_scan(limit)
        assert (got[-1].s_next == 685576) == (limit >= 685576)


def test_segment_opens_inside_a_record_gap():
    # the second segment starts at 1853867, inside the record gap
    # (1853866, 1853914): its first run of zero units is at unit 0, the
    # leading gap, which the run search must skip
    limit, size = 1_900_000, 1_853_866
    assert segment_start(1853867, size) == 1853867
    got = scan_records(limit, size)
    assert GapRecord(1853866, 1853914, 48) in got
    assert got == scan_records(limit) == reference_scan(limit)
