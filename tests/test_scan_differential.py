"""Differential test: scan_records against the merge it replaced.

reference_scan is test-only reference code: the dense merge that every
segment used to run.  It takes the positions of all members of a
segment with flatnonzero, their differences with diff, and the records
among them with maximum.accumulate.  The library runs that merge only
until best reaches 15, at the record (1493, 1508).  After that it looks
only at each segment's leading gap and at its runs of all-zero 8-byte
words, so the two must agree on every limit and segment size.
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


# (5165, 5184, 19) is the first record the word search finds
GAP19 = (5165, 5184)
LIMIT19 = 5200
WORD_SEARCH_FROM = 1508


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


@pytest.mark.parametrize("best", range(15, 48))
def test_word_search_finds_every_alignment(best):
    # Synthetic segments, all members but one run of best non-members:
    # a gap of best + 1 at every byte alignment and every tail length,
    # which a run count of _zero_words(best) words must still find.
    lo = 1000
    runs = scanner._zero_words(best)
    assert runs >= 1
    for width in range(best + 2, best + 26):
        for left in range(width - best - 1):
            right = left + best + 1
            seg = np.ones(width, dtype=bool)
            seg[left + 1 : right] = False
            records = []
            prev, top = scanner._sparse_merge(seg, lo, lo - 1, best, runs, records)
            assert records == [GapRecord(lo + left, lo + right, best + 1)], (
                width,
                left,
            )
            assert (prev, top) == (lo + width - 1, best + 1)


class TestPinned:
    def test_record_ends_in_tail_bytes(self):
        # segment 5158..5184 is 27 wide, 3 whole words and a 3-byte tail,
        # and the gap's right member is its last byte
        size = 27
        lo = segment_start(GAP19[0], size)
        assert lo > WORD_SEARCH_FROM and lo + size - 1 == GAP19[1]
        assert GAP19[1] - lo >= 8 * (size // 8)
        assert scan_records(LIMIT19, size) == reference_scan(LIMIT19)

    def test_gap_across_segment_boundary(self):
        # 5184 opens a segment of 73, so the record is its leading gap
        size = 73
        assert segment_start(GAP19[1], size) == GAP19[1]
        assert segment_start(GAP19[0], size) > WORD_SEARCH_FROM
        assert scan_records(LIMIT19, size) == reference_scan(LIMIT19)

    def test_segment_without_member(self):
        size = 8
        lo = segment_start(GAP19[0], size) + size
        assert lo > WORD_SEARCH_FROM
        assert not membership_sieve(lo, lo + size - 1).any()
        assert scan_records(LIMIT19, size) == reference_scan(LIMIT19)

    @pytest.mark.parametrize("limit", [685540, 685541, 685542, 685575, 685576, 685577])
    @pytest.mark.parametrize("segment_size", [1000, 4096, 1 << 16, 1 << 20])
    def test_around_record_endpoints(self, limit, segment_size):
        got = scan_records(limit, segment_size)
        assert got == reference_scan(limit)
        assert (got[-1].s_next == 685576) == (limit >= 685576)
