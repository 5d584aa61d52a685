"""Empirical record-gap scanner over the sums of two squares.

Segmented: each window is marked independently by the parity sieve
(oracle.membership_sieve), and one sequential pass merges the windows in
order, carrying the last member and the record so far (best) across
each boundary, so the output is byte-identical for any segment size.
Segments are sieved and merged one at a time, so memory stays one
segment deep whatever the limit.

A segment is merged one of two ways:

* dense: the positions of all its members, their differences and a
  running maximum give every gap.  The first segment, and each one
  before best reaches 15, is merged so.
* sparse: a gap above best is a run of at least best non-members, which
  holds at least (best - 7) // 8 whole all-zero 8-byte words of the
  boolean segment.  The segment is viewed as uint64 words, shifted ANDs
  keep the runs of that many zero words, and exact members are looked
  up only at those runs and at the gap that crosses the left boundary
  (a word-at-a-time zero search: Warren, Hacker's Delight, 2nd ed.,
  2012, ch. 6).  No array of member positions is built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CapacityError
from .oracle import _SIEVE_VALUE_CAP, membership_sieve

# The reference rates that bounds prints, slopes for g(X)/ln X comparisons.
GAP_RATE_PLAIN = Fraction(195, 449)
GAP_RATE_HALVED = Fraction(390, 449)

DEFAULT_SEGMENT_SIZE = 1 << 20


@dataclass(frozen=True)
class GapRecord:
    """A record gap: no earlier pair of consecutive members is this far apart."""

    s_prev: int
    s_next: int
    gap: int

    @property
    def ratio(self) -> float:
        return self.gap / math.log(self.s_next)


def _first_member(seg: np.ndarray, start: int) -> int:
    # index of the first member at or after start, or -1; the slices
    # double, so a long run of non-members costs a few calls
    width = 64
    while start < len(seg):
        hits = np.flatnonzero(seg[start : start + width])
        if len(hits):
            return start + int(hits[0])
        start += width
        width *= 2
    return -1


def _zero_words(best: int) -> int:
    # A gap above best, inside a segment, is a run of L >= best
    # non-members.  L zero bytes in a row hold at least (L - 7) // 8 whole
    # words.  If the segment's last whole word cuts the run, t <= 6 of its
    # bytes lie in the tail, and the rest ends on a word boundary, so it
    # holds (L - t) // 8 whole words.
    return (best - 7) // 8


def _dense_merge(
    seg: np.ndarray, lo: int, prev: int, best: int, records: list[GapRecord]
) -> tuple[int, int]:
    # every gap in the segment, from its member positions
    chunk = np.flatnonzero(seg)
    chunk += lo
    if len(chunk) == 0:
        return prev, best
    # gaps within the chunk plus the carried gap across the boundary
    gaps = np.diff(chunk, prepend=prev)
    running = np.maximum.accumulate(gaps)
    for i in np.nonzero((gaps == running) & (gaps > best))[0]:
        g = int(gaps[i])
        if g > best:
            best = g
            left = prev if i == 0 else int(chunk[i - 1])
            records.append(GapRecord(left, int(chunk[i]), g))
    return int(chunk[-1]), best


def _sparse_merge(
    seg: np.ndarray, lo: int, prev: int, best: int, runs: int, records: list[GapRecord]
) -> tuple[int, int]:
    # only the gaps that can beat best: the leading gap, and the runs of
    # at least `runs` all-zero words of the segment
    first = _first_member(seg, 0)
    if first < 0:
        return prev, best
    if lo + first - prev > best:
        best = lo + first - prev
        records.append(GapRecord(prev, lo + first, best))
    zero = seg[: len(seg) - len(seg) % 8].view(np.uint64) == 0
    # zero[i] becomes: words i .. i + span - 1 are all zero
    span = 1
    while span < runs:
        step = min(span, runs - span)
        zero = zero[:-step] & zero[step:]
        span += step
    starts = np.flatnonzero(zero)
    # the first word of each run: word i - 1 is not zero, so it holds
    # the run's left member
    starts = starts[np.diff(starts, prepend=-2) > 1].tolist()
    for i in starts:
        if i == 0:
            continue  # the leading gap, tested above
        left = 8 * i - 8 + int(np.flatnonzero(seg[8 * i - 8 : 8 * i])[-1])
        right = _first_member(seg, 8 * (i + runs))
        if right < 0:
            break  # carried into the next segment
        if right - left > best:
            best = right - left
            records.append(GapRecord(lo + left, lo + right, best))
    last = len(seg) - 1 - _first_member(seg[::-1], 0)
    return lo + last, best


def scan_records(
    limit: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    threads: int = 1,
) -> list[GapRecord]:
    """All record gaps (s_prev, s_next, gap) with s_next <= limit.

    The scan starts at 1, the first member, so (1, 2, 1) is always the
    first record.  Output is independent of segment_size.  threads is
    accepted and ignored: every value runs the same sequential loop,
    because a thread pool over segments scanned slower than one thread.
    A limit above the sieve's value cap, 2**50, raises CapacityError
    before any segment is sieved.  limit and segment_size are read
    through operator.index, so numpy integers work and floats raise
    TypeError.
    """
    limit, segment_size = operator.index(limit), operator.index(segment_size)
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > _SIEVE_VALUE_CAP:
        raise CapacityError(f"limit {limit} exceeds {_SIEVE_VALUE_CAP}")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    records: list[GapRecord] = []
    # 1 is the first member; the first segment merges it again, a gap of 0
    prev, best = 1, 0
    for lo in range(1, limit + 1, segment_size):
        seg = membership_sieve(lo, min(lo + segment_size - 1, limit))
        runs = _zero_words(best)
        # runs < 1 while best < 15, and so in the first segment
        if runs < 1:
            prev, best = _dense_merge(seg, lo, prev, best, records)
        else:
            prev, best = _sparse_merge(seg, lo, prev, best, runs, records)
    return records


def max_gap(limit: int) -> int:
    """g(limit): the largest gap between consecutive members <= limit."""
    return scan_records(limit)[-1].gap


def trend_report(limits: list[int]) -> list[tuple[int, int, float]]:
    """Rows (X, g(X), g(X)/ln X) for an ascending list of cutoffs >= 2.

    Compare the last column against GAP_RATE_PLAIN and GAP_RATE_HALVED.
    """
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise ValueError("limits must be strictly ascending")
    if not limits:
        return []
    if limits[0] < 2:
        raise ValueError("limits must be >= 2")
    records = scan_records(limits[-1])
    rows = []
    for x in limits:
        g = max((r.gap for r in records if r.s_next <= x), default=0)
        rows.append((x, g, g / math.log(x)))
    return rows


def records_to_csv(records: list[GapRecord]) -> str:
    """CSV text, columns s_prev,s_next,gap,ratio.  repr() floats, so the
    output round-trips exactly and is stable across platforms."""
    lines = ["s_prev,s_next,gap,ratio"]
    for r in records:
        lines.append(f"{r.s_prev},{r.s_next},{r.gap},{r.ratio!r}")
    return "\n".join(lines) + "\n"
