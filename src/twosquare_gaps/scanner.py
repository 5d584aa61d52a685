"""Empirical record-gap scanner over the sums of two squares.

Segmented: each window is marked independently by the parity sieve
(oracle.membership_sieve), and one sequential pass merges the windows in
order, carrying the last member and the record so far (best) across
each boundary, so the output is byte-identical for any segment size.
Segments are sieved and merged one at a time, so memory stays one
segment deep whatever the limit.

No array of member positions is built.  The scan starts from the
record (1, 2, 1), and a gap above best is a run of at least best
non-members, so each segment is searched for runs of zero units of the
boolean segment, viewed as bytes or as uint64 words:

* bytes: runs of best zero bytes.  The byte search runs while best < 31,
  in pieces that end at powers of two, so best keeps pace with the gaps.
* words: such a run holds at least (best - 7) // 8 whole all-zero
  8-byte words.  Runs of one or two words are too common to pay, so
  words take over from best = 31, over the rest of each segment.

Shifted ANDs keep the runs of that many zero units, and exact members
are looked up only at those runs and at the gap that crosses the left
boundary (a word-at-a-time zero search: Warren, Hacker's Delight, 2nd
ed., 2012, ch. 6).
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


def _run_merge(
    seg: np.ndarray, lo: int, prev: int, best: int, unit: int, records: list[GapRecord]
) -> tuple[int, int]:
    # only the gaps that can beat best: the leading gap, and the runs of
    # zero units, bytes (unit 1) or 8-byte words (unit 8), long enough to
    # hold a gap above best
    first = _first_member(seg, 0)
    if first < 0:
        return prev, best
    if lo + first - prev > best:
        best = lo + first - prev
        records.append(GapRecord(prev, lo + first, best))
    runs = best if unit == 1 else _zero_words(best)
    zero = seg[: len(seg) - len(seg) % unit].view(f"u{unit}") == 0
    # zero[i] becomes: units i .. i + span - 1 are all zero
    span = 1
    while span < runs:
        step = min(span, runs - span)
        zero = zero[:-step] & zero[step:]
        span += step
    starts = np.flatnonzero(zero)
    # the first unit of each run: unit i - 1 is not zero, so it holds
    # the run's left member
    starts = starts[np.diff(starts, prepend=-2) > 1].tolist()
    for i in starts:
        if i == 0:
            continue  # the leading gap, tested above
        a = unit * (i - 1)
        left = a + int(np.flatnonzero(seg[a : a + unit])[-1])
        right = _first_member(seg, unit * (i + runs))
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
    # every scan starts from the record (1, 2, 1), so a gap above best
    # holds at least one zero byte, and merging starts at 3
    records = [GapRecord(1, 2, 1)]
    prev, best = 2, 1
    for lo in range(1, limit + 1, segment_size):
        seg = membership_sieve(lo, min(lo + segment_size - 1, limit))
        at = max(0, 3 - lo)
        # Runs of one or two words flood the loop with false candidates,
        # so bytes run while best < 31, in pieces ending at the next power
        # of two, which lets best keep pace with the gaps; words then run
        # over the rest of each segment.
        while at < len(seg) and _zero_words(best) < 3:
            end = min(len(seg), (1 << (lo + at).bit_length()) - lo)
            prev, best = _run_merge(seg[at:end], lo + at, prev, best, 1, records)
            at = end
        if at < len(seg):
            prev, best = _run_merge(seg[at:], lo + at, prev, best, 8, records)
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
