"""Empirical record-gap scanner over the sums of two squares.

Segmented: each window is marked independently by the parity sieve
(oracle.membership_sieve), and a single sequential merge pass extracts
record gaps in window order, so the output is byte-identical for any
segment size.  Segments are sieved and merged one at a time, so memory
stays one segment deep whatever the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .oracle import membership_sieve

# Reference slopes for gap/ln comparisons: the plain covering construction
# supports the first, exponent halving doubles it.
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


def _segment_members(lo: int, hi: int) -> np.ndarray:
    members = np.flatnonzero(membership_sieve(lo, hi))
    members += lo
    return members


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
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    records: list[GapRecord] = []
    prev = None
    best = 0
    for lo in range(1, limit + 1, segment_size):
        chunk = _segment_members(lo, min(lo + segment_size - 1, limit))
        if prev is None and len(chunk):
            prev = int(chunk[0])
            chunk = chunk[1:]
        if len(chunk) == 0:
            continue
        # gaps within the chunk plus the carried gap across the boundary
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


def max_gap(limit: int) -> int:
    """g(limit): the largest gap between consecutive members below limit."""
    return scan_records(limit)[-1].gap


def trend_report(limits: list[int]) -> list[tuple[int, int, float]]:
    """Rows (X, g(X), g(X)/ln X) for an ascending list of cutoffs.

    Compare the last column against GAP_RATE_PLAIN and GAP_RATE_HALVED.
    """
    if any(b <= a for a, b in zip(limits, limits[1:])):
        raise ValueError("limits must be strictly ascending")
    if not limits:
        return []
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
