"""Per-call deadlines, outcome bookkeeping and percentiles."""

from __future__ import annotations

import math
import signal
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter, thread_time
from typing import Any


class DeadlineExceeded(Exception):
    """Raised into the running call by the interval timer."""


class Deadline:
    """Runs a call under a wall-clock deadline enforced by SIGALRM.

    The handler raises into the main thread at the next bytecode
    boundary, so a pure-Python loop that never returns is stopped.  Must
    be created and used in the main thread.
    """

    def __init__(self) -> None:
        self._armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self._armed:
            self._armed = False
            raise DeadlineExceeded

    def call(self, fn: Callable[[], Any], seconds: float) -> tuple[Any, float, str | None]:
        """(value, elapsed seconds, failure); failure is None on success,
        'overrun' past the deadline, or the exception's type name."""
        start = perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                value = fn()
            finally:
                # a timer that fires before _armed drops still lands in the
                # outer handler; one that fires after is ignored
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            return None, perf_counter() - start, "overrun"
        except Exception as exc:  # a failed call is a counted outcome, not a crash
            return None, perf_counter() - start, type(exc).__name__
        return value, perf_counter() - start, None


# The speed reference: CPU time of a fixed pure-Python loop on the
# calling thread.  On a shared virtual machine the CPU speed drifts by
# 10-20% over seconds to minutes; every timed sample is scaled by
# REFERENCE_S / (the reference measured just before and after the
# sample's unit), so figures read as seconds on a machine where the loop
# takes REFERENCE_S.  CPU time of the calling thread is unaffected by
# other threads holding the interpreter lock, so work a library leaves
# running in the background cannot flatter the figures.
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.010


def reference_seconds() -> float:
    start = thread_time()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return thread_time() - start


@dataclass
class Recorder:
    """Samples, attempts, failures and output-check errors of one phase.

    Durations are held back until calibrate() closes the current unit
    (a scan call, an oracle round, a ladder rung), then stored scaled to
    the reference speed.
    """

    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    tally: Counter = field(default_factory=Counter)
    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    _pending: list[tuple[str, float]] = field(default_factory=list)
    _last_ref: float = field(default_factory=reference_seconds)

    def time(self, kind: str, seconds: float) -> None:
        self._pending.append((kind, seconds))

    def calibrate(self) -> None:
        ref = reference_seconds()
        factor = REFERENCE_S / ((self._last_ref + ref) / 2)
        self._last_ref = ref
        self.factors.append(factor)
        for kind, seconds in self._pending:
            self.samples[kind].append(seconds * factor)
        self._pending.clear()

    def outcome(self, kind: str, elapsed: float, failure: str | None) -> None:
        self.attempted[kind] += 1
        if failure == "overrun":
            # the timer, not the code's speed, set this duration
            self.samples[kind].append(elapsed)
            self.samples["busy"].append(elapsed)
        else:
            self.time(kind, elapsed)
            self.time("busy", elapsed)
        if failure is not None:
            self.failed[kind] += 1
            self.reasons[f"{kind}: {failure}"] += 1

    def skipped(self, kind: str, reason: str) -> None:
        """A step that could not run because its input failed."""
        self.attempted[kind] += 1
        self.failed[kind] += 1
        self.reasons[f"{kind}: {reason}"] += 1

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


@dataclass(frozen=True)
class Metric:
    """One reported figure; note says what it was computed from."""

    value: float
    unit: str
    note: str = ""


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int
    beyond: int

    @property
    def enough(self) -> bool:
        """At least ten samples lie beyond the percentile."""
        return self.beyond >= 10


def percentile(values: list[float], q: float) -> Percentile:
    """Nearest-rank q-quantile (0 < q < 1) with its sample count."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)

