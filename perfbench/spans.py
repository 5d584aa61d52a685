"""Span recording around the library's public functions.

The tracer wraps each function in TRACED and rebinds the wrapper under
every name the package's modules hold for it (scanner.membership_sieve,
oracle.factorize, halving.classify, ...), so calls between modules are
caught as well as calls from the benchmark.  Spans (id, parent, name,
start, end, tag) stay in memory until the run ends.  Nothing is installed
unless tracing is asked for, and uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

PACKAGE = "twosquare_gaps"


def _factorize_incomplete(counts, args, kwargs, result) -> None:
    counts["arith.factorize.incomplete"] += result.residual != 1


def _sieve_ints(counts, args, kwargs, result) -> None:
    counts["oracle.membership_sieve.ints"] += len(result)


def _covering_offsets(counts, args, kwargs, result) -> None:
    counts["construction.verify_covering.offsets"] += len(result.certificates) + (
        result.first_uncovered is not None
    )


# module -> function -> counter hook (or None)
TRACED: dict[str, dict[str, Callable | None]] = {
    "arith": {"factorize": _factorize_incomplete, "is_prime": None},
    "oracle": {
        "classify": None,
        "two_square_decomposition": None,
        "membership_sieve": _sieve_ints,
    },
    "scanner": {"scan_records": None},
    "construction": {
        "richards_construction": None,
        "verify_covering": _covering_offsets,
        "construction_to_json": None,
        "construction_from_json": None,
    },
    "halving": {
        "find_gap_interval": None,
        "halved_modulus": None,
        "enumerate_bad_n": None,
        "efficiency_report": None,
        "halving_result_to_json": None,
    },
    "cli": {"main": None},
}

COUNTERS = (
    "arith.factorize.incomplete",
    "oracle.membership_sieve.ints",
    "construction.verify_covering.offsets",
)


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    tag: str  # the subcommand, on cli.main spans


def _cli_tag(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else ""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._bindings: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's outermost call belongs to whatever the main
        # thread is inside, e.g. the scan that submitted it
        try:
            return self._main_stack[-1]
        except IndexError:
            return 0

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tag = _cli_tag if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            label = tag(args, kwargs) if tag else ""
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, label))
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        homes = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED}
        modules = [
            m for k, m in list(sys.modules.items())
            if k == PACKAGE or k.startswith(PACKAGE + ".")
        ]
        for modname, functions in TRACED.items():
            home = homes[modname]
            for fname, hook in functions.items():
                original = getattr(home, fname)
                wrapper = self.wrap(f"{modname}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, attr, original))
                            setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside (output checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\ttag\n")
            for s in self.spans:
                fh.write(f"{s.id}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}\t{s.tag}\n")


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover.  Children
    from worker threads may overlap each other; their union counts once."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, []))
        for s in spans
    }


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Function name -> (calls, total self seconds)."""
    own = self_times(spans)
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        totals[s.name][0] += 1
        totals[s.name][1] += own[s.id]
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}


def calls_per_command(spans: list[Span]) -> dict[str, dict[str, float]]:
    """For each cli subcommand, the mean number of calls of each traced
    function made beneath one invocation."""
    by_id = {s.id: s for s in spans}
    invocations: Counter = Counter()
    calls: dict[str, Counter] = defaultdict(Counter)
    for s in spans:
        if s.name == "cli.main":
            invocations[s.tag] += 1
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name != "cli.main":
            p = by_id.get(p.parent)
        if p is not None:
            calls[p.tag][s.name] += 1
    return {
        cmd: {fn: n / invocations[cmd] for fn, n in sorted(calls[cmd].items())}
        for cmd in sorted(invocations)
    }
