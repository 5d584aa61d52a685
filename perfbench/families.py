"""The three request families: scan, oracle and construct.

Each family turns seeded items (scan limits, oracle rounds, ladder
passes) into calls on the library under a deadline, records every
outcome, and checks every output it got back outside the timed call.
A workload runs its own family for the measured time; see run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import inputs
from spans import Tracer
from timing import Deadline, Metric, Recorder, percentile
from twosquare_gaps import cli, construction, oracle, scanner

CLASSIFY_DEADLINE_S = 2.0
BUDGET_DEADLINE_S = 0.05
WINDOW_DEADLINE_S = 2.0
SCAN_DEADLINE_S = 120.0
CLI_DEADLINE_S = 20.0
HANG_DEADLINE_S = 0.2

CLASSIFY_KINDS = ("uniform", "member", "early")
P99_BLOCK = 1000
WINDOW_SAMPLE = 8


@dataclass
class Context:
    seed: int
    cpus: frozenset[int]  # the process's CPUs; the main thread runs on one
    workdir: Path
    deadline: Deadline
    tracer: Tracer

    @property
    def threads(self) -> int:
        return len(self.cpus)

    def pin(self) -> None:
        """Keep the main thread on one CPU.  On a shared virtual machine
        the CPUs run at different speeds; a thread that migrates between
        them mid-call is timed at a mix of the two, and the speed
        reference measured around the call may come from the other one."""
        os.sched_setaffinity(0, {max(self.cpus)})

    @contextlib.contextmanager
    def all_cpus(self) -> Iterator[None]:
        """Threads started inside may use every CPU of the process."""
        os.sched_setaffinity(0, self.cpus)
        try:
            yield
        finally:
            self.pin()


def _p(values: list[float], q: float, scale: float, unit: str) -> Metric:
    pct = percentile(values, q)
    note = f"n={pct.samples}, {pct.beyond} beyond"
    if not pct.enough:
        note += " (fewer than 10 beyond)"
    return Metric(pct.value * scale, unit, note)


def _blockwise_p99(values: list[float]) -> Metric:
    """Median over consecutive blocks of P99_BLOCK samples of each block's
    p99 (ten samples beyond it).  A slow spell of the machine lifts the
    p99 of the blocks it falls in, not the median over blocks."""
    blocks = [values[i : i + P99_BLOCK] for i in range(0, len(values) - P99_BLOCK + 1, P99_BLOCK)]
    if len(blocks) < 3:  # a median of one or two blocks is no median
        return _p(values, 0.99, 1e3, "ms")
    return Metric(
        median(percentile(b, 0.99).value for b in blocks) * 1e3, "ms",
        f"median of {len(blocks)} blocks of {P99_BLOCK}, 10 beyond in each",
    )


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def certificate_error(n: int, cert) -> str | None:
    """Replay a non-membership certificate against n, both through the
    library's holds_for and independently of it."""
    if not cert.holds_for(n):
        return f"certificate {cert} does not hold for {n}"
    if isinstance(cert, oracle.OddValuation):
        ok = (
            cert.p % 4 == 3
            and cert.k % 2 == 1
            and inputs.is_probable_prime(cert.p)
            and _valuation(n, cert.p) == cert.k
        )
    elif isinstance(cert, oracle.TwoPowerForm):
        ok = _valuation(n, 2) == cert.k and (n >> cert.k) % 4 == 3
    else:
        return f"unknown certificate type {type(cert).__name__}"
    return None if ok else f"certificate {cert} fails replay for {n}"


def checked(ctx: Context, rec: Recorder, check, *args) -> None:
    """Run an output check outside the timed call, with tracing paused.
    A check that raises is a failed check, not a crashed run."""
    with ctx.tracer.paused():
        try:
            check(*args, rec)
        except Exception as exc:
            rec.errors.append(f"{check.__name__}{args!r:.120}: {type(exc).__name__}: {exc}")


def verdict_error(n: int, verdict) -> str | None:
    """None if the classify verdict for n is consistent and its evidence
    replays, else a description of what is wrong."""
    if isinstance(verdict, oracle.Member):
        if verdict.x * verdict.x + verdict.y * verdict.y != n:
            return f"witness {verdict} does not sum to {n}"
        return None
    if isinstance(verdict, oracle.NonMember):
        return certificate_error(n, verdict.certificate)
    if isinstance(verdict, oracle.Unknown):
        r = verdict.residual
        return None if r > 1 and n % r == 0 else f"residual {r} does not divide {n}"
    return f"unexpected verdict {verdict!r} for {n}"


class ScanFamily:
    """scan_records(limit) at threads=1, then at threads=nproc, each with
    records_to_csv inside the timed call."""

    name = "scan"
    probe_items = 24

    def __init__(self, ctx: Context, probe: bool):
        self.ctx = ctx
        self.probe = probe

    def items(self) -> Iterator[int]:
        return inputs.scan_limits(self.ctx.seed, self.probe)

    def _scan(self, limit: int, threads: int):
        with self.ctx.all_cpus() if threads > 1 else contextlib.nullcontext():
            records = scanner.scan_records(limit, threads=threads)
        return records, scanner.records_to_csv(records)

    def execute(self, limit: int, rec: Recorder) -> None:
        results = {}
        for kind, threads in (("scan", 1), ("scan_mt", self.ctx.threads)):
            value, dt, fail = self.ctx.deadline.call(
                lambda: self._scan(limit, threads), SCAN_DEADLINE_S
            )
            rec.outcome(kind, dt, fail)
            if fail is None:
                rec.time(f"{kind}_per_int", dt / limit)
                results[kind] = value
            rec.calibrate()
        if results:
            checked(self.ctx, rec, self._check, limit, results)

    def _check(self, limit: int, results: dict, rec: Recorder) -> None:
        if len(results) == 2:
            rec.check(
                results["scan"][1] == results["scan_mt"][1],
                f"scan CSV differs between 1 and {self.ctx.threads} threads at {limit}",
            )
        records, _ = next(iter(results.values()))
        first, last = records[0], records[-1]
        rec.check(
            (first.s_prev, first.s_next, first.gap) == (1, 2, 1),
            "first scan record is not (1, 2, 1)",
        )
        rec.check(
            last.s_next <= limit and last.gap == last.s_next - last.s_prev,
            f"last record {last} inconsistent with limit {limit}",
        )
        for n in range(last.s_prev, last.s_next + 1):
            v = oracle.classify(n)
            endpoint = n in (last.s_prev, last.s_next)
            rec.check(
                isinstance(v, oracle.Member if endpoint else oracle.NonMember),
                f"last record {last}: classify({n}) is {v}",
            )
            err = verdict_error(n, v)
            rec.check(err is None, err)

    def metrics(self, rec: Recorder) -> dict[str, Metric]:
        out = {}
        for kind, name in (("scan", "scan_ints_per_s"), ("scan_mt", "scan_mt_ints_per_s")):
            per_int = rec.samples[f"{kind}_per_int"]
            out[name] = Metric(
                1 / median(per_int) if per_int else 0.0, "int/s",
                f"median of {len(per_int)} scans",
            )
        return out


class OracleFamily:
    """Shuffled rounds of classify, budget and window requests."""

    name = "oracle"
    probe_items = 30

    def __init__(self, ctx: Context, probe: bool):
        self.ctx = ctx
        self.probe = probe

    def items(self) -> Iterator[list[inputs.Request]]:
        # a probe has too few windows to fill eleven bands; it measures
        # the middle band only
        stream = inputs.OracleStream(self.ctx.seed, 1 if self.probe else inputs.WINDOW_BANDS)
        while True:
            yield stream.next_round()

    def _call(self, req: inputs.Request):
        if req.kind == "window":
            lo, hi = req.window
            return lambda: oracle.membership_sieve(lo, hi), WINDOW_DEADLINE_S
        if req.kind == "budget":
            return (
                lambda: oracle.classify(req.n, effort=inputs.BUDGET_EFFORT),
                BUDGET_DEADLINE_S,
            )
        return lambda: oracle.classify(req.n), CLASSIFY_DEADLINE_S

    def execute(self, round_: list[inputs.Request], rec: Recorder) -> None:
        completed, spent = 0, 0.0
        for req in round_:
            fn, limit = self._call(req)
            value, dt, fail = self.ctx.deadline.call(fn, limit)
            rec.outcome(req.kind, dt, fail)
            if req.kind in CLASSIFY_KINDS:
                rec.time("classify", dt)
                spent += dt
                completed += fail is None
                rec.tally["decided"] += isinstance(value, (oracle.Member, oracle.NonMember))
            if fail is None:
                checked(self.ctx, rec, self._check, req, value)
        if completed:
            rec.time("classify_round", spent / completed)
        rec.calibrate()

    def _check(self, req: inputs.Request, value, rec: Recorder) -> None:
        if req.kind != "window":
            err = verdict_error(req.n, value)
            rec.check(err is None, f"{req.kind}: {err}")
            return
        lo, hi = req.window
        rec.check(
            value.dtype == bool and len(value) == hi - lo + 1,
            f"window at {lo} has shape {value.shape} dtype {value.dtype}",
        )
        rng = random.Random(self.ctx.seed * 1_000_003 + lo)
        for i in rng.sample(range(len(value)), WINDOW_SAMPLE):
            v = oracle.classify(lo + i)
            if not isinstance(v, oracle.Unknown):
                rec.check(
                    bool(value[i]) == isinstance(v, oracle.Member),
                    f"window bit for {lo + i} disagrees with classify ({v})",
                )

    def metrics(self, rec: Recorder) -> dict[str, Metric]:
        lat = rec.samples["classify"]
        attempted = sum(rec.attempted[k] for k in CLASSIFY_KINDS)
        per_req = rec.samples["classify_round"]
        return {
            "classify_per_s": Metric(
                1 / median(per_req), "1/s", f"median of {len(per_req)} rounds"
            ),
            "classify_p50_us": _p(lat, 0.50, 1e6, "us"),
            "classify_p99_ms": _blockwise_p99(lat),
            "decided_ratio": Metric(
                rec.tally["decided"] / attempted, "ratio", f"of {attempted}"
            ),
            "budget_p50_ms": _p(rec.samples["budget"], 0.50, 1e3, "ms"),
            "window_p50_ms": _p(rec.samples["window"], 0.50, 1e3, "ms"),
        }


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects arguments this way
            return exc.code if isinstance(exc.code, int) else 1


class ConstructFamily:
    """Ladder passes through cli.main: richards, verify and halve per
    rung, then one bounds call."""

    name = "construct"
    probe_items = 15

    def __init__(self, ctx: Context, probe: bool):
        self.ctx = ctx
        self.probe = probe

    def items(self) -> Iterator[tuple[list[int], list[int]]]:
        return inputs.ladder_passes(self.ctx.seed, self.probe)

    def _step(self, kind: str, argv: list[str], out: Path, rec: Recorder) -> bool:
        """Run one command; True if it exited 0."""
        out.unlink(missing_ok=True)
        rc, dt, fail = self.ctx.deadline.call(lambda: _run_cli(argv), CLI_DEADLINE_S)
        if fail is None and rc != 0:
            fail = f"exit {rc}"
        rec.outcome(kind, dt, fail)
        rec.time("construct_step", dt)
        return fail is None

    def execute(self, pass_: tuple[list[int], list[int]], rec: Recorder) -> None:
        rungs, bounds_ys = pass_
        wd = self.ctx.workdir
        first_step = len(rec.samples["construct_step"])
        for y in rungs:
            doc, report, halved = wd / "richards.json", wd / "verify.txt", wd / "halve.json"
            # the top rungs run halve only; see known_defects
            if y < inputs.RICHARDS_BELOW_Y:
                if self._step("richards", ["richards", "--y", str(y), "--out", str(doc)], doc, rec):
                    checked(self.ctx, rec, self._check_document, y, doc)
                    if self._step("verify", ["verify", str(doc), "--out", str(report)], report, rec):
                        checked(self.ctx, rec, self._check_report, y, report)
                else:
                    rec.skipped("verify", "input failed")
            if self._step("halve", ["halve", "--y", str(y), "--out", str(halved)], halved, rec):
                checked(self.ctx, rec, self._check_halving, y, halved)
            rec.calibrate()
        table = wd / "bounds.csv"
        ylist = ",".join(map(str, bounds_ys))
        if self._step("bounds", ["bounds", "--y-list", ylist, "--out", str(table)], table, rec):
            checked(self.ctx, rec, self._check_bounds, bounds_ys, table)
        rec.calibrate()
        # already scaled: the sum of this pass's scaled step times
        rec.samples["construct_pass"].append(sum(rec.samples["construct_step"][first_step:]))

    @staticmethod
    def _check_document(y: int, path: Path, rec: Recorder) -> None:
        text = path.read_text()
        c = construction.construction_from_json(text)
        rec.check(c.y == y, f"richards --y {y} wrote y={c.y}")
        rec.check(
            construction.construction_to_json(c) == text,
            f"richards document for y={y} does not round-trip",
        )

    @staticmethod
    def _check_report(y: int, path: Path, rec: Recorder) -> None:
        lines = path.read_text().splitlines()
        rec.check(
            lines[-1:] == [f"covered: {y}/{y}"] and len(lines) == y + 1,
            f"verify of y={y} does not report full coverage",
        )

    @staticmethod
    def _check_halving(y: int, path: Path, rec: Recorder) -> None:
        doc = json.loads(path.read_text())
        lo, hi = (int(v) for v in doc["interval"])
        rows = doc["certificates"]
        rec.check(
            hi - lo + 1 == y and [r[0] for r in rows] == list(range(1, y + 1)),
            f"halve y={y}: interval or offsets malformed",
        )
        for offset, form, p, k in rows:
            element = lo - 1 + offset
            if form == "odd":
                cert = oracle.OddValuation(p, k)
            elif form == "two_power" and p == 2:
                cert = oracle.TwoPowerForm(k)
            else:
                rec.check(False, f"halve y={y}: unknown certificate row {form}")
                continue
            err = certificate_error(element, cert)
            rec.check(err is None, f"halve y={y} offset {offset}: {err}")

    @staticmethod
    def _check_bounds(ys: list[int], path: Path, rec: Recorder) -> None:
        lines = path.read_text().splitlines()
        ok = lines[0] == "Y,ln_plain,ln_halved,e_plain,e_halved,ratio" and [
            int(line.split(",")[0]) for line in lines[1:]
        ] == ys
        ok = ok and all(
            float(v) > 0 for line in lines[1:] for v in line.split(",")[1:]
        )
        rec.check(ok, f"bounds table for {ys} malformed")

    def metrics(self, rec: Recorder) -> dict[str, Metric]:
        passes = rec.samples["construct_pass"]
        return {
            "construct_s": Metric(
                median(passes), "s", f"median of {len(passes)} ladder passes"
            ),
            "halve_p50_ms": _p(rec.samples["halve"], 0.50, 1e3, "ms"),
        }


FAMILIES = {f.name: f for f in (ScanFamily, OracleFamily, ConstructFamily)}

# The library's known defects, each reproduced by one fixed call.  They
# are kept out of the workloads, whose operations must all succeed, and
# reported on their own: 1 while the defect reproduces, 0 once it is gone.
HANG_N, HANG_EFFORT = 1000033 * 3000029, 50
STR_LIMIT_Y = 2600


def known_defects(ctx: Context) -> dict[str, Metric]:
    """Run each known-defect reproducer once, untimed by the workloads."""
    _, _, fail = ctx.deadline.call(
        lambda: oracle.classify(HANG_N, effort=HANG_EFFORT), HANG_DEADLINE_S
    )
    hang = Metric(
        int(fail == "overrun"), "count",
        f"classify({HANG_N}, effort={HANG_EFFORT}): {fail or 'returned'}; "
        "_brent_rho loops once effort ends partway through a batch",
    )
    out = ctx.workdir / "defect.json"
    argv = ["richards", "--y", str(STR_LIMIT_Y), "--out", str(out)]
    rc, _, fail = ctx.deadline.call(lambda: _run_cli(argv), CLI_DEADLINE_S)
    out.unlink(missing_ok=True)
    str_limit = Metric(
        int(fail is None and rc != 0), "count",
        f"richards --y {STR_LIMIT_Y}: {fail or f'exit {rc}'}; "
        "the shift exceeds the 4300-digit int-to-str limit",
    )
    return {
        "known_defect.brent_rho_hang": hang,
        "known_defect.richards_str_limit": str_limit,
    }
