"""Benchmark for twosquare_gaps.

    python3 perfbench/run.py --workload {scan,oracle,construct} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
named workload runs its own request family (see families.py) in a closed
loop with one client for S seconds.  Every output is checked outside the
timed calls, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  Every run reports all of
them: the workload's own family gives the figures it owns, and a small
fixed probe of each other family gives the rest (see README.md); probe
items are spread evenly through the
timed loop.  --trace 1 runs the workload's family for S/2
seconds untraced, replays the same items with spans recorded around the
library's public functions, and reports per-layer calls, self time,
counters and the tracing overhead.

Before either, each known defect of the library is reproduced once by a
fixed call outside the workloads (families.known_defects); the outcome
goes to standard error, and with --trace 1 into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

from spans import COUNTERS, TRACED, Tracer, calls_per_command, layer_totals
from timing import REFERENCE_S, Deadline, Metric, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 9
# A cold start: interpreter, package import, and the lazy tables the
# first classify, sieve and construction build.
SETUP_SNIPPET = (
    "import twosquare_gaps as t; t.classify(10**12 + 39); "
    "t.membership_sieve(1, 1 << 16); t.richards_construction(10)"
)

END_TO_END = (
    "setup_s", "peak_rss_mb", "ok_ratio",
    "scan_ints_per_s", "scan_mt_ints_per_s",
    "classify_per_s", "classify_p50_us", "classify_p99_ms", "decided_ratio",
    "budget_p50_ms", "window_p50_ms",
    "construct_s", "halve_p50_ms",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("scan", "oracle", "construct"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    rec = Recorder()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, check=True, timeout=60,
        )
        rec.time("setup", perf_counter() - start)
        rec.calibrate()
    return rec.samples["setup"]


def run_phase(home, rec, seconds: float, probes=()) -> list:
    """Execute `home` items until `seconds` have passed (at least one
    item); returns the items executed.

    `probes` are (family, recorder) pairs.  Each probe's fixed
    probe_items are spread evenly over the same time: after every home
    item, each probe catches up to the elapsed share of its count, so
    probe samples see the same machine conditions as home samples.
    """
    state = [(fam, prec, iter(fam.items())) for fam, prec in probes]
    ran = [0] * len(state)

    def catch_up(share: float) -> None:
        for i, (fam, prec, items) in enumerate(state):
            while ran[i] < share * fam.probe_items:
                fam.execute(next(items), prec)
                ran[i] += 1

    done = []
    start = perf_counter()
    for item in home.items():
        if done and perf_counter() - start >= seconds:
            break
        home.execute(item, rec)
        done.append(item)
        catch_up(min(1.0, (perf_counter() - start) / seconds))
    catch_up(1.0)
    return done


def plain_run(args, ctx, families) -> tuple[dict, list]:
    setup = measure_setup()
    home = families[args.workload](ctx, probe=False)
    rec = Recorder()
    probes = {
        name: (cls(ctx, probe=True), Recorder())
        for name, cls in families.items()
        if name != args.workload
    }
    run_phase(home, rec, args.seconds, probes.values())
    metrics = {
        "setup_s": Metric(median(setup), "s", f"median of {len(setup)} cold starts"),
        "ok_ratio": Metric(
            1 - rec.total_failed / rec.total_attempted, "ratio",
            f"{rec.total_failed} of {rec.total_attempted} failed",
        ),
    }
    metrics.update(home.metrics(rec))
    for name, (probe, prec) in probes.items():
        for key, m in probe.metrics(prec).items():
            metrics[key] = Metric(m.value, m.unit, f"{name} probe, {m.note}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = Metric(peak, "MB", "ru_maxrss")
    recs = [rec] + [prec for _, prec in probes.values()]
    return {k: metrics[k] for k in END_TO_END}, recs


def traced_run(args, ctx, families) -> tuple[dict, list]:
    home = families[args.workload](ctx, probe=False)
    # warm caches and lazy tables first, so neither pass pays for them
    home.execute(next(iter(home.items())), Recorder())
    plain = Recorder()
    done = run_phase(home, plain, args.seconds / 2)
    traced = Recorder()
    ctx.tracer.install()
    try:
        for item in done:
            home.execute(item, traced)
    finally:
        ctx.tracer.uninstall()
    ctx.tracer.write(OUT / f"spans-{args.workload}.tsv")

    spans = ctx.tracer.spans
    totals = layer_totals(spans)
    metrics = {}
    for module, functions in TRACED.items():
        for fn in functions:
            calls, secs = totals.get(f"{module}.{fn}", (0, 0.0))
            metrics[f"{module}.{fn}.calls"] = Metric(calls, "count")
            metrics[f"{module}.{fn}.self_s"] = Metric(secs, "s")
    for name in COUNTERS:
        metrics[name] = Metric(ctx.tracer.counts[name], "count")
    per_halve = calls_per_command(spans).get("halve", {})
    for fn in ("halving.find_gap_interval", "halving.halved_modulus"):
        metrics[f"{fn}.calls_per_halve"] = Metric(per_halve.get(fn, 0.0), "count")
    busy_traced, busy_plain = sum(traced.samples["busy"]), sum(plain.samples["busy"])
    metrics["trace.overhead_ratio"] = Metric(
        busy_traced / busy_plain, "ratio",
        f"{busy_traced:.3f} s traced / {busy_plain:.3f} s untraced, {len(done)} items",
    )
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "twosquare_gaps" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'twosquare_gaps'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import twosquare_gaps
    from families import FAMILIES, Context, known_defects

    if Path(twosquare_gaps.__file__).resolve().parent != SRC / "twosquare_gaps":
        print(f"perfbench: imported {twosquare_gaps.__file__}, not ./src", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        ctx = Context(
            seed=args.seed,
            cpus=frozenset(os.sched_getaffinity(0)),
            workdir=Path(tmp),
            deadline=Deadline(),
            tracer=Tracer(),
        )
        ctx.pin()
        defects = known_defects(ctx)
        run = traced_run if args.trace else plain_run
        metrics, recs = run(args, ctx, FAMILIES)
    if args.trace:
        metrics.update(defects)

    errors = [e for r in recs for e in r.errors]
    for name, m in metrics.items():
        print(f"{name:44} {m.value:>16.6g} {m.unit:6} {m.note}")
    factors = [f for r in recs for f in r.factors]
    print(
        f"speed factor (reference loop {REFERENCE_S * 1e3:g} ms / measured): "
        f"median {median(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f}",
        file=sys.stderr,
    )
    reasons = sum((r.reasons for r in recs), start=Counter())
    for reason, n in sorted(reasons.items()):
        print(f"failed: {n} x {reason}", file=sys.stderr)
    for name, m in defects.items():
        print(f"{name}: {m.value} ({m.note})", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(r.total_attempted for r in recs),
        "failed": sum(r.total_failed for r in recs),
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
