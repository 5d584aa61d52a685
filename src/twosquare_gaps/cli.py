"""Command line front end.

Data goes to --out or standard output; diagnostics go to standard error,
so every command pipes cleanly.  Exit codes are part of the interface:

    0  success (verify: fully covered)
    1  verify: some offset has no certificate / unexpected runtime failure
    2  inadmissible modulus prime (or argparse flag errors, its convention)
    3  malformed or out-of-range construction document
    4  halve: every interval index is bad
    5  shift outside [1, value(P)]
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from .construction import (
    InadmissibleModulusError,
    ShiftRangeError,
    construction_from_json,
    construction_to_json,
    richards_construction,
    verify_covering,
)
from .halving import (
    NoGoodIntervalError,
    efficiency_report,
    efficiency_row,
    find_gap_interval,
    halving_result_to_json,
)
from .oracle import OddValuation
from .scanner import (
    DEFAULT_SEGMENT_SIZE,
    GAP_RATE_HALVED,
    GAP_RATE_PLAIN,
    records_to_csv,
    scan_records,
)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_scan(args: argparse.Namespace) -> int:
    records = scan_records(args.limit, segment_size=args.segment_size)
    _write_out(records_to_csv(records), args.out)
    return 0


def _cmd_richards(args: argparse.Namespace) -> int:
    c = richards_construction(args.y)
    if args.format == "json":
        _write_out(construction_to_json(c), args.out)
    else:
        lines = ["p,e"] + [f"{p},{e}" for p, e in c.modulus.factors]
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.construction == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            data = Path(args.construction).read_bytes()
        except OSError as exc:
            print(f"cannot read construction: {exc}", file=sys.stderr)
            return 3
    try:
        # strict UTF-8 whatever the source; UnicodeDecodeError is a ValueError
        c = construction_from_json(data.decode("utf-8"))
    except InadmissibleModulusError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ShiftRangeError as exc:
        print(str(exc), file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"malformed construction: {exc}", file=sys.stderr)
        return 3
    report = verify_covering(c)
    lines = []
    for cert in report.certificates:
        nm = cert.certificate
        if isinstance(nm, OddValuation):
            lines.append(f"offset {cert.offset}: odd p={nm.p} k={nm.k}")
        else:
            lines.append(f"offset {cert.offset}: two_power k={nm.k}")
    if report.ok:
        lines.append(f"covered: {c.y}/{c.y}")
    else:
        lines.append(f"uncovered at offset {report.first_uncovered}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def _cmd_halve(args: argparse.Namespace) -> int:
    c = richards_construction(args.y)
    try:
        res = find_gap_interval(
            c, delta=args.delta, deep_verify=args.deep_verify, seed=args.seed
        )
    except NoGoodIntervalError as exc:
        print(f"no good interval index; bad set: {sorted(exc.bad_n)}", file=sys.stderr)
        return 4
    if res.degenerate:
        print(
            "warning: no modulus prime above delta*y; halving disabled, "
            "single interval at n=0",
            file=sys.stderr,
        )
    row = efficiency_row(c, res)
    print(
        f"e_plain={row[3]:.4f} e_halved={row[4]:.4f} ratio={row[5]:.4f}",
        file=sys.stderr,
    )
    _write_out(halving_result_to_json(res), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    ys = [int(tok) for tok in args.y_list.split(",") if tok.strip()]
    rows = efficiency_report(ys, delta=args.delta)
    lines = ["Y,ln_plain,ln_halved,e_plain,e_halved,ratio"]
    for y, ln_p, ln_h, e_p, e_h, ratio in rows:
        lines.append(f"{y},{ln_p!r},{ln_h!r},{e_p!r},{e_h!r},{ratio!r}")
    print(
        f"reference rates: 195/449 = {float(GAP_RATE_PLAIN):.6f}, "
        f"390/449 = {float(GAP_RATE_HALVED):.6f}",
        file=sys.stderr,
    )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _fraction(text: str) -> Fraction:
    # argparse reports ValueError, not the ZeroDivisionError of "1/0"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="twosquare-gaps",
        description="Covering constructions and gap scans for sums of two squares",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="emit record gaps up to a limit as CSV")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("richards", help="build the covering construction for y")
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_richards)

    p = sub.add_parser("verify", help="check a construction document's covering")
    p.add_argument("construction", nargs="?", default="-",
                   help="path to a construction JSON file, or - for stdin")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("halve", help="halve the modulus and certify an interval")
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 2),
                   help="rational in (0,1), e.g. 1/2 or 0.5")
    p.add_argument("--deep-verify", action="store_true",
                   help="factor every interval element regardless of size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_halve)

    p = sub.add_parser("bounds", help="efficiency table for a list of y values")
    p.add_argument("--y-list", required=True,
                   help="comma separated y values, empty for header only")
    p.add_argument("--delta", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
