"""Failure paths of the element check, shared by the tests and by their
re-run under ``python -O``.

Each failure patches the library so that one of the two checks of a
certified element must fail: the certificate no longer holds on the
element, or the oracle returns a two-squares witness for it.  Both
interval_check and find_gap_interval must then raise AssertionError
with the failure's message, also when Python strips assert statements.

Run as a script (``python -O tests/element_failures.py interval_check``)
it prints the optimize flag, then one line per failure for each named
checker, ending in ``raised`` or ``returned``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twosquare_gaps.construction as construction
from twosquare_gaps.construction import interval_check, richards_construction
from twosquare_gaps.halving import find_gap_interval
from twosquare_gaps.oracle import Member, OddValuation, TwoPowerForm

SRC = Path(__file__).resolve().parent.parent / "src"


def certificate_fails(mp: pytest.MonkeyPatch) -> None:
    for cls in (OddValuation, TwoPowerForm):
        mp.setattr(cls, "holds_mod", lambda self, r: False)


def oracle_finds_witness(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(construction, "classify", lambda n, **kwargs: Member(0, 1))


FAILURES = {"certificate": certificate_fails, "witness": oracle_finds_witness}
MESSAGES = {"certificate": "certificate does not hold", "witness": "oracle found witness"}
CHECKERS = {"interval_check": interval_check, "find_gap_interval": find_gap_interval}


def outcome(checker: str, failure: str) -> str:
    """'raised' if checker raises the failure's AssertionError on Richards
    Y = 10, 'returned' if it returns."""
    with pytest.MonkeyPatch.context() as mp:
        FAILURES[failure](mp)
        try:
            CHECKERS[checker](richards_construction(10))
        except AssertionError as exc:
            return "raised" if MESSAGES[failure] in str(exc) else f"raised {exc!r}"
    return "returned"


def python_optimized(*args: str) -> subprocess.CompletedProcess:
    """``python -O *args`` with the package's source on the path; its exit
    status must be 0."""
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    path = [str(SRC)] + [p for p in inherited if p]
    proc = subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_optimized(checker: str) -> list[str]:
    """This script's output for checker, run by ``python -O``."""
    return python_optimized(__file__, checker).stdout.splitlines()


if __name__ == "__main__":
    print("optimize", sys.flags.optimize)
    for name in sys.argv[1:]:
        for failure in FAILURES:
            print(name, failure, outcome(name, failure))
