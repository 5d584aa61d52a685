"""The test configuration reports a failing property test in full.

pyproject.toml turns every warning into an error but one: the
DeprecationWarning that hypothesis's pytest plugin raises while it
reports a failing @given test.  As an error it ends the session with an
INTERNALERROR, before the falsifying example and every later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALWAYS_FAILS = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_always_fails(n):
    assert False
"""


def test_failing_property_test_is_reported(tmp_path):
    path = tmp_path / "test_always_fails.py"
    path.write_text(ALWAYS_FAILS)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", str(path),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
