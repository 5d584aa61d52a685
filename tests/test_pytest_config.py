"""The test configuration reports a failing property test in full, and
fails a test that hangs.

pyproject.toml turns every warning into an error but one: the
DeprecationWarning that hypothesis's pytest plugin raises while it
reports a failing @given test.  As an error it ends the session with an
INTERNALERROR, before the falsifying example and every later test.

tests/conftest.py runs each test phase under a deadline; a test that
overruns it fails with the traceback of the line it was stuck on, also
after a deadline of its own nested inside (tests/deadlines.py).
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


def run_pytest(path: Path, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
            "-p", "no:cacheprovider", str(path),
        ],
        capture_output=True,
        text=True,
        cwd=path.parent,
        timeout=timeout,
    )


def test_failing_property_test_is_reported(tmp_path):
    path = tmp_path / "test_always_fails.py"
    path.write_text(ALWAYS_FAILS)
    proc = run_pytest(path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


# the deadline hooks of tests/conftest.py, loaded with a 1 s deadline
SHORT_DEADLINE_CONFTEST = f"""
import importlib.util
import sys

sys.path.insert(0, {str(ROOT / "tests")!r})
spec = importlib.util.spec_from_file_location(
    "deadline_hooks", {str(ROOT / "tests" / "conftest.py")!r}
)
hooks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(hooks)
hooks.TEST_DEADLINE_S = 1
pytest_runtest_setup = hooks.pytest_runtest_setup
pytest_runtest_call = hooks.pytest_runtest_call
pytest_runtest_teardown = hooks.pytest_runtest_teardown
"""

HANGS = """
from hypothesis import given
from hypothesis import strategies as st


def test_hangs():
    while True:
        pass


@given(st.integers(0, 10))
def test_hangs_on_some_examples(n):
    while n > 5:
        pass


def test_after_the_hang():
    pass
"""


def test_hanging_test_fails_at_its_deadline(tmp_path):
    (tmp_path / "conftest.py").write_text(SHORT_DEADLINE_CONFTEST)
    path = tmp_path / "test_hangs.py"
    path.write_text(HANGS)
    proc = run_pytest(path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "2 failed, 1 passed" in out
    assert out.count("DeadlineExceeded: test phase ran past its 1 s deadline") == 2
    # each traceback ends in the loop its test was stuck in
    assert "while True:" in out and "while n > 5:" in out


NESTED = """
from deadlines import deadline


def test_hangs_after_a_nested_deadline():
    with deadline(0.2, "block"):
        pass
    while True:
        pass


def test_hangs_in_a_longer_nested_deadline():
    with deadline(30, "block"):
        while True:
            pass


def test_hangs_in_a_shorter_nested_deadline():
    with deadline(0.2, "block"):
        while True:
            pass
"""


def test_nested_deadline_keeps_the_outer_one(tmp_path):
    # one interval timer serves both deadlines: leaving the nested one
    # must re-arm the outer one, not switch it off and hang
    (tmp_path / "conftest.py").write_text(SHORT_DEADLINE_CONFTEST)
    path = tmp_path / "test_nested.py"
    path.write_text(NESTED)
    proc = run_pytest(path, timeout=30)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "3 failed" in out
    assert out.count("DeadlineExceeded: test phase ran past its 1 s deadline") == 2
    assert out.count("DeadlineExceeded: block ran past its 0.2 s deadline") == 1
