import signal

import pytest

from twosquare_gaps import richards_construction

# Every test phase (setup, call, teardown) runs under a wall-clock deadline
# from the stdlib interval timer: its handler raises into the test at the
# next bytecode boundary, so a loop that never ends fails with the
# traceback of where it was instead of hanging the session.  The slowest
# test takes about 3 s.
TEST_DEADLINE_S = 60


class DeadlineExceeded(BaseException):
    """Raised into a test phase that runs past TEST_DEADLINE_S.

    A BaseException, like KeyboardInterrupt, so that hypothesis does not
    take it for a failing example and replay that example to shrink it,
    which would hang again with no timer left; pytest reports it as the
    test's failure all the same.
    """


def _overrun(signum, frame):
    raise DeadlineExceeded(f"test phase ran past its {TEST_DEADLINE_S} s deadline")


def _under_deadline():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _under_deadline()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _under_deadline()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _under_deadline()


@pytest.fixture(scope="session")
def richards10():
    return richards_construction(10)


@pytest.fixture(scope="session")
def richards20():
    return richards_construction(20)


@pytest.fixture(scope="session")
def richards_sweep():
    # shared by the acceptance sweeps; building all of them takes under a second
    return [richards_construction(y) for y in range(1, 501)]
