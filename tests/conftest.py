import pytest

from twosquare_gaps import richards_construction

from deadlines import deadline

# Every test phase (setup, call, teardown) runs under a wall-clock deadline
# (tests/deadlines.py): a loop that never ends fails with the traceback of
# where it was instead of hanging the session.  The slowest test takes
# about 3 s.
TEST_DEADLINE_S = 60


def _under_deadline():
    with deadline(TEST_DEADLINE_S, "test phase"):
        yield


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
