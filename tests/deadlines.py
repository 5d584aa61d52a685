"""Wall-clock deadlines for tests, by the stdlib interval timer.

Inside ``with deadline(seconds, what):`` the timer's handler raises
DeadlineExceeded into the body at the next bytecode boundary once
``seconds`` have passed, so a loop that never ends fails with the
traceback of where it was instead of hanging.  tests/conftest.py runs
every test phase under one; a test can nest a shorter one around a
single call.

There is one interval timer per process, so a nested deadline saves
the enclosing one: on exit it puts back the enclosing handler and
re-arms the enclosing timer with the time it had left, which fires at
once if that time ran out inside.  A nested deadline that would fall due
after the enclosing one leaves that one alone.  Without SIGALRM the
body runs with no deadline.
"""

import signal
import time
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """Raised into a block that runs past its deadline.

    A BaseException, like KeyboardInterrupt, so that hypothesis does not
    take it for a failing example and replay that example to shrink it,
    which would hang again; pytest reports it as the test's failure all
    the same.
    """


@contextmanager
def deadline(seconds: float, what: str):
    """Raise DeadlineExceeded("<what> ran past its <seconds> s deadline")
    in the body once `seconds` have passed."""
    if not hasattr(signal, "setitimer") or 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= seconds:
        # no timer, or the enclosing deadline falls due first
        yield
        return

    def overrun(signum, frame):
        raise DeadlineExceeded(f"{what} ran past its {seconds:g} s deadline")

    start = time.monotonic()
    previous = signal.signal(signal.SIGALRM, overrun)
    outer = signal.setitimer(signal.ITIMER_REAL, seconds)[0]
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - start)
            # 0 would disarm the timer; an overdue deadline fires at once
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))
