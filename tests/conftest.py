"""A test that runs past TEST_SECONDS fails instead of hanging the run.

The guard needs SIGALRM and is left out where the platform has none.  The
alarm raises Overtime, a BaseException, so that Hypothesis stops at once
instead of shrinking an input that hangs.
"""

import signal

import pytest

TEST_SECONDS = 300


class Overtime(BaseException):
    pass


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise Overtime("test ran past %d s" % TEST_SECONDS)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
