"""A wall-clock limit on every test: a test that runs past `TEST_SECONDS`
fails by name instead of hanging the suite.  The slowest test takes a few
seconds, so the limit only ends a test that would not end by itself (a
closure that never closes, a search without a bound)."""

import signal
from contextlib import contextmanager

import pytest

TEST_SECONDS = 120


@contextmanager
def wall_clock_limit(seconds, name):
    """Run the body under a real-time timer of `seconds`: when it runs out
    the body fails with a message naming `name`.  The timer is disarmed and
    the previous handler put back afterwards."""
    def expire(signum, frame):
        pytest.fail(f"{name} ran past its wall-clock limit of {seconds} s", pytrace=False)

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with wall_clock_limit(TEST_SECONDS, item.nodeid):
        yield
