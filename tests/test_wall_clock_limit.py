"""The per-test wall-clock limit of `tests/conftest.py`: it is armed
around every test, fires by name, and is disarmed once its body ends."""

import signal
import time

import pytest

from conftest import TEST_SECONDS, wall_clock_limit


def test_every_test_runs_under_the_limit():
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_SECONDS


def test_limit_ends_a_sleep_by_name():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="sleeper ran past its wall-clock limit"):
        with wall_clock_limit(0.05, "sleeper"):
            time.sleep(5)
    assert time.monotonic() - start < 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0, 0)


def test_limit_is_disarmed_after_a_body_that_ends():
    with wall_clock_limit(0.5, "quick"):
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0, 0)
    time.sleep(0.6)  # the timer would have fired here
