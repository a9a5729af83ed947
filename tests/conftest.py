"""A time limit on every test, so that a test that never ends fails the run instead of hanging it.

When a test runs past ``TIME_LIMIT_S``, :mod:`faulthandler`'s watchdog
thread writes the traceback of every thread and exits the process with
status 1, whatever the test is doing; it needs no plugin and no signal
handler.  The tracebacks go to a copy of the process's stderr, taken
before pytest captures file descriptor 2 for each test.
"""

import faulthandler
import os

import pytest

TIME_LIMIT_S = 120

_stderr = None


def pytest_configure(config):
    global _stderr
    _stderr = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.fixture(autouse=True)
def _time_limit():
    faulthandler.dump_traceback_later(TIME_LIMIT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
