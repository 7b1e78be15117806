"""A time limit per test and per test module import: a node still running
after TEST_TIME_LIMIT seconds fails with its own id in the message, so that
a loop that never ends fails one test (or one module's collection) instead
of stalling the suite.  At the repository root it covers every test that
pytest collects here, `tests/` and `bench/` alike.  The limit is above every
subprocess `timeout=` in the tests (at most 300 s); the slowest test takes a
few seconds."""

import signal
from contextlib import contextmanager

import pytest

TEST_TIME_LIMIT = 600


class TimeLimitExceeded(BaseException):
    """Raised from SIGALRM.  Not an Exception, so that neither an
    `except Exception` in the code under test nor hypothesis (which
    shrinks on Exception) holds it up; pytest reports it as a failure."""


@contextmanager
def _time_limit(nodeid: str):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{nodeid} ran longer than {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    with _time_limit(item.nodeid):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    with _time_limit(collector.nodeid):
        return (yield)
