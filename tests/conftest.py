"""Every test runs under a time bound: one still running after ``LIMIT_S``
seconds fails, where it would otherwise hang the suite.  The bound is a
SIGALRM alarm, which fork(2) does not pass on, so a forked sweep worker
never receives it."""

import signal

import pytest

# well above the slowest test, about 5 s on a 2-core VM
LIMIT_S = 120


def _overran(signum, frame):
    pytest.fail(f"test ran past its {LIMIT_S} s bound")


@pytest.fixture(autouse=True)
def time_bound():
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
