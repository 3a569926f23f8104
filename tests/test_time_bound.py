"""The per-test time bound of ``conftest.py``."""

import os
import signal

import pytest

from conftest import LIMIT_S


def test_an_overrun_fails_the_test():
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= LIMIT_S
    with pytest.raises(pytest.fail.Exception, match="ran past its"):
        signal.raise_signal(signal.SIGALRM)


def test_a_forked_worker_inherits_no_alarm():
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
    pid = os.fork()
    if pid == 0:  # the seconds left on an alarm, as the exit status
        os._exit(signal.alarm(0))
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
