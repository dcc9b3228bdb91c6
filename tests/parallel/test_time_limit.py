"""Nested ``time_limit`` blocks: an enclosing deadline reaches its own
block even when an inner block catches the ``TaskTimeout`` it raised."""

from __future__ import annotations

import signal
import time

import pytest

from repro.parallel import TaskTimeout, time_limit


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_enclosing_limit_survives_an_inner_except():
    t0 = time.perf_counter()
    with pytest.raises(TaskTimeout):
        with time_limit(0.2):
            try:
                with time_limit(5.0):
                    _spin(1.0)
            except TaskTimeout:
                pass  # the inner block's catch must not end the outer
            _spin(1.0)
    assert time.perf_counter() - t0 < 0.6


def test_expired_limit_leaves_no_alarm_behind():
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(TaskTimeout):
        with time_limit(0.05):
            _spin(1.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    _spin(0.15)  # no repeat of the expired alarm out here
