"""Nested ``time_limit`` blocks: an enclosing deadline reaches its own
block even when an inner block catches the ``TaskTimeout`` it raised."""

from __future__ import annotations

import signal
import time

import pytest

from repro.parallel import TaskTimeout, time_left, time_limit


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


def test_time_left_reads_the_innermost_deadline():
    assert time_left() is None
    with time_limit(5.0):
        assert 4.0 < time_left() <= 5.0
        with time_limit(60.0):  # cannot outlive the enclosing 5 s
            assert 4.0 < time_left() <= 5.0
        with time_limit(0.5):
            assert 0.0 < time_left() <= 0.5
    assert time_left() is None
