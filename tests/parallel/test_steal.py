"""Revocable prefetch: an idle worker takes over a task prefetched
behind another worker's slow task, and every task still runs exactly
once.

Placement is deterministic: on an idle two-worker pool, items 0 and 2
of a ``jobs=2`` group go to worker 0 and items 1 and 3 to worker 1, so
item 2 is the one prefetched behind item 0.  Assertions are on settle
order, counts and pids, never on wall-clock timing.
"""

from __future__ import annotations

import os
import random
import signal
import time

from repro.parallel import TaskTimeout, WorkerCrash, warm_pool
from repro.parallel import pool as pool_mod
from test_group_core import assert_core_empty, drive_groups


# --- payloads (module-level so workers can unpickle them by name) ----------
def _nap(item):
    """``(tag, seconds)``: sleep, then report the tag and the pid.  The
    tag ``"wedged"`` blocks SIGALRM first, standing in for a task stuck
    where the in-worker alarm cannot reach it."""
    tag, seconds = item
    if tag == "wedged":
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(seconds)
    return tag, os.getpid()


def _logged(item):
    """``(log, tag, seconds, die)``: append the tag to the log, sleep,
    then exit the worker if asked to (a crash mid-task)."""
    path, tag, seconds, die = item
    with open(path, "a") as fh:
        fh.write(f"{tag}\n")
    time.sleep(seconds)
    if die:
        os._exit(42)
    return tag, os.getpid()


# ---------------------------------------------------------------------------
def test_idle_worker_takes_the_task_prefetched_behind_a_slow_one():
    pool = warm_pool(2)
    steals = pool.steals
    items = [("slow", 1.0), ("a", 0.0), ("b", 0.0), ("c", 0.0)]
    order: list[int] = []
    results = pool.run_batch(
        _nap, items, jobs=2, on_result=lambda i, _r: order.append(i)
    )
    # "b" was prefetched behind the 1 s sleep; it settled before it,
    # on the worker that ran "a" and "c"
    assert order[-1] == 0
    assert pool.steals > steals
    pids = [r.value[1] for r in results]
    assert pids[2] == pids[1] == pids[3] != pids[0]
    assert [r.value[0] for r in results] == ["slow", "a", "b", "c"]
    assert_core_empty(pool)


def test_steals_across_groups_driven_by_one_loop():
    pool = warm_pool(2)
    steals = pool.steals
    # A's sleep lands on worker 0 and A's no-op on worker 1; B's first
    # no-op is prefetched behind the sleep, its second behind A's no-op
    events, done = drive_groups(pool, [
        ("A", _nap, [("slow", 1.0), ("a", 0.0)], {}),
        ("B", _nap, [("b0", 0.0), ("b1", 0.0)], {}),
    ])
    assert [name for name, _i, _r in events][-1] == "A"
    assert events[-1][1] == 0
    assert [r.value[0] for r in done["B"]] == ["b0", "b1"]
    assert pool.steals > steals
    assert_core_empty(pool)


def test_every_task_runs_exactly_once_under_steals(tmp_path):
    pool = warm_pool(2)
    steals = pool.steals
    log = tmp_path / "ran.log"
    rng = random.Random(7)
    expected: list[str] = []
    # Many short rounds whose head takes about as long as the other
    # worker's two tasks, so revocations race the victim starting its
    # prefetched task; the last round's head is slow enough to be
    # sure of at least one steal.
    for r in range(40):
        head = 0.3 if r == 39 else rng.uniform(0.0, 0.004)
        items = [(str(log), f"{r}.0", head, False)] + [
            (str(log), f"{r}.{k}", rng.uniform(0.0, 0.001), False)
            for k in (1, 2, 3)
        ]
        results = pool.run_batch(_logged, items, jobs=2)
        assert [res.value[0] for res in results] == [it[1] for it in items]
        expected += [it[1] for it in items]
    ran = log.read_text().splitlines()
    assert sorted(ran) == sorted(expected)
    assert pool.steals > steals
    assert_core_empty(pool)


def test_stolen_task_backstop_runs_from_its_start_on_the_thief(monkeypatch):
    monkeypatch.setattr(pool_mod, "BACKSTOP_SLACK", 0.2)
    pool = warm_pool(2)
    respawns, steals = pool.respawns, pool.steals
    # "late" is prefetched behind the 1 s sleep with a 0.6 s budget.
    # It is stolen at t~0.5, when "mid" finishes, and runs to t~1.0.
    # A deadline counted from dispatch (t=0: 0.6 + 0.2 slack = 0.8)
    # would condemn it; counted from its start on the thief (t~0.5)
    # it has until t~1.3, as a serial run would.
    items = [("slow", 1.0), ("mid", 0.5), ("late", 0.5)]
    results = pool.run_batch(
        _nap, items, jobs=2, timeouts=[None, None, 0.6]
    )
    assert [(r.ok, r.value[0]) for r in results] == [
        (True, "slow"), (True, "mid"), (True, "late")
    ]
    assert results[2].value[1] == results[1].value[1]  # ran on the thief
    assert not any(r.timed_out for r in results)
    assert pool.steals > steals
    assert pool.respawns == respawns


def test_stolen_task_is_armed_on_the_thief(monkeypatch):
    monkeypatch.setattr(pool_mod, "BACKSTOP_SLACK", 0.2)
    pool = warm_pool(2)
    respawns, steals = pool.respawns, pool.steals
    # "wedged" is stolen at t~0.2 and ignores its 0.3 s alarm: only the
    # thief's backstop, armed at the steal, ends it (at t~0.7) while
    # the victim's own task runs on undisturbed
    items = [("slow", 1.0), ("mid", 0.2), ("wedged", 5.0)]
    results = pool.run_batch(
        _nap, items, jobs=2, timeouts=[None, None, 0.3]
    )
    assert [r.ok for r in results] == [True, True, False]
    assert results[2].timed_out
    assert isinstance(results[2].error, TaskTimeout)
    assert pool.steals > steals
    assert pool.respawns == respawns + 1


def test_victim_crash_after_a_steal_fails_only_its_running_task(tmp_path):
    pool = warm_pool(2)
    respawns, steals = pool.respawns, pool.steals
    log = tmp_path / "ran.log"
    # item 0 dies after 0.5 s; item 2, prefetched behind it, is stolen
    # first, so the crash has nothing left to fail or re-queue
    items = [
        (str(log), "die", 0.5, True),
        (str(log), "a", 0.0, False),
        (str(log), "b", 0.0, False),
        (str(log), "c", 0.0, False),
    ]
    results = pool.run_batch(_logged, items, jobs=2)
    assert not results[0].ok and isinstance(results[0].error, WorkerCrash)
    assert [(r.ok, r.value[0]) for r in results[1:]] == [
        (True, "a"), (True, "b"), (True, "c")
    ]
    assert sorted(log.read_text().splitlines()) == ["a", "b", "c", "die"]
    assert pool.steals > steals
    assert pool.respawns > respawns
    assert_core_empty(pool)


def test_jobs1_groups_never_steal():
    pool = warm_pool(2)
    steals = pool.steals
    results = pool.run_batch(_nap, [("slow", 0.3), ("next", 0.0)], jobs=1)
    # the idle second worker is outside the group's jobs
    assert results[0].value[1] == results[1].value[1]
    assert pool.steals == steals
