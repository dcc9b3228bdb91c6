"""The pool's dispatch/settle core with several task groups open at once.

Groups are opened from inside one running loop (``WorkerPool.drive``
with a wake-up socket), the way the serve daemon's pool-owner thread
opens one group per batch.  Every assertion is on event order or on
counts, never on wall-clock timing.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.parallel import WorkerCrash, get_pool, pmap, race, warm_pool


# --- payloads (module-level so workers can unpickle them by name) ----------
def _same(x):
    return x


def _sleep_for(seconds):
    time.sleep(seconds)
    return "slept"


def _crash_or_same(item):
    if item == "die":
        os._exit(42)
    return item


def _record(path_and_item):
    path, item = path_and_item
    with open(path, "a") as fh:
        fh.write(f"{item}\n")
    return item


def _race_script(item):
    if item == "fast":
        return "winner"
    time.sleep(30)
    return "loser"


def drive_groups(pool, specs):
    """Open every ``(name, fn, items, kwargs)`` group from inside one
    loop and drive it until all of them settle.

    Returns the settle events ``(name, index, result)`` in the order
    they streamed out, and each group's ``on_done`` results by name.
    """
    wake_r, wake_w = socket.socketpair()
    wake_r.setblocking(False)
    events: list[tuple] = []
    done: dict[str, list] = {}

    def admit():
        wake_r.recv(64)
        for name, fn, items, kwargs in specs:
            pool.open_group(
                fn, items, jobs=2,
                on_result=lambda i, r, name=name: events.append(
                    (name, i, r)
                ),
                on_done=lambda results, name=name: done.__setitem__(
                    name, results
                ),
                **kwargs,
            )

    wake_w.send(b"x")
    try:
        pool.drive(lambda: len(done) == len(specs), wake=wake_r,
                   on_wake=admit)
    finally:
        wake_r.close()
        wake_w.close()
    return events, done


def assert_core_empty(pool):
    assert pool.open_groups == 0
    assert not pool._groups and not pool._pending
    assert all(not w.tasks for w in pool._workers)


# ---------------------------------------------------------------------------
def test_second_group_settles_before_first_groups_slow_task():
    pool = warm_pool(2)
    events, done = drive_groups(pool, [
        ("A", _sleep_for, [1.0], {}),
        ("B", _same, [1, 2], {}),
    ])
    # B's no-ops went to the worker A's slow task left free (one
    # running, one prefetched behind B's own head, not behind A's), so
    # both streamed out before A's only task finished.
    assert [name for name, _i, _r in events] == ["B", "B", "A"]
    assert [r.value for r in done["B"]] == [1, 2]
    assert done["A"][0].value == "slept"
    assert_core_empty(pool)


def test_dedup_keys_are_scoped_to_their_group(tmp_path):
    pool = warm_pool(2)
    log = tmp_path / "ran.log"
    item = (str(log), "a")
    _events, done = drive_groups(pool, [
        ("A", _record, [item, item], {"keys": ["k", "k"]}),
        ("B", _record, [item], {"keys": ["k"]}),
    ])
    # once per group: the repeat inside A collapsed, B's did not
    assert log.read_text().splitlines() == ["a", "a"]
    assert [r.deduped for r in done["A"]] == [False, True]
    assert not done["B"][0].deduped
    assert_core_empty(pool)


def test_worker_crash_fails_only_its_task_and_other_group_completes():
    pool = warm_pool(2)
    respawns = pool.respawns
    _events, done = drive_groups(pool, [
        ("A", _crash_or_same, ["die", "a1"], {}),
        ("B", _crash_or_same, ["b1", "b2", "b3", "b4"], {}),
    ])
    assert [r.ok for r in done["A"]] == [False, True]
    assert isinstance(done["A"][0].error, WorkerCrash)
    assert [(r.ok, r.value) for r in done["B"]] == [
        (True, "b1"), (True, "b2"), (True, "b3"), (True, "b4")
    ]
    assert pool.respawns > respawns
    assert_core_empty(pool)


def test_settled_groups_leave_nothing_in_the_core(tmp_path):
    pool = warm_pool(2)
    item = (str(tmp_path / "ran.log"), "x")
    drive_groups(pool, [
        ("dedup", _record, [item, item], {"keys": ["k", "k"]}),
        ("budget", _sleep_for, [0.0, 5.0], {"timeouts": [None, 0.1]}),
        ("empty", _same, [], {}),
    ])
    assert_core_empty(pool)
    pmap(_same, [1, 2, 3], jobs=2)
    assert_core_empty(pool)
    race(_race_script, ["fast", "slow"], jobs=2)
    assert_core_empty(pool)
    assert pool._holder is None


def test_second_thread_cannot_enter_a_driven_pool():
    pool = warm_pool(2)
    wake_r, wake_w = socket.socketpair()
    wake_r.setblocking(False)
    entered, stop = threading.Event(), threading.Event()

    def admit():
        try:
            wake_r.recv(64)
        except BlockingIOError:
            pass
        entered.set()

    owner = threading.Thread(
        target=pool.drive, args=(stop.is_set,),
        kwargs={"wake": wake_r, "on_wake": admit},
    )
    owner.start()
    try:
        wake_w.send(b"x")
        assert entered.wait(30)  # the owner is inside its loop
        with pytest.raises(RuntimeError, match="another thread"):
            pool.run_batch(_same, [1], jobs=1)
        with pytest.raises(RuntimeError, match="another thread"):
            get_pool(2)
    finally:
        stop.set()
        wake_w.send(b"x")
        owner.join(30)
        wake_r.close()
        wake_w.close()
    assert not owner.is_alive()
    # released: this thread may drive the pool again
    assert [r.value for r in pool.run_batch(_same, [1, 2], jobs=2)] == [
        1, 2
    ]


def test_loop_callbacks_cannot_reenter_the_pool():
    pool = warm_pool(2)
    errors: list[Exception] = []

    def reenter(_i, _res):
        try:
            pool.run_batch(_same, [0], jobs=1)
        except RuntimeError as ex:
            errors.append(ex)

    results = pool.run_batch(_same, [1, 2], jobs=2, on_result=reenter)
    assert [r.value for r in results] == [1, 2]
    assert len(errors) == 2 and "reentrant" in str(errors[0])
    assert_core_empty(pool)


def test_a_failing_loop_settles_its_open_groups_and_frees_the_pool():
    pool = warm_pool(2)
    wake_r, wake_w = socket.socketpair()
    wake_r.setblocking(False)
    done: dict[str, list] = {}
    wakes: list[bytes] = []

    def admit():
        wakes.append(wake_r.recv(64))
        if len(wakes) == 1:
            pool.open_group(
                _sleep_for, [0.3, 0.3], jobs=2,
                on_done=lambda results: done.__setitem__("A", results),
            )
            wake_w.send(b"y")  # fail on the next turn, tasks in flight
            return
        raise KeyError("boom")

    wake_w.send(b"x")
    try:
        with pytest.raises(KeyError):
            pool.drive(lambda: False, wake=wake_r, on_wake=admit)
    finally:
        wake_r.close()
        wake_w.close()
    # every caller still hears back, and the core is clean
    assert [r.ok for r in done["A"]] == [False, False]
    assert "boom" in str(done["A"][0].error)
    assert_core_empty(pool)
    assert pool._holder is None
    # the late results of the abandoned tasks are ignored
    assert [r.value for r in pmap(_same, [1, 2, 3], jobs=2)] == [1, 2, 3]
