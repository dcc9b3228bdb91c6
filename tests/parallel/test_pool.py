"""The persistent pool's own contracts.

Reuse across calls, crash respawn, leaked-alarm hygiene between tasks
of one long-lived worker, the ``TaskTimeout``-is-``BaseException``
guarantee on *reused* workers (the PR 6 tests covered fork-per-call
workers), the parent-side hard-timeout backstop, in-batch dedup, race
loser cancellation, and shutdown.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.arch import presets
from repro.bench.harness import run_matrix
from repro.cache import mapping_cache
from repro.dse.explorer import explore
from repro.parallel import (
    TaskTimeout,
    WorkerCrash,
    get_pool,
    pmap,
    race,
    shutdown,
    warm_pool,
)
from repro.parallel import pool as pool_mod


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


# --- payloads (module-level so workers can unpickle them by name) ----------
def _double(x):
    return 2 * x


def _pid(_):
    return os.getpid()


def _crash_or_pid(item):
    if item == "die":
        os._exit(42)
    return os.getpid()


def _alarm_script(step):
    """Task k leaks an armed SIGALRM with the *default* disposition —
    which kills the process on delivery; task k+1 then sleeps past the
    leaked timer.  Only the pool's between-task disarm keeps the
    worker alive."""
    if step == "leak":
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.setitimer(signal.ITIMER_REAL, 0.15)
        return "leaked"
    time.sleep(0.4)
    return "survived"


def _swallow_script(step):
    """A greedy ``except Exception`` guard on the interrupted path:
    only a ``BaseException`` timeout can escape it."""
    if step == "swallow":
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            try:
                time.sleep(0.01)
            except Exception:
                pass
        return "never"
    return "ok"


def _sleep_for(seconds):
    time.sleep(seconds)
    return "done"


def _wedge(_):
    # A worker stuck where SIGALRM cannot reach it (here: the signal is
    # blocked, standing in for a hung C extension).
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    time.sleep(60)
    return "unreachable"


def _record_and_tag(path_and_item):
    path, item = path_and_item
    with open(path, "a") as fh:
        fh.write(f"{item}\n")
    return (item, os.getpid(), os.urandom(8).hex())


def _race_script(item):
    if item == "fast":
        return "winner"
    time.sleep(30)
    return "loser"


def _wedge_forever(_):
    """Make this worker unkillable by anything short of SIGKILL: ignore
    SIGTERM and hold the process open with a non-daemon thread, then
    return normally so the batch itself succeeds."""
    import threading

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    t = threading.Thread(target=time.sleep, args=(600,), daemon=False)
    t.start()
    return "wedged"


def _sleep_tagged(item):
    tag, seconds = item
    time.sleep(seconds)
    return tag


# ---------------------------------------------------------------------------
def _interrupt_first(ran, item):
    ran.append(item)
    if item == 0:
        raise KeyboardInterrupt
    return item


@pytest.mark.parametrize("run", [pmap, race])
def test_in_process_interrupt_propagates_at_once(run):
    # jobs=1 is every sweep's in-process path: Ctrl-C must stop it at
    # the interrupted task, not come back as a result after the rest
    # of the batch has run.
    ran = []
    with pytest.raises(KeyboardInterrupt):
        run(_interrupt_first, [0, 1], jobs=1, shared=ran)
    assert ran == [0]


def test_pool_persists_across_pmap_calls():
    warm_pool(2)
    first = set(r.value for r in pmap(_pid, [0, 1, 2, 3], jobs=2))
    second = set(r.value for r in pmap(_pid, [0, 1, 2, 3], jobs=2))
    pool = get_pool(2)
    assert first == second  # same processes served both calls
    assert first <= set(pool.pids())
    assert os.getpid() not in first


def test_pool_reused_across_run_matrix_and_explore_calls(
    cgra, monkeypatch
):
    warm_pool(2)
    pool = get_pool(2)
    pids = set(pool.pids())
    batches = []
    open_group = pool.open_group

    def counting(*args, **kwargs):
        batches.append(args[0])
        return open_group(*args, **kwargs)

    monkeypatch.setattr(pool, "open_group", counting)
    run_matrix(["list_sched"], ["dot_product", "fir4"], cgra, jobs=2)
    run_matrix(["list_sched"], ["dot_product", "fir4"], cgra, jobs=2)
    space = [
        {"size": 4, "topology": t, "rf_size": 2, "mem_cells": "left"}
        for t in ("mesh", "one_hop")
    ]
    explore(space, ["dot_product"], jobs=2)
    assert get_pool(2) is pool
    assert set(pool.pids()) == pids  # no respawns, no new forks
    assert len(batches) == 3  # each call was one batch on this pool


def test_worker_crash_is_contained_and_respawned():
    pool = warm_pool(2)
    respawns = pool.respawns
    results = pmap(_crash_or_pid, ["ok1", "die", "ok2", "ok3"], jobs=2)
    crashed = [r for r in results if not r.ok]
    assert len(crashed) == 1
    assert isinstance(crashed[0].error, WorkerCrash)
    assert [r.ok for r in results] == [True, False, True, True]
    assert pool.respawns > respawns
    # the pool is not poisoned: the very next batch works
    after = pmap(_double, [1, 2, 3], jobs=2)
    assert [r.value for r in after] == [2, 4, 6]


def test_leaked_alarm_cleared_between_tasks_of_reused_worker():
    pool = warm_pool(2)
    respawns = pool.respawns
    # jobs=1 pins both tasks to one worker, in order; pmap would take
    # the serial path, so drive the batch directly.
    results = pool.run_batch(_alarm_script, ["leak", "sleep"], jobs=1)
    assert [r.value for r in results] == ["leaked", "survived"]
    assert pool.respawns == respawns  # the worker outlived the leak


def test_timeout_escapes_except_exception_on_reused_worker():
    pool = warm_pool(2)
    respawns = pool.respawns
    pids = set(pool.pids())
    results = pool.run_batch(
        _swallow_script, ["swallow", "ok"], jobs=1, timeout=0.3
    )
    assert not results[0].ok and results[0].timed_out
    assert isinstance(results[0].error, TaskTimeout)
    assert results[1].ok and results[1].value == "ok"
    # the in-worker alarm unwound the task; the worker itself survived
    assert pool.respawns == respawns
    assert set(pool.pids()) == pids


def test_hard_timeout_backstop_kills_only_the_wedged_worker(monkeypatch):
    monkeypatch.setattr(pool_mod, "BACKSTOP_SLACK", 0.5)
    pool = warm_pool(2)
    respawns = pool.respawns
    t0 = time.monotonic()
    # run_batch directly: pmap's serial gate would wedge the parent
    results = pool.run_batch(_wedge, [0], jobs=1, timeout=0.2)
    # well under the 60s wedge: the parent condemned the worker
    assert time.monotonic() - t0 < 30.0
    assert not results[0].ok and results[0].timed_out
    assert isinstance(results[0].error, TaskTimeout)
    assert pool.respawns > respawns
    after = pmap(_double, [5], jobs=2)
    assert after[0].value == 10


def test_backstop_clock_starts_at_head_of_line_not_queue(monkeypatch):
    monkeypatch.setattr(pool_mod, "BACKSTOP_SLACK", 0.2)
    pool = warm_pool(2)
    respawns = pool.respawns
    # Two 0.5s tasks pinned to one worker under timeout=0.7: the second
    # is prefetched at t~0 and only starts at t~0.5.  A deadline
    # stamped at queue time (0.7 + 0.2 slack = t=0.9) would condemn it
    # at 0.4s into its own run, well inside its SIGALRM budget;
    # head-of-line arming gives it the full budget from t~0.5, so both
    # tasks succeed exactly as they would under a serial run.
    results = pool.run_batch(_sleep_for, [0.5, 0.5], jobs=1, timeout=0.7)
    assert [(r.ok, r.value) for r in results] == [
        (True, "done"), (True, "done")
    ]
    assert not any(r.timed_out for r in results)
    assert pool.respawns == respawns  # no worker was condemned


def test_run_batch_clamps_growth_to_batch_width():
    shutdown()
    pool = get_pool(1)
    # Two items sharing one dedup key: one real task, so jobs=8 must
    # not fork a single extra worker (the pool never shrinks).
    results = pool.run_batch(_double, [5, 5], jobs=8, keys=["k", "k"])
    assert [r.value for r in results] == [10, 10]
    assert results[1].deduped
    assert pool.size == 1
    # Without dedup the batch width is len(items), still not jobs.
    results = pool.run_batch(_double, [1, 2, 3], jobs=8)
    assert [r.value for r in results] == [2, 4, 6]
    assert pool.size == 3


def test_in_batch_dedup_runs_identical_tasks_once(tmp_path):
    warm_pool(2)
    log = tmp_path / "ran.log"
    items = [(str(log), "a"), (str(log), "a"), (str(log), "b")]
    results = pmap(
        _record_and_tag, items, jobs=2, keys=["ka", "ka", "kb"]
    )
    ran = log.read_text().splitlines()
    assert sorted(ran) == ["a", "b"]  # the duplicate never executed
    assert [r.deduped for r in results] == [False, True, False]
    # the copy carries the primary's exact value (fresh entropy would
    # differ had it actually run)
    assert results[1].value == results[0].value
    assert results[1].elapsed == 0.0


def test_dedup_none_keys_always_run(tmp_path):
    warm_pool(2)
    log = tmp_path / "ran.log"
    items = [(str(log), "a"), (str(log), "a")]
    results = pmap(_record_and_tag, items, jobs=2, keys=[None, None])
    assert len(log.read_text().splitlines()) == 2
    assert not any(r.deduped for r in results)


def test_race_cancels_losers_promptly():
    pool = warm_pool(4)
    pids = set(pool.pids())
    t0 = time.monotonic()
    results = race(_race_script, ["fast", "slow", "slow", "slow"], jobs=4)
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0  # nowhere near the losers' 30s sleeps
    assert results[0].ok and results[0].value == "winner"
    assert results[1:] == [None, None, None]
    # losers were killed and their workers replaced, not drained
    assert set(pool.pids()) != pids
    after = pmap(_double, [7], jobs=2)
    assert after[0].value == 14


def test_shutdown_escalates_to_sigkill_on_wedged_worker():
    shutdown()
    pool = warm_pool(2)
    results = pmap(_wedge_forever, [0, 1], jobs=2)
    assert [r.value for r in results] == ["wedged", "wedged"]
    pids = pool.pids()
    t0 = time.monotonic()
    shutdown(grace=0.5)
    elapsed = time.monotonic() - t0
    # bounded: ~3 grace periods total, not per wedged worker
    assert elapsed < 5.0
    for pid in pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)  # ESRCH: nothing left behind


def test_shutdown_twice_is_a_noop():
    warm_pool(2)
    shutdown()
    t0 = time.monotonic()
    shutdown()  # e.g. atexit after an explicit serve teardown
    assert time.monotonic() - t0 < 0.5
    assert pool_mod._POOL is None


def test_per_task_timeouts_mix_in_one_batch():
    pool = warm_pool(2)
    # Same payload duration, opposite budgets: only the starved entry
    # may time out, proving the budget rides on the task, not the batch.
    results = pool.run_batch(
        _sleep_tagged,
        [("tight", 0.4), ("roomy", 0.4)],
        jobs=2,
        timeouts=[0.1, None],
    )
    assert not results[0].ok and results[0].timed_out
    assert isinstance(results[0].error, TaskTimeout)
    assert results[1].ok and results[1].value == "roomy"


def test_non_finite_budget_leaves_the_worker_usable():
    shutdown()
    pool = get_pool(1)
    first = pool.run_batch(_double, [1], jobs=1, timeouts=[float("inf")])
    assert not first[0].ok and isinstance(first[0].error, ValueError)
    # the same worker, budgeted: no limit of the rejected task lingers
    results = pool.run_batch(_double, [2, 3], jobs=1, timeout=5.0)
    assert [(r.ok, r.value) for r in results] == [(True, 4), (True, 6)]


def test_on_result_streams_settled_tasks_without_barrier():
    warm_pool(2)
    seen: list[tuple[int, float]] = []
    results = pmap(
        _sleep_tagged,
        [("slow", 0.6), ("fast", 0.0)],
        jobs=2,
        on_result=lambda i, r: seen.append((i, time.monotonic())),
    )
    assert [r.value for r in results] == ["slow", "fast"]
    order = [i for i, _ in seen]
    assert sorted(order) == [0, 1]
    # the fast task streamed out first — no submission-order barrier
    assert order[0] == 1
    assert seen[1][1] - seen[0][1] > 0.3


def test_on_result_fires_for_deduped_copies():
    warm_pool(2)
    seen: list[tuple[int, bool]] = []
    results = pmap(
        _double,
        [5, 5, 6],
        jobs=2,
        keys=["k", "k", "j"],
        on_result=lambda i, r: seen.append((i, r.deduped)),
    )
    assert [r.value for r in results] == [10, 10, 12]
    assert sorted(seen) == [(0, False), (1, True), (2, False)]
    # the duplicate settles with its primary, immediately after it
    assert seen.index((1, True)) == seen.index((0, False)) + 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_on_result_errors_are_logged_not_raised(jobs, caplog):
    """A failing callback is logged on both paths and never reaches
    the batch: every item still settles and is returned."""
    if jobs > 1:
        warm_pool(jobs)

    def boom(i, r):
        raise RuntimeError(f"callback {i}")

    with caplog.at_level("ERROR", logger="repro.parallel.pool"):
        results = pmap(_double, [1, 2], jobs=jobs, on_result=boom)
    assert [r.value for r in results] == [2, 4]
    failures = [
        rec for rec in caplog.records
        if rec.getMessage() == "pool: on_result callback failed"
    ]
    assert len(failures) == 2
    assert {str(rec.exc_info[1]) for rec in failures} == {
        "callback 0", "callback 1",
    }


def test_workers_write_with_the_parents_disk_cap(cgra, tmp_path):
    # The batch header ships the disk tier's byte cap.  Workers that
    # rebuilt the tier with the 64 MiB default would keep all twelve
    # entries (about 8 KB), far past the bound of two writers x cap.
    warm_pool(2)
    cap = 1500
    with mapping_cache(tmp_path / "c", disk_bytes=cap) as cache:
        rows = run_matrix(
            ["list_sched", "edge_centric", "ultrafast"],
            ["dot_product", "fir4", "sobel_x", "sad"],
            cgra,
            jobs=2,
        )
    assert cache.stats.stores == len(rows) == 12
    assert cache.store.disk.stats()["bytes"] <= 2 * cap
