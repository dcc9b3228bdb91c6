"""The persistent, pre-warmed worker pool behind ``pmap``/``race``.

Forking a fresh ``ProcessPoolExecutor`` per call made ``jobs=2``
*slower* than serial on short mapping sweeps: every call paid pool
spin-up plus each worker's lazy mapper/solver imports (the registry
pulls in every mapper module and the scipy-backed ILP backend on first
``create()``).  This module keeps one pool alive for the whole
process instead:

* **Pre-warmed workers** — the parent imports the heavy modules once
  (:func:`prewarm`) *before* forking, so workers inherit a hot
  ``sys.modules`` and the shared read-only arch/kernel tables as
  copy-on-write fork-time snapshots; a worker's own pre-import pass is
  then a no-op.
* **Module-level lifecycle** — :func:`get_pool` creates or grows the
  singleton, :func:`warm_pool` additionally round-trips a no-op task
  through every worker (benchmarks call it so timing starts warm),
  :func:`pool_scope` pins a pool for a region, :func:`shutdown` tears
  it down (also registered with :mod:`atexit`).  The pool survives
  across ``run_matrix``/``explore``/portfolio calls in one process.
* **Chunked dispatch with backpressure** — the parent feeds each
  worker over its own pipe, at most :data:`INFLIGHT_PER_WORKER` tasks
  in flight per worker (one running, one prefetched), pulling the next
  task from the submission-ordered queue as results drain.  Results
  are reassembled in submission order regardless of completion order.
* **Per-batch ambient context** — workers fork once, but metrics
  registries and cache scopes come and go in the parent; each batch
  header ships the current state (metrics on/off, cache tier spec) so
  a worker forked before a ``metrics_scope`` still ships deltas and a
  worker forked before a ``cache_scope`` still shares the disk tier.
* **Crash detection + respawn** — a worker that dies mid-task fails
  that task with :class:`WorkerCrash` (its queued-but-unstarted tasks
  are re-dispatched), is replaced, and the batch continues; a worker
  whose *running* task exceeds ``timeout + BACKSTOP_SLACK`` (stuck
  outside the interpreter, where SIGALRM cannot unwind it) is killed
  the same way with a hard
  :class:`~repro.parallel.tasks.TaskTimeout`.  The backstop clock
  starts when a task reaches the head of its worker's queue, never
  while it is merely prefetched — queue wait behind a slow
  predecessor does not count against the budget.  The pool itself is
  never poisoned.
* **In-batch dedup** — when the caller supplies content-addressed
  ``keys``, identical in-flight tasks collapse onto one execution and
  the duplicates receive deep copies of the primary's result (marked
  ``deduped``, no metrics — they did no work).
* **Prompt loser cancellation** — ``race()`` batches stop the moment
  the submission-order winner is decided: pending tasks are dropped
  and workers still running losers are killed and respawned, instead
  of draining to completion on teardown.
"""

from __future__ import annotations

import atexit
import copy
import logging
import os
import time
from collections import deque
from contextlib import contextmanager
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Iterator, Sequence

from repro.obs.metrics import (
    POOL_DEDUP_TOTAL,
    POOL_RESPAWNS_TOTAL,
    get_metrics,
)
from repro.parallel.tasks import (
    BACKSTOP_SLACK,
    PMapResult,
    TaskTimeout,
    disarm_alarm,
    mark_worker,
    run_task,
)

__all__ = [
    "INFLIGHT_PER_WORKER",
    "WorkerCrash",
    "WorkerPool",
    "get_pool",
    "pool_scope",
    "prewarm",
    "shutdown",
    "warm_pool",
]

_log = logging.getLogger("repro.parallel.pool")

#: Maximum tasks queued on one worker's pipe at a time — the
#: backpressure window.  One running plus one prefetched keeps a fast
#: worker from idling while the parent distributes, without letting a
#: slow worker hoard the queue.
INFLIGHT_PER_WORKER = 2

#: Parent poll tick (seconds) while waiting on worker pipes: bounds
#: the latency of deadline and liveness checks without busy-waiting.
POLL_TICK = 0.05

#: Grace period (seconds) for a worker to exit on the shutdown
#: sentinel before it is terminated.
JOIN_TIMEOUT = 2.0


class WorkerCrash(Exception):
    """A pool worker died mid-task (segfault, ``os._exit``, oom-kill);
    the task's outcome is unknown.  Harnesses treat it like any other
    non-timeout task error: ``run_matrix`` re-raises it."""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def prewarm() -> None:
    """Import the heavy modules once per process.

    ``repro.mappers`` registers every mapper and drags in the
    scipy-backed solver stack — over half a second cold, and exactly
    the cost that made fork-per-call pools lose to serial.  The parent
    runs this before the first fork so workers inherit the hot module
    table; the workers run it again defensively (a no-op after
    inheritance).
    """
    import repro.ir.kernels  # noqa: F401  (kernel library)
    import repro.mappers  # noqa: F401  (registry + scipy-backed solvers)


def _install_cache(spec: tuple | None) -> None:
    """Apply a batch header's cache spec in a worker.

    The worker's fork-time cache snapshot is stale the moment the
    parent enters or leaves a ``cache_scope``, so each batch installs
    fresh state: None forces caching off, ``("mem",)`` a private
    memory tier, ``("disk", dir, max_bytes)`` a memory tier over the
    disk directory the parent (and every sibling worker) shares, with
    the parent's byte cap.
    """
    from repro.cache import MappingCache, set_cache

    if spec is None:
        set_cache(None)
    elif spec[0] == "disk":
        _kind, directory, max_bytes = spec
        set_cache(MappingCache(directory, disk_bytes=max_bytes))
    else:
        set_cache(MappingCache())


def _worker_main(conn) -> None:
    """A pool worker's life: pre-import, then loop batch/task messages.

    Message protocol (parent -> worker):
      ``None``                                    — exit
      ``("batch", fn, shared, use_shared,
         metrics_on, cache_spec)``                — start a batch
      ``("task", task_id, index, item, timeout)`` — run one task

    The wall-clock budget rides on each *task* message (not the batch
    header), so one batch can mix per-task deadlines — the serve
    daemon's per-request budgets.

    Worker -> parent: ``(task_id, PMapResult)`` per task.  Any leaked
    SIGALRM is disarmed before *and* after each task, so a timer armed
    for task k can never fire mid-task k+1 of the same long-lived
    worker.
    """
    mark_worker()
    # The fork snapshot may carry the parent's pool handle and ambient
    # tracer/metrics/cache objects from pool-creation time; ambient
    # context arrives per batch instead, so drop the stale state.
    global _POOL
    _POOL = None
    from repro.cache import set_cache
    from repro.obs.metrics import set_metrics
    from repro.obs.tracer import set_tracer

    set_tracer(None)
    set_metrics(None)
    set_cache(None)
    prewarm()

    fn: Callable[..., Any] | None = None
    shared: Any = None
    use_shared = False
    metrics_on = False
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        except Exception as ex:
            # Undecodable message (e.g. fn defined in a __main__ that
            # this worker's fork snapshot predates).  recv consumed the
            # whole message, so the stream is clean — report, then exit
            # rather than risk running later tasks against stale batch
            # state; the parent respawns and re-queues.
            try:
                conn.send(("decode_error", repr(ex)))
            except Exception:
                pass
            break
        if msg is None:
            break
        if msg[0] == "batch":
            _, fn, shared, use_shared, metrics_on, spec = msg
            _install_cache(spec)
            continue
        _, task_id, index, item, timeout = msg
        disarm_alarm()
        args = (shared, item) if use_shared else (item,)
        res = run_task(
            fn, args, index, timeout, collect_metrics=metrics_on
        )
        disarm_alarm()
        try:
            conn.send((task_id, res))
        except (BrokenPipeError, OSError):
            break  # parent is gone
        except Exception as ex:  # unpicklable value/error: degrade
            conn.send(
                (
                    task_id,
                    PMapResult(
                        index=index,
                        ok=res.ok,
                        value=None,
                        error=RuntimeError(
                            f"unpicklable task result: {ex!r}"
                        ),
                        timed_out=res.timed_out,
                        elapsed=res.elapsed,
                        metrics=res.metrics,
                    ),
                )
            )
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _Worker:
    __slots__ = ("proc", "conn", "tasks", "announced")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: task_id -> (item index, hard deadline, task budget);
        #: insertion order is dispatch order, which the worker also
        #: completes in.  The deadline stays ``None`` while the task is
        #: merely prefetched behind a predecessor — it is stamped only
        #: when the task becomes the worker's head-of-line (i.e.
        #: starts running), so queue wait never counts against the
        #: backstop budget.  The budget is the task's own wall-clock
        #: limit (batches may mix per-task budgets).
        self.tasks: dict[int, tuple[int, float | None, float | None]] = {}
        self.announced = False


class WorkerPool:
    """A set of long-lived forked workers plus the dispatch loop.

    Use the module-level :func:`get_pool`/:func:`pool_scope` rather
    than instantiating directly — the whole point is that one pool
    outlives many ``pmap``/``race`` calls.
    """

    def __init__(self, jobs: int) -> None:
        self._ctx = get_context("fork")
        self._workers: list[_Worker] = []
        self._seq = 0
        self.batches = 0
        self.tasks_run = 0
        #: workers replaced after a crash or hard timeout
        self.respawns = 0
        #: workers replaced to cancel race() losers promptly
        self.cancels = 0
        #: duplicate tasks collapsed onto an in-batch primary
        self.dedup_hits = 0
        self.ensure(jobs)

    # -- lifecycle -----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    def pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name="repro-pool-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def ensure(self, jobs: int) -> None:
        """Grow to at least ``jobs`` workers (the pool never shrinks)
        and replace any worker that died while idle."""
        for i, w in enumerate(self._workers):
            if not w.proc.is_alive():
                self._discard(w)
                self._workers[i] = self._spawn()
                self.respawns += 1
        while len(self._workers) < jobs:
            self._workers.append(self._spawn())

    def _discard(self, w: _Worker) -> None:
        try:
            w.conn.close()
        except OSError:
            pass
        if w.proc.is_alive():
            w.proc.terminate()
        w.proc.join(timeout=JOIN_TIMEOUT)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(timeout=JOIN_TIMEOUT)

    def _replace(self, w: _Worker, active: list[_Worker]) -> _Worker:
        """Swap a dead/condemned worker for a fresh one, in place."""
        fresh = self._spawn()
        self._workers[self._workers.index(w)] = fresh
        for k, cur in enumerate(active):
            if cur is w:
                active[k] = fresh
        self._discard(w)
        return fresh

    def close(self, grace: float | None = None) -> None:
        """Shut the workers down with a *bounded* total wait.

        Escalation ladder, each phase sharing one ``grace``-second
        deadline across every worker (default :data:`JOIN_TIMEOUT`):

        1. sentinel — a healthy worker reads ``None`` and exits;
        2. SIGTERM — catches workers idle-wedged outside the recv loop;
        3. SIGKILL — unconditional, for workers wedged mid-task with
           SIGTERM masked or ignored (a hung C extension, a runaway
           thread holding the process open).

        The old implementation waited ``JOIN_TIMEOUT`` per worker *per
        phase* sequentially, so one wedged worker stalled an atexit
        shutdown for many seconds per pool member; the ladder bounds
        the whole teardown at ~3 grace periods regardless of pool
        size, and never leaves a live worker behind.
        """
        grace = JOIN_TIMEOUT if grace is None else grace
        workers, self._workers = self._workers, []
        for w in workers:
            if w.proc.is_alive():
                try:
                    w.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass

        def _join_all(targets: list[_Worker]) -> list[_Worker]:
            deadline = time.monotonic() + grace
            for w in targets:
                w.proc.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            return [w for w in targets if w.proc.is_alive()]

        alive = _join_all([w for w in workers if w.proc.is_alive()])
        for w in alive:
            w.proc.terminate()
        alive = _join_all(alive)
        for w in alive:
            _log.warning(
                "pool: SIGKILL to wedged worker pid %s at shutdown",
                w.proc.pid,
            )
            w.proc.kill()
        _join_all(alive)
        for w in workers:
            try:
                w.conn.close()
            except OSError:
                pass

    # -- dispatch ------------------------------------------------------
    def run_batch(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        *,
        jobs: int,
        timeout: float | None = None,
        timeouts: Sequence[float | None] | None = None,
        shared: Any = None,
        keys: Sequence[Any] | None = None,
        accept: Callable[[PMapResult], bool] | None = None,
        on_result: Callable[[int, PMapResult], None] | None = None,
    ) -> list[PMapResult | None]:
        """Run one batch over the pool; see ``pmap``/``race`` for the
        caller-facing contracts.

        ``keys`` enables in-batch dedup: items with an equal, non-None
        key collapse onto the first occurrence.  ``accept`` switches
        race semantics on: the lowest-index accepted result wins, and
        everything past it is cancelled (``None`` in the output).
        The two are mutually exclusive.

        ``timeouts`` gives every item its own wall-clock budget
        (overriding the batch-wide ``timeout``); ``on_result`` is
        invoked as ``on_result(index, result)`` the moment each item
        settles — including deduped copies, which settle with their
        primary — so a caller can stream results out with no batch
        barrier.  The callback runs on the dispatching thread; keep it
        cheap and never let it raise (exceptions are logged and
        swallowed).
        """
        if accept is not None and keys is not None:
            raise ValueError("keys= dedup is not supported under race()")
        if accept is not None and on_result is not None:
            raise ValueError(
                "on_result= streaming is not supported under race()"
            )
        items = list(items)
        n = len(items)
        if timeouts is not None:
            timeouts = list(timeouts)
            if len(timeouts) != n:
                raise ValueError(
                    "timeouts must align one-to-one with items"
                )
        self.batches += 1

        def budget_of(i: int) -> float | None:
            return timeouts[i] if timeouts is not None else timeout

        # Dedup plan: the indices that actually run, and who copies whom.
        dup_of: dict[int, int] = {}
        order: list[int] = []
        if keys is not None:
            first: dict[Any, int] = {}
            for i in range(n):
                k = keys[i]
                if k is not None and k in first:
                    dup_of[i] = first[k]
                else:
                    if k is not None:
                        first[k] = i
                    order.append(i)
        else:
            order = list(range(n))

        # Grow only to what this batch can use — never fork workers
        # that len(order) tasks could not occupy (the pool does not
        # shrink, so overshoot would idle forever).
        self.ensure(max(1, min(jobs, len(order))))
        results: list[PMapResult | None] = [None] * n
        workers = self._workers[: max(1, min(jobs, len(order)))]
        for w in self._workers:
            w.tasks.clear()
            w.announced = False
        header = (
            "batch",
            fn,
            shared,
            shared is not None,
            get_metrics().enabled,
            _cache_spec(),
        )
        pending: deque[int] = deque(order)
        needed = len(order)
        done = 0
        winner: int | None = None

        # Reverse dedup map: primary index -> its duplicate indices,
        # so duplicates can settle (and stream) with their primary.
        dups_of: dict[int, list[int]] = {}
        for i, p in dup_of.items():
            dups_of.setdefault(p, []).append(i)

        def emit(i: int, res: PMapResult) -> None:
            if on_result is None:
                return
            try:
                on_result(i, res)
            except Exception:
                _log.exception("pool: on_result callback failed")

        def fill_dups(p: int) -> None:
            """Copy a settled primary's result onto its duplicates: a
            deep copy, so the caller can mutate results independently;
            no metrics (the duplicate did no work)."""
            src = results[p]
            if src is None:
                return
            for i in dups_of.get(p, ()):
                if results[i] is not None:
                    continue
                try:
                    value = copy.deepcopy(src.value)
                except Exception:
                    value = src.value
                results[i] = PMapResult(
                    index=i,
                    ok=src.ok,
                    value=value,
                    error=src.error,
                    timed_out=src.timed_out,
                    elapsed=0.0,
                    deduped=True,
                )
                self.dedup_hits += 1
                get_metrics().counter(POOL_DEDUP_TOTAL).inc()
                emit(i, results[i])

        def finish(i: int, res: PMapResult) -> None:
            """Record a real (non-duplicate) task's final result, then
            stream it and its duplicates out."""
            nonlocal done
            if results[i] is not None:
                return
            results[i] = res
            done += 1
            emit(i, res)
            fill_dups(i)

        def arm_head(w: _Worker) -> None:
            """Stamp the hard deadline on the worker's head-of-line
            task if it is still unarmed.

            Deadlines start when a task *starts running* (becomes the
            earliest in flight), not when it is queued: a task
            prefetched behind a slow predecessor must get its full
            ``timeout + BACKSTOP_SLACK`` budget of its own, or long
            tasks would spuriously hard-fail under ``jobs >= 2`` while
            succeeding under ``jobs=1``."""
            if not w.tasks:
                return
            head = next(iter(w.tasks))
            i, dl, budget = w.tasks[head]
            if dl is None and budget is not None:
                w.tasks[head] = (
                    i, time.monotonic() + budget + BACKSTOP_SLACK, budget
                )

        def head_overdue(w: _Worker, now: float) -> float | None:
            """If the worker's earliest in-flight task is past its hard
            deadline, return that task's budget (for the diagnostic);
            ``None`` otherwise.  Later entries are unarmed by
            construction."""
            if not w.tasks:
                return None
            _i, dl, budget = next(iter(w.tasks.values()))
            if dl is not None and now > dl:
                return budget if budget is not None else 0.0
            return None

        def settle(w: _Worker, task_id: int, res: PMapResult) -> None:
            entry = w.tasks.pop(task_id, None)
            if entry is None:
                return  # already accounted for (killed worker)
            arm_head(w)  # the next queued task is now running
            i = entry[0]
            if results[i] is None:
                self.tasks_run += 1
                finish(i, res)

        def decode_crash(detail: Any) -> WorkerCrash:
            return WorkerCrash(
                f"worker could not decode a task ({detail}); is"
                " fn a module-level (importable) function?"
            )

        def drain(w: _Worker) -> WorkerCrash | None:
            """Collect results the worker sent before dying/judgement.

            Returns the decode-error diagnostic if the worker queued
            its ``("decode_error", ...)`` sentinel, so the subsequent
            EOF is not misreported as a generic crash."""
            derr: WorkerCrash | None = None
            try:
                while w.conn.poll(0):
                    task_id, res = w.conn.recv()
                    if task_id == "decode_error":
                        derr = decode_crash(res)
                        continue
                    settle(w, task_id, res)
            except (EOFError, OSError):
                pass
            return derr

        def fail_worker(
            w: _Worker,
            error: BaseException | None,
            timed_out: bool = False,
        ) -> None:
            """A worker died or was condemned: salvage what it sent,
            fail its earliest in-flight task (the one it was running —
            dispatch order is completion order), re-queue the rest, and
            respawn."""
            derr = drain(w)
            if error is None:
                error = derr
            remaining = sorted(w.tasks.items())
            w.tasks.clear()
            if remaining:
                _tid, (i, _dl, _b) = remaining[0]
                err = error if error is not None else WorkerCrash(
                    f"pool worker died running task {i}"
                )
                finish(i, PMapResult(
                    index=i, ok=False, error=err, timed_out=timed_out
                ))
                for _tid, (j, _dl, _b) in reversed(remaining[1:]):
                    pending.appendleft(j)
            self.respawns += 1
            get_metrics().counter(POOL_RESPAWNS_TOTAL).inc()
            _log.warning(
                "pool: respawned a worker (%s)",
                error if error is not None else "crashed",
            )
            self._replace(w, workers)

        def dispatch() -> None:
            while pending:
                candidates = [
                    w for w in workers
                    if len(w.tasks) < INFLIGHT_PER_WORKER
                ]
                if not candidates:
                    return
                w = min(candidates, key=lambda c: len(c.tasks))
                i = pending.popleft()
                try:
                    if not w.announced:
                        w.conn.send(header)
                        w.announced = True
                    w.conn.send(
                        ("task", self._seq, i, items[i], budget_of(i))
                    )
                except (BrokenPipeError, OSError):
                    pending.appendleft(i)
                    fail_worker(w, None)
                    continue
                except Exception as ex:
                    # Unpicklable fn/shared/item: fail the task the
                    # way a fork-per-call pool would, keep the worker.
                    finish(i, PMapResult(index=i, ok=False, error=ex))
                    continue
                # Queued unarmed; arm_head stamps the deadline once the
                # task is actually running (immediately, if the worker
                # was idle).
                w.tasks[self._seq] = (i, None, budget_of(i))
                self._seq += 1
                arm_head(w)

        while True:
            if done >= needed and not pending:
                break
            dispatch()
            conns = {w.conn: w for w in workers if w.tasks}
            if not conns:
                if pending:
                    continue  # fresh workers exist; dispatch again
                break
            for conn in _conn_wait(list(conns), timeout=POLL_TICK):
                w = conns[conn]
                try:
                    task_id, res = conn.recv()
                except (EOFError, OSError):
                    fail_worker(w, None)
                    continue
                if task_id == "decode_error":
                    # The worker could not unpickle a message (typically
                    # an fn defined in __main__ after the fork) and is
                    # exiting; fail its current task with the real cause.
                    fail_worker(w, decode_crash(res))
                    continue
                settle(w, task_id, res)
            # Hard-timeout backstop: a worker whose *running* task is
            # past its deadline is wedged beyond the in-process alarm,
            # stuck outside the interpreter; kill just that worker,
            # not the pool.  Only the head-of-line task is armed, so
            # prefetched tasks cannot trip the backstop from queue
            # wait.
            now = time.monotonic()
            for w in list(workers):
                if head_overdue(w, now) is None:
                    continue
                derr = drain(w)  # the task may have finished this tick
                if derr is not None:
                    fail_worker(w, derr)
                    continue
                budget = head_overdue(w, now)
                if budget is not None:
                    fail_worker(
                        w,
                        TaskTimeout(
                            "hard timeout: worker unresponsive after"
                            f" {budget + BACKSTOP_SLACK:g}s"
                        ),
                        timed_out=True,
                    )
            if accept is not None and winner is None:
                for i in range(n):
                    r = results[i]
                    if r is None:
                        break  # an earlier entrant is still running
                    if accept(r):
                        winner = i
                        break
                if winner is not None:
                    # Prompt loser cancellation: drop the queue, kill
                    # workers still running losers, respawn them.
                    pending.clear()
                    for w in list(workers):
                        if w.tasks:
                            w.tasks.clear()
                            self.cancels += 1
                            self._replace(w, workers)
                    break

        # race contract: entries past the winner stay None, even those
        # that happened to finish before the decision.
        if winner is not None:
            for j in range(winner + 1, n):
                results[j] = None

        # Belt-and-braces: duplicates normally settle with their
        # primary inside ``finish``; sweep any stragglers (fill_dups
        # skips already-settled entries, so nothing double-counts).
        for p in dups_of:
            fill_dups(p)
        return results


def _cache_spec() -> tuple | None:
    """The active cache's tier spec, for a batch header.

    Workers rebuild an equivalent cache per batch: counters start at
    zero (their deltas merge back through the harnesses), the memory
    tier is private, and the disk tier — the only shared state — is
    named by path.
    """
    from repro.cache import get_cache

    active = get_cache()
    if active is None:
        return None
    disk = active.store.disk
    if disk is not None:
        return ("disk", str(disk.root), disk.max_bytes)
    return ("mem",)


# ---------------------------------------------------------------------------
# Module-level lifecycle
# ---------------------------------------------------------------------------
_POOL: WorkerPool | None = None
_PREWARMED = False


def _prewarm_parent() -> None:
    global _PREWARMED
    if not _PREWARMED:
        prewarm()
        _PREWARMED = True


def get_pool(jobs: int) -> WorkerPool:
    """The process-wide pool, created or grown to ``jobs`` workers.

    The parent pre-imports the heavy modules before the first fork, so
    every worker starts from a warm snapshot.
    """
    global _POOL
    _prewarm_parent()
    if _POOL is None:
        _POOL = WorkerPool(jobs)
    else:
        _POOL.ensure(jobs)
    return _POOL


def warm_pool(jobs: int) -> WorkerPool:
    """Create/grow the pool and round-trip a no-op through every
    worker, so subsequent batches pay no spin-up — benchmarks call
    this before timing."""
    pool = get_pool(jobs)
    pool.run_batch(_ping, list(range(pool.size)), jobs=pool.size)
    return pool


def _ping(_: int) -> int:
    return os.getpid()


def shutdown(grace: float | None = None) -> None:
    """Tear down the process-wide pool (idempotent; also at exit).

    ``grace`` bounds each rung of the close escalation ladder
    (sentinel -> SIGTERM -> SIGKILL); a wedged worker cannot hang the
    interpreter for more than ~3x that.  A second call — e.g. atexit
    after an explicit ``serve`` teardown — is a no-op."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.close(grace)


atexit.register(shutdown)


@contextmanager
def pool_scope(jobs: int | None = None) -> Iterator[WorkerPool]:
    """Pin a pool for a region.

    Tears the pool down on exit only if this scope created it — a
    nested scope, or a scope entered after :func:`warm_pool`, leaves
    the outer pool running.
    """
    n = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
    created = _POOL is None
    pool = get_pool(n)
    try:
        yield pool
    finally:
        if created:
            shutdown()
