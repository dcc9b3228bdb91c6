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
* **One dispatch/settle core for any number of task groups** — a
  group is one batch: its items and per-task budgets, its results in
  submission order, its dedup map and its callbacks.  Open groups
  share one FIFO queue, so a second batch starts on a worker the
  moment that worker frees up from the first batch's slow tail.
  ``run_batch`` opens one group and runs the loop until it settles;
  the serve daemon's pool-owner thread keeps the loop running
  (:meth:`WorkerPool.drive`) and opens a group per batch.  Only one
  thread may drive the loop; a second one gets ``RuntimeError``.
* **Chunked dispatch with revocable prefetch** — the parent feeds
  each worker over its own pipe, at most :data:`INFLIGHT_PER_WORKER`
  tasks in flight per worker (one running, one prefetched), pulling
  the next task from the queue as results drain.  A worker with
  nothing to do first takes over the oldest task prefetched behind
  another worker's running one, so a slow task no longer holds the
  task queued behind it; a per-worker claim record (:class:`_Claim`)
  makes sure the task runs exactly once.  Results are reassembled in
  submission order regardless of completion order.
* **Per-group ambient context** — workers fork once, but metrics
  registries and cache scopes come and go in the parent; each group's
  header ships the current state (metrics on/off, cache tier spec) so
  a worker forked before a ``metrics_scope`` still ships deltas and a
  worker forked before a ``cache_scope`` still shares the disk tier.
  A worker gets the header once per loop, and again only when the
  next group's differs, so its memory tier lives as long as the loop.
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
* **In-group dedup** — when the caller supplies content-addressed
  ``keys``, identical tasks of one group collapse onto one execution and
  the duplicates receive deep copies of the primary's result (marked
  ``deduped``, no metrics — they did no work — and the primary's cache
  lookups booked as if replayed).
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
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
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
#: worker from idling between a result and the parent's next send; a
#: prefetched task stuck behind a slow one is taken over by the first
#: worker to go idle, so the window costs no head-of-line wait.
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
    """Apply a group header's cache spec in a worker.

    The worker's fork-time cache snapshot is stale the moment the
    parent enters or leaves a ``cache_scope``, so each header installs
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


class _Claim:
    """The claim record one worker shares with the parent: the last
    task id the worker started, the task id the parent took back from
    it (``-1``: none), and the lock both sides write them under.
    Created before the fork, so the worker inherits it; a respawned
    worker gets a fresh one."""

    __slots__ = ("lock", "started", "revoked")

    def __init__(self, ctx) -> None:
        self.lock = ctx.Lock()
        self.started = ctx.RawValue("q", -1)
        self.revoked = ctx.RawValue("q", -1)

    def start(self, task_id: int) -> bool:
        """Worker side: record ``task_id`` as started, unless the
        parent revoked it (then the worker skips it and sends
        nothing)."""
        with self.lock:
            if self.revoked.value == task_id:
                return False
            self.started.value = task_id
            return True

    def revoke(self, running: int, task_id: int) -> bool:
        """Parent side: take ``task_id`` back if the worker is running
        ``running``, the task queued just ahead of it.

        Never blocks: a busy lock (or a worker that died holding it)
        just means no revocation this time.  Requiring the worker to
        be *on* ``running`` means it has read past every earlier task,
        including a previously revoked one, so one ``revoked`` slot is
        enough."""
        if not self.lock.acquire(block=False):
            return False
        try:
            if self.started.value != running:
                return False
            self.revoked.value = task_id
            return True
        finally:
            self.lock.release()


def _worker_main(conn, claim: _Claim) -> None:
    """A pool worker's life: pre-import, then loop header/task messages.

    Message protocol (parent -> worker):
      ``None``                                    — exit
      ``("batch", fn, shared, use_shared,
         metrics_on, cache_spec)``                — the header for the
                                                    tasks that follow
      ``("task", task_id, index, item, timeout)`` — run one task

    The wall-clock budget rides on each *task* message (not the
    header), so one group can mix per-task deadlines — the serve
    daemon's per-request budgets.

    Worker -> parent: ``(task_id, PMapResult)`` per task it ran; a
    task the parent revoked through ``claim`` is skipped silently.
    Any leaked SIGALRM is disarmed before *and* after each task, so a
    timer armed for task k can never fire mid-task k+1 of the same
    long-lived worker.
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
        if not claim.start(task_id):
            continue  # taken over by an idle worker
        disarm_alarm()
        args = (shared, item) if use_shared else (item,)
        res = run_task(
            fn, args, index, timeout,
            collect_metrics=metrics_on, collect_cache=True,
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
                        cache=res.cache,
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
@dataclass(eq=False, slots=True)
class _Group:
    """One open task group: a batch's items, results and callbacks.

    Any number of groups share the core's FIFO queue and its workers.
    Each keeps its own dedup map, so keys never collapse across groups,
    and a settled group leaves no entry behind in the core.
    """

    items: list
    budgets: list
    header: tuple
    #: the group's tasks run on the pool's first ``jobs`` workers
    jobs: int
    accept: Callable[[PMapResult], bool] | None
    on_result: Callable[[int, PMapResult], None] | None
    on_done: Callable[[list], None] | None
    results: list = field(init=False)
    #: primary index -> its duplicate indices, so duplicates can
    #: settle (and stream) with their primary
    dups_of: dict[int, list[int]] = field(default_factory=dict)
    needed: int = 0
    done: int = 0
    winner: int | None = None
    settled: bool = False

    def __post_init__(self) -> None:
        self.results = [None] * len(self.items)


class _Worker:
    __slots__ = ("proc", "conn", "claim", "tasks", "header", "robbed")

    def __init__(self, proc, conn, claim: _Claim) -> None:
        self.proc = proc
        self.conn = conn
        self.claim = claim
        #: task_id -> (group, item index, hard deadline, task budget);
        #: insertion order is dispatch order, which the worker also
        #: completes in.  The deadline stays ``None`` while the task is
        #: merely prefetched behind a predecessor — it is stamped only
        #: when the task becomes the worker's head-of-line (i.e.
        #: starts running), so queue wait never counts against the
        #: backstop budget.  The budget is the task's own wall-clock
        #: limit (groups may mix per-task budgets).
        self.tasks: dict[
            int, tuple[_Group, int, float | None, float | None]
        ] = {}
        #: the last group header sent down this pipe in the current
        #: loop (None: the next task needs one first)
        self.header: tuple | None = None
        #: lost its prefetched task to an idle worker: no new prefetch
        #: until the running task reports
        self.robbed = False


def _same_header(sent: tuple | None, header: tuple) -> bool:
    """Whether a worker that last received ``sent`` can run a task of
    ``header``'s group as is.  ``fn`` and ``shared`` compare by
    identity: ``shared`` need not support ``==``."""
    return (
        sent is not None
        and sent[1] is header[1]
        and sent[2] is header[2]
        and sent[3:] == header[3:]
    )


class WorkerPool:
    """A set of long-lived forked workers plus the dispatch/settle core.

    Use the module-level :func:`get_pool`/:func:`pool_scope` rather
    than instantiating directly — the whole point is that one pool
    outlives many ``pmap``/``race`` calls.

    The core holds any number of open task groups
    (:meth:`open_group`) on one FIFO queue, and one loop moves their
    tasks: dispatch, settle, crash salvage, the hard-timeout backstop.
    :meth:`run_batch` is its one-group case; :meth:`drive` runs the
    loop for a caller that keeps opening groups (the serve daemon's
    pool-owner thread).  Only one thread may run the loop at a time.
    """

    def __init__(self, jobs: int) -> None:
        self._ctx = get_context("fork")
        self._workers: list[_Worker] = []
        self._groups: list[_Group] = []
        #: (group, item index) in submission order, across groups
        self._pending: deque[tuple[_Group, int]] = deque()
        self._seq = 0
        #: ident of the thread holding the loop, None while idle
        self._holder: int | None = None
        self._claim_lock = threading.Lock()
        self.batches = 0
        self.tasks_run = 0
        #: workers replaced after a crash or hard timeout
        self.respawns = 0
        #: workers replaced to cancel race() losers promptly
        self.cancels = 0
        #: duplicate tasks collapsed onto an in-group primary
        self.dedup_hits = 0
        #: prefetched tasks taken over by an idle worker
        self.steals = 0
        self.ensure(jobs)

    # -- lifecycle -----------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._workers)

    @property
    def open_groups(self) -> int:
        """Groups opened and not yet settled."""
        return len(self._groups)

    def pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        claim = _Claim(self._ctx)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, claim),
            name="repro-pool-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn, claim)

    def ensure(self, jobs: int) -> None:
        """Grow to at least ``jobs`` workers (the pool never shrinks)
        and replace any worker that died while idle.  A worker that
        died with tasks in flight is left to the loop, which fails and
        re-queues them."""
        if self._holder not in (None, threading.get_ident()):
            raise RuntimeError(
                "the worker pool is being driven by another thread"
            )
        for i, w in enumerate(self._workers):
            if not w.tasks and not w.proc.is_alive():
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

    def _replace(self, w: _Worker) -> None:
        """Swap a dead/condemned worker for a fresh one, in place."""
        self._workers[self._workers.index(w)] = self._spawn()
        self._discard(w)

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

    # -- ownership -----------------------------------------------------
    @contextmanager
    def _claim(self) -> Iterator[None]:
        """Hold the loop for the calling thread.  The pool is neither
        thread-safe nor reentrant, so a second holder — another
        thread, or a callback of this loop — raises instead of racing
        the first."""
        me = threading.get_ident()
        with self._claim_lock:
            if self._holder is not None:
                raise RuntimeError(
                    "the worker pool is already being driven"
                    + (" (reentrant call)" if self._holder == me else
                       " by another thread")
                )
            self._holder = me
        for w in self._workers:
            w.header = None  # each loop announces its headers afresh
        try:
            yield
        except BaseException as ex:
            self._abandon(ex)
            raise
        finally:
            self._holder = None

    def _abandon(self, ex: BaseException) -> None:
        """The loop is unwinding with groups still open: fail their
        unsettled items and settle them, so no caller waits forever.
        Results still in flight are ignored when they arrive."""
        self._pending.clear()
        for w in self._workers:
            w.tasks.clear()
            w.robbed = False
        for g in list(self._groups):
            for i, res in enumerate(g.results):
                if res is None:
                    self._finish(g, i, PMapResult(
                        index=i, ok=False,
                        error=RuntimeError(f"pool loop failed: {ex!r}"),
                    ))
            self._close(g)

    # -- the group core ------------------------------------------------
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
        """Run one batch over the pool — open one group, run the loop
        until it settles; see ``pmap``/``race`` for the caller-facing
        contracts and :meth:`open_group` for the arguments."""
        with self._claim():
            g = self.open_group(
                fn, items, jobs=jobs, timeout=timeout, timeouts=timeouts,
                shared=shared, keys=keys, accept=accept,
                on_result=on_result,
            )
            self._loop(lambda: g.settled)
        return g.results

    def drive(
        self,
        until: Callable[[], bool],
        *,
        wake: Any = None,
        on_wake: Callable[[], None] | None = None,
    ) -> None:
        """Run the loop on the calling thread until ``until()`` holds.

        ``wake`` is a readable file-like object (a socket, a pipe
        end) waited on beside the worker pipes; when it is readable
        the loop calls ``on_wake()``, which must drain it and may open
        groups.  ``until`` is checked after every settle pass.
        """
        with self._claim():
            self._loop(until, wake, on_wake)

    def open_group(
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
        on_done: Callable[[list[PMapResult | None]], None] | None = None,
    ) -> _Group:
        """Queue a task group behind the ones already open.

        Only the thread running the loop may open groups (from
        ``on_wake``, or inside :meth:`run_batch`).  ``keys`` enables
        in-group dedup: items with an equal, non-None key collapse
        onto the first occurrence.  ``accept`` switches race semantics
        on: the lowest-index accepted result wins, and everything past
        it is cancelled (``None`` in the output).  The two are
        mutually exclusive.

        ``timeouts`` gives every item its own wall-clock budget
        (overriding the group-wide ``timeout``); ``on_result`` is
        invoked as ``on_result(index, result)`` the moment each item
        settles — including deduped copies, which settle with their
        primary — so a caller can stream results out with no batch
        barrier.  ``on_done(results)`` fires once, when the whole
        group has settled.  Callbacks run on the loop's thread; keep
        them cheap and never let them raise (exceptions are logged
        and swallowed).  The returned group's ``settled`` and
        ``results`` are read-only to the caller.
        """
        if self._holder != threading.get_ident():
            raise RuntimeError(
                "open_group outside the thread running the pool's loop"
            )
        if accept is not None and keys is not None:
            raise ValueError("keys= dedup is not supported under race()")
        if accept is not None and on_result is not None:
            raise ValueError(
                "on_result= streaming is not supported under race()"
            )
        items = list(items)
        n = len(items)
        if timeouts is not None:
            budgets = list(timeouts)
            if len(budgets) != n:
                raise ValueError(
                    "timeouts must align one-to-one with items"
                )
        else:
            budgets = [timeout] * n
        self.batches += 1
        header = (
            "batch",
            fn,
            shared,
            shared is not None,
            get_metrics().enabled,
            _cache_spec(),
        )
        g = _Group(items, budgets, header, jobs, accept, on_result,
                   on_done)

        # Dedup plan: the indices that actually run, and who copies whom.
        order: list[int] = []
        first: dict[Any, int] = {}
        for i in range(n):
            k = keys[i] if keys is not None else None
            if k is not None and k in first:
                g.dups_of.setdefault(first[k], []).append(i)
            else:
                if k is not None:
                    first[k] = i
                order.append(i)
        g.needed = len(order)

        # Grow only to what this group can use — never fork workers
        # that len(order) tasks could not occupy (the pool does not
        # shrink, so overshoot would idle forever).
        self.ensure(max(1, min(jobs, len(order))))
        self._groups.append(g)
        self._pending.extend((g, i) for i in order)
        return g

    def _loop(
        self,
        until: Callable[[], bool],
        wake: Any = None,
        on_wake: Callable[[], None] | None = None,
    ) -> None:
        """The dispatch/settle loop — the only place tasks move.

        Each turn settles finished groups, feeds the queue to workers
        with a free slot, waits one tick on the busy workers' pipes
        (and ``wake``), records what arrived, then enforces the
        hard-timeout backstop.
        """
        while True:
            self._settle_groups()
            if until():
                return
            self._dispatch()
            conns = {w.conn: w for w in self._workers if w.tasks}
            if not conns and self._pending:
                continue  # replacement workers take the queue
            if not conns and wake is None:
                return  # nothing in flight, nothing to wait for
            waitables = list(conns) if wake is None else [*conns, wake]
            for conn in _conn_wait(waitables, timeout=POLL_TICK):
                if conn is wake:
                    on_wake()
                    continue
                w = conns[conn]
                try:
                    task_id, res = conn.recv()
                except (EOFError, OSError):
                    self._fail_worker(w, None)
                    continue
                if task_id == "decode_error":
                    # The worker could not unpickle a message (typically
                    # an fn defined in __main__ after the fork) and is
                    # exiting; fail its current task with the real cause.
                    self._fail_worker(w, _decode_crash(res))
                    continue
                self._record(w, task_id, res)
            self._backstop()

    def _dispatch(self) -> None:
        """Feed idle workers the tasks stuck behind other workers, then
        the FIFO queue to workers with a free slot.

        The head task goes to the least-loaded of its group's workers.
        On a tie it queues behind its own group's running task rather
        than another group's, which is likely that group's slow tail;
        within one group, ties go to the lowest worker index.
        """
        for n, w in enumerate(self._workers):
            if not w.tasks:
                self._steal(n, w)
        while self._pending:
            g, i = self._pending[0]
            candidates = [
                w for w in self._workers[: g.jobs]
                if len(w.tasks) < (1 if w.robbed else INFLIGHT_PER_WORKER)
            ]
            if not candidates:
                return
            w = min(candidates, key=lambda c: (
                len(c.tasks),
                bool(c.tasks) and next(iter(c.tasks.values()))[0] is not g,
            ))
            self._pending.popleft()
            self._send(w, g, i)

    def _steal(self, n: int, thief: _Worker) -> None:
        """Give the idle worker ``thief`` (index ``n``) the oldest task
        prefetched behind another worker's running task, among the
        groups whose ``jobs`` reach it.  A prefetched task left the
        FIFO ahead of everything still in it, so it goes first."""
        waiting = sorted(
            (task_id, w)
            for w in self._workers if w is not thief
            for task_id in list(w.tasks)[1:]
            if n < w.tasks[task_id][0].jobs
        )
        for task_id, w in waiting:
            if w.claim.revoke(next(iter(w.tasks)), task_id):
                g, i, _dl, _b = w.tasks.pop(task_id)
                w.robbed = True
                self.steals += 1
                self._send(thief, g, i)
                return

    def _send(self, w: _Worker, g: _Group, i: int) -> None:
        """Queue item ``i`` of ``g`` on worker ``w``'s pipe."""
        try:
            if not _same_header(w.header, g.header):
                w.conn.send(g.header)
                w.header = g.header
            w.conn.send(("task", self._seq, i, g.items[i], g.budgets[i]))
        except (BrokenPipeError, OSError):
            self._pending.appendleft((g, i))
            self._fail_worker(w, None)
            return
        except Exception as ex:
            # Unpicklable fn/shared/item: fail the task the way a
            # fork-per-call pool would, keep the worker.
            self._finish(g, i, PMapResult(index=i, ok=False, error=ex))
            return
        # Queued unarmed; _arm_head stamps the deadline once the task
        # is actually running (immediately, if the worker was idle).
        w.tasks[self._seq] = (g, i, None, g.budgets[i])
        self._seq += 1
        self._arm_head(w)

    def _arm_head(self, w: _Worker) -> None:
        """Stamp the hard deadline on the worker's head-of-line task if
        it is still unarmed.

        Deadlines start when a task *starts running*, not when it is
        queued: a task prefetched behind a slow predecessor must get
        its full ``timeout + BACKSTOP_SLACK`` budget of its own, or
        long tasks would spuriously hard-fail under ``jobs >= 2``
        while succeeding under ``jobs=1``."""
        if not w.tasks:
            return
        head = next(iter(w.tasks))
        g, i, dl, budget = w.tasks[head]
        if dl is None and budget is not None:
            w.tasks[head] = (
                g, i, time.monotonic() + budget + BACKSTOP_SLACK, budget
            )

    def _record(self, w: _Worker, task_id: int, res: PMapResult) -> None:
        """A worker reported a task's result."""
        entry = w.tasks.pop(task_id, None)
        if entry is None:
            return  # already accounted for (killed worker, old loop)
        w.robbed = False
        self._arm_head(w)  # the next queued task is now running
        g, i = entry[0], entry[1]
        if g.results[i] is None:
            self.tasks_run += 1
            self._finish(g, i, res)

    def _finish(self, g: _Group, i: int, res: PMapResult) -> None:
        """Record a real (non-duplicate) task's final result, stream it
        and its duplicates out, and decide a race once its prefix is
        settled."""
        if g.results[i] is not None:
            return
        g.results[i] = res
        g.done += 1
        self._emit(g, i, res)
        self._fill_dups(g, i)
        if g.accept is not None and g.winner is None:
            for j, r in enumerate(g.results):
                if r is None:
                    break  # an earlier entrant is still running
                if g.accept(r):
                    g.winner = j
                    break

    def _emit(self, g: _Group, i: int, res: PMapResult) -> None:
        if g.on_result is None:
            return
        try:
            g.on_result(i, res)
        except Exception:
            _log.exception("pool: on_result callback failed")

    def _fill_dups(self, g: _Group, p: int) -> None:
        """Copy a settled primary's result onto its duplicates: a deep
        copy, so the caller can mutate results independently; no
        metrics (the duplicate did no work).

        A copy books its primary's cache lookups as if they were
        replayed, which is what the duplicate's own in-process run
        would have done: every primary hit, and every miss the primary
        then stored, becomes a hit; a miss that stored nothing (a
        failed map) stays a miss."""
        src = g.results[p]
        if src is None:
            return
        cache = None
        if src.cache:
            stored = min(src.cache["misses"], src.cache["stores"])
            cache = {
                "hits": src.cache["hits"] + stored,
                "misses": src.cache["misses"] - stored,
            }
        for i in g.dups_of.get(p, ()):
            if g.results[i] is not None:
                continue
            try:
                value = copy.deepcopy(src.value)
            except Exception:
                value = src.value
            g.results[i] = PMapResult(
                index=i,
                ok=src.ok,
                value=value,
                error=src.error,
                timed_out=src.timed_out,
                elapsed=0.0,
                deduped=True,
                cache=cache,
            )
            self.dedup_hits += 1
            get_metrics().counter(POOL_DEDUP_TOTAL).inc()
            self._emit(g, i, g.results[i])

    def _settle_groups(self) -> None:
        """Close every group that is complete or whose race is decided."""
        for g in [
            g for g in self._groups
            if g.winner is not None or g.done >= g.needed
        ]:
            if g.winner is not None:
                self._cancel(g)
            self._close(g)

    def _cancel(self, g: _Group) -> None:
        """Prompt loser cancellation: drop the group's queue, kill the
        workers still running its tasks and respawn them; other
        groups' tasks on those workers go back to the queue front."""
        self._pending = deque(e for e in self._pending if e[0] is not g)
        for w in list(self._workers):
            others = [(h, j) for h, j, _dl, _b in w.tasks.values()
                      if h is not g]
            if len(others) == len(w.tasks):
                continue
            w.tasks.clear()
            self._pending.extendleft(reversed(others))
            self.cancels += 1
            self._replace(w)

    def _close(self, g: _Group) -> None:
        """Settle a group: it leaves the core, then ``on_done`` fires."""
        self._groups.remove(g)
        # Belt-and-braces: duplicates normally settle with their
        # primary inside _finish; sweep any stragglers (_fill_dups
        # skips already-settled entries, so nothing double-counts).
        for p in g.dups_of:
            self._fill_dups(g, p)
        # race contract: entries past the winner stay None, even those
        # that happened to finish before the decision.
        if g.winner is not None:
            for j in range(g.winner + 1, len(g.results)):
                g.results[j] = None
        g.settled = True
        if g.on_done is not None:
            try:
                g.on_done(g.results)
            except Exception:
                _log.exception("pool: on_done callback failed")

    # -- failure containment -------------------------------------------
    def _drain(self, w: _Worker) -> WorkerCrash | None:
        """Collect results the worker sent before dying/judgement.

        Returns the decode-error diagnostic if the worker queued its
        ``("decode_error", ...)`` sentinel, so the subsequent EOF is
        not misreported as a generic crash."""
        derr: WorkerCrash | None = None
        try:
            while w.conn.poll(0):
                task_id, res = w.conn.recv()
                if task_id == "decode_error":
                    derr = _decode_crash(res)
                    continue
                self._record(w, task_id, res)
        except (EOFError, OSError):
            pass
        return derr

    def _fail_worker(
        self,
        w: _Worker,
        error: BaseException | None,
        timed_out: bool = False,
    ) -> None:
        """A worker died or was condemned: salvage what it sent, fail
        its earliest in-flight task (the one it was running — dispatch
        order is completion order), re-queue the rest at the queue
        front, and respawn."""
        derr = self._drain(w)
        if error is None:
            error = derr
        remaining = list(w.tasks.values())
        w.tasks.clear()
        if remaining:
            g, i, _dl, _b = remaining[0]
            err = error if error is not None else WorkerCrash(
                f"pool worker died running task {i}"
            )
            self._finish(g, i, PMapResult(
                index=i, ok=False, error=err, timed_out=timed_out
            ))
            self._pending.extendleft(
                (h, j) for h, j, _dl, _b in reversed(remaining[1:])
            )
        self.respawns += 1
        get_metrics().counter(POOL_RESPAWNS_TOTAL).inc()
        _log.warning(
            "pool: respawned a worker (%s)",
            error if error is not None else "crashed",
        )
        self._replace(w)

    def _head_overdue(self, w: _Worker, now: float) -> float | None:
        """If the worker's earliest in-flight task is past its hard
        deadline, return that task's budget (for the diagnostic);
        ``None`` otherwise.  Later entries are unarmed by
        construction."""
        if not w.tasks:
            return None
        _g, _i, dl, budget = next(iter(w.tasks.values()))
        if dl is not None and now > dl:
            return budget if budget is not None else 0.0
        return None

    def _backstop(self) -> None:
        """Hard-timeout backstop: a worker whose *running* task is past
        its deadline is wedged beyond the in-process alarm, stuck
        outside the interpreter; kill just that worker, not the pool.
        Only the head-of-line task is armed, so prefetched tasks
        cannot trip the backstop from queue wait."""
        now = time.monotonic()
        for w in list(self._workers):
            if self._head_overdue(w, now) is None:
                continue
            derr = self._drain(w)  # the task may have finished this tick
            if derr is not None:
                self._fail_worker(w, derr)
                continue
            budget = self._head_overdue(w, now)
            if budget is not None:
                self._fail_worker(
                    w,
                    TaskTimeout(
                        "hard timeout: worker unresponsive after"
                        f" {budget + BACKSTOP_SLACK:g}s"
                    ),
                    timed_out=True,
                )


def _decode_crash(detail: Any) -> WorkerCrash:
    return WorkerCrash(
        f"worker could not decode a task ({detail}); is"
        " fn a module-level (importable) function?"
    )


def _cache_spec() -> tuple | None:
    """The active cache's tier spec, for a group header.

    Workers rebuild an equivalent cache per header: counters start at
    zero (their deltas ride back on each result), the memory
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
