"""Task primitives shared by the in-process path and the pool workers.

Everything here runs identically in-process and inside a persistent
worker: the :class:`PMapResult` envelope, the SIGALRM-based
:func:`time_limit`, :func:`run_task`, which executes one task under
its budget and (in a worker) collects the task's metrics snapshot and
cache-stats delta, and :func:`fold_deltas`, which merges those deltas
into the parent so ``jobs=N`` totals equal the ``jobs=1`` numbers.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.metrics import MetricsRegistry, get_metrics, metrics_scope

__all__ = [
    "BACKSTOP_SLACK",
    "PMapResult",
    "TaskTimeout",
    "disarm_alarm",
    "fold_deltas",
    "in_worker",
    "mark_worker",
    "run_task",
    "time_left",
    "time_limit",
]

#: Parent-side backstop slack (seconds) beyond the in-worker alarm —
#: only reached when a worker hangs outside the interpreter, where
#: SIGALRM cannot unwind it.
BACKSTOP_SLACK = 10.0

_IN_WORKER = False

#: ``(deadline, seconds)`` of every active :func:`time_limit`,
#: outermost first; each entry already holds the earliest deadline of
#: itself and the limits around it.
_LIMITS: list[tuple[float, float]] = []


class TaskTimeout(BaseException):
    """A task exceeded its wall-clock budget.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so an
    ``except Exception`` on the interrupted path — a logging handler's
    emit guard, an import hook, a library's defensive catch — cannot
    swallow the one-shot alarm and let the task run on unbounded.
    Catch it by name.
    """


def in_worker() -> bool:
    """True inside a :func:`repro.parallel.pmap` worker process."""
    return _IN_WORKER


def mark_worker() -> None:
    """Flag this process as a pool worker.

    ``pmap``/``race`` check :func:`in_worker` and run in-process
    inside a worker, so a ``portfolio`` mapper inside a parallel
    ``run_matrix`` sweep never forks a nested pool.
    """
    global _IN_WORKER
    _IN_WORKER = True
    # A worker forked inside a parent's time_limit inherits its
    # deadlines but not its timer; its tasks answer to their own.
    _LIMITS.clear()


def disarm_alarm() -> None:
    """Clear any leaked SIGALRM before the next task of a reused worker.

    :func:`time_limit` unwinds its own timer, but a *task* that armed
    SIGALRM itself and failed to clean up would deliver the stale alarm
    mid-next-task.  The handler is parked on ``SIG_IGN`` first — not
    ``SIG_DFL``, whose disposition for SIGALRM kills the process — so
    even a signal already queued for delivery is discarded, then the
    timer is cancelled.
    """
    if threading.current_thread() is not threading.main_thread():
        return
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    signal.setitimer(signal.ITIMER_REAL, 0.0)


class time_limit:
    """``with time_limit(seconds):`` raises :class:`TaskTimeout` in the
    block after ``seconds``.

    SIGALRM-based, so it interrupts pure-Python compute loops (the
    usual way a mapper hangs).  A no-op when ``seconds`` is None/0 or
    when not on the main thread (signals cannot be delivered there);
    pool workers run tasks on their main thread, so the limit is
    always live in parallel sweeps.

    Limits nest: an inner limit arms the earlier of its own deadline
    and the enclosing one, and its exit re-arms what is left of the
    enclosing budget (at once, if that deadline has passed).  Once a
    deadline has passed the alarm fires again every :data:`REFIRE`
    seconds until the block that armed it exits, so an inner block's
    ``except TaskTimeout`` cannot eat an enclosing limit's timeout.
    The alarm never raises inside this class's own bookkeeping.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self._old: Any = None
        self._armed = False

    def __enter__(self) -> None:
        seconds = self.seconds
        if not seconds or seconds <= 0:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        limit = (time.monotonic() + seconds, seconds)
        if _LIMITS:
            limit = min(limit, _LIMITS[-1])
        self._old = signal.signal(signal.SIGALRM, _raise_timeout)
        _LIMITS.append(limit)
        self._armed = True
        _arm(limit[0])

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._armed:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            _LIMITS.pop()
            signal.signal(signal.SIGALRM, self._old)
            if _LIMITS:
                _arm(_LIMITS[-1][0])
        return False


def time_left() -> float | None:
    """Seconds left before the innermost active :func:`time_limit`
    expires (0.0 once it has passed); None outside any limit, or off
    the main thread, where limits are no-ops.

    The alarm cannot interrupt native code, so a native solver takes
    this as its own time limit to stop close to the deadline.
    """
    if threading.current_thread() is not threading.main_thread():
        return None
    if not _LIMITS:
        return None
    return max(_LIMITS[-1][0] - time.monotonic(), 0.0)


#: seconds between repeated alarms once a deadline has passed
REFIRE = 0.05


def _arm(deadline: float) -> None:
    # setitimer(0) disarms, so an already-passed deadline fires as
    # soon as possible instead.
    signal.setitimer(
        signal.ITIMER_REAL, max(deadline - time.monotonic(), 1e-6), REFIRE
    )


#: code of the frames in which an alarm is dropped, not raised: the
#: limit's own entry and exit (the repeating timer delivers it later)
_QUIET = {time_limit.__enter__.__code__, time_limit.__exit__.__code__,
          _arm.__code__}


def _raise_timeout(signum, frame) -> None:
    if frame is not None and frame.f_code in _QUIET:
        return
    seconds = _LIMITS[-1][1] if _LIMITS else 0.0
    raise TaskTimeout(f"timeout after {seconds:g}s")


# ---------------------------------------------------------------------------
@dataclass
class PMapResult:
    """Outcome of one :func:`repro.parallel.pmap` task, in submission order.

    ``ok`` tasks carry their return value; failed ones carry the
    raised exception (``timed_out`` distinguishes budget overruns from
    genuine errors, so harnesses can turn the former into failure rows
    and re-raise the latter).  ``metrics`` and ``cache`` are the
    worker's metrics-snapshot and cache-stats deltas for this task
    (None when no registry or cache was active, or the task ran
    in-process, where both already landed in the live objects); the
    parent folds them into its own with :func:`fold_deltas`.
    ``deduped`` marks a result copied from an identical in-flight task
    in the same batch rather than computed — such a result did no
    work, so it ships no metrics, and its ``cache`` delta is its
    primary's lookups replayed (see ``WorkerPool._fill_dups``).
    """

    index: int
    ok: bool
    value: Any = None
    error: BaseException | None = None
    timed_out: bool = False
    elapsed: float = 0.0
    metrics: dict | None = None
    deduped: bool = False
    cache: dict | None = None


def run_task(
    fn: Callable[..., Any],
    args: tuple,
    index: int,
    timeout: float | None,
    *,
    collect_metrics: bool = False,
    collect_cache: bool = False,
) -> PMapResult:
    """Execute one task under its time budget.

    With ``collect_metrics`` (the persistent-pool workers, when the
    parent had a registry active at batch start) the task runs under a
    fresh registry whose snapshot *is* the task's delta; with
    ``collect_cache`` (the workers) the active cache's stats delta
    rides back too.  Both ship on success and failure alike, since
    partial work counts.  In-process runs ship nothing: their metrics
    and cache counts already landed in the live objects.
    """
    from repro.cache import get_cache

    cache = get_cache() if collect_cache else None
    before = cache.stats.snapshot() if cache is not None else None
    if collect_metrics:
        registry = MetricsRegistry()
        with metrics_scope(registry):
            res = _execute(fn, args, index, timeout)
        res.metrics = registry.snapshot() or None
    else:
        res = _execute(fn, args, index, timeout)
    if cache is not None:
        delta = cache.stats.delta_since(before)
        res.cache = delta if any(delta.values()) else None
    return res


def _execute(
    fn: Callable[..., Any],
    args: tuple,
    index: int,
    timeout: float | None,
) -> PMapResult:
    t0 = time.perf_counter()
    try:
        with time_limit(timeout):
            value = fn(*args)
        return PMapResult(
            index=index, ok=True, value=value,
            elapsed=time.perf_counter() - t0,
        )
    except TaskTimeout as ex:
        return PMapResult(
            index=index, ok=False, error=ex, timed_out=True,
            elapsed=time.perf_counter() - t0,
        )
    except BaseException as ex:  # pickled back; parent decides
        return PMapResult(
            index=index, ok=False, error=ex,
            elapsed=time.perf_counter() - t0,
        )


def fold_deltas(results: Sequence[PMapResult | None]) -> None:
    """Merge worker metric and cache-stats deltas into the parent's
    registry and cache, in submission order (deterministic regardless
    of completion order)."""
    from repro.cache import get_cache

    registry = get_metrics()
    cache = get_cache()
    for res in results:
        if res is None:
            continue
        if res.metrics and registry.enabled:
            registry.merge(res.metrics)
        if res.cache and cache is not None:
            cache.stats.merge(res.cache)
