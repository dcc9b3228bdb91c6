"""Shared parallel-execution layer.

One *persistent* worker-pool abstraction serves every sweep in the
package: :func:`repro.bench.run_matrix` (mapper x kernel grids),
:func:`repro.dse.explore` (architecture sweeps), the ``portfolio``
mapper (racing several mappers on one kernel), the conformance fuzz
driver (:func:`repro.check.run_fuzz`), and the perf ledger's slices.
The contract:

* **One path for every ``jobs``** — callers make one ``pmap``/``race``
  call whatever ``jobs`` is; ``jobs`` only decides where the tasks
  run.  ``jobs <= 1`` runs them in-process, in submission order, never
  entering the pool, after the same parent prewarm the pool uses (so
  no task's first ``create()`` imports the mapper stack under its
  alarm).  Results come back in submission order regardless of
  completion order.
* **One pool per process** — workers are forked once, pre-warmed
  (heavy mapper/solver imports done before timing starts), and reused
  across calls (:mod:`repro.parallel.pool`); fork-per-call overhead no
  longer eats the parallel speedup of short mapping jobs.
* **Timeouts are data, not hangs** — every task runs under a
  SIGALRM-based :func:`time_limit` inside its worker, so a runaway
  mapper raises :class:`TaskTimeout` in-process and comes back as a
  failed :class:`PMapResult`; a worker wedged outside the interpreter
  is killed and respawned by a parent-side backstop, without
  poisoning the rest of the batch.
* **No nested pools** — workers are marked (:func:`in_worker`), and
  ``pmap``/``race`` run in-process inside one, so a ``portfolio``
  mapper inside a parallel ``run_matrix`` sweep does not fork a second
  pool per cell.
* **Traces travel** — values are pickled back whole, including any
  :class:`repro.obs.Span` trees a task attached, so ``--profile``
  aggregates child work in the parent.
* **Metrics and cache stats merge exactly** — each worker ships the
  metrics-snapshot delta (when a registry is active,
  :func:`repro.obs.metrics.metrics_scope`) and the mapping-cache stats
  delta (when a cache is active) its task accrued back on its
  :class:`PMapResult`, and one fold (:func:`fold_deltas`) merges both
  into the parent in submission order, so a ``jobs=N`` sweep reports
  the same counter totals, histogram counts and cache hit/miss counts
  as the in-process run.  In-process results ship no deltas: their
  counts already landed in the live registry and cache.
* **Identical work runs once** — callers that can content-address
  their tasks (the harnesses pass the mapping cache's keys) get
  in-batch dedup: duplicate tasks collapse onto one execution and the
  copies are marked ``deduped``; a copy books its primary's cache
  lookups as if replayed, so hit/miss totals still match ``jobs=1``.

Workers are forked (POSIX), so an architecture or registry built in
the parent before pool creation is visible in the children without
re-imports; ambient state that changes *after* the fork (metrics
scopes, cache scopes) is shipped per batch.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.parallel.pool import (
    WorkerCrash,
    WorkerPool,
    _log,
    get_pool,
    prewarm,
    shutdown,
    warm_pool,
)
from repro.parallel.tasks import (
    BACKSTOP_SLACK,
    PMapResult,
    TaskTimeout,
    fold_deltas,
    in_worker,
    run_task,
    time_left,
    time_limit,
)

__all__ = [
    "PMapResult",
    "TaskTimeout",
    "WorkerCrash",
    "WorkerPool",
    "fold_deltas",
    "get_pool",
    "in_process",
    "in_worker",
    "pmap",
    "race",
    "shutdown",
    "time_left",
    "time_limit",
    "warm_pool",
]


def in_process(jobs: int, n_items: int) -> bool:
    """Will ``pmap``/``race`` run ``n_items`` tasks here, not on the
    pool?  (``jobs <= 1``, a call from inside a worker, or one item;
    ``pmap`` then ignores dedup ``keys``, so callers may skip them.)"""
    return jobs <= 1 or in_worker() or n_items <= 1


def _run_here(
    fn: Callable[..., Any], shared: Any, item: Any, index: int,
    budget: float | None,
) -> PMapResult:
    """Run one task in-process.  An interrupt (``KeyboardInterrupt``,
    ``SystemExit``) propagates at once, as from a plain loop, instead
    of becoming a result the caller sees only after the whole batch."""
    args = (shared, item) if shared is not None else (item,)
    res = run_task(fn, args, index, budget)
    if res.error is not None and not isinstance(
        res.error, (Exception, TaskTimeout)
    ):
        raise res.error
    return res


def pmap(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    jobs: int,
    timeout: float | None = None,
    shared: Any = None,
    keys: Sequence[Any] | None = None,
    on_result: Callable[[int, PMapResult], None] | None = None,
) -> list[PMapResult]:
    """Apply ``fn`` to every item over the persistent worker pool.

    Args:
        fn: a picklable (module-level) callable.  Called as
            ``fn(item)``, or ``fn(shared, item)`` when ``shared`` is
            given.
        items: the work list; results come back in this order.
        jobs: worker processes.  ``jobs <= 1`` (or a call from inside
            a worker, or a single item) runs the items in-process, in
            order — same semantics, no pool.
        timeout: per-task wall-clock budget in seconds (None = none).
        shared: a batch-constant value (an architecture, a kernel
            suite) shipped to each participating worker once per batch
            instead of once per task.
        keys: optional per-item dedup keys (None entries never
            dedupe).  Items with equal keys run once; the duplicates
            receive deep copies of the primary's result, marked
            ``deduped``.  Only the pool path dedupes; in-process every
            item runs.
        on_result: called as ``on_result(index, result)`` the moment
            each item settles (duplicates settle with their primary),
            letting a caller stream results with no batch barrier.  It
            runs on the dispatching thread; exceptions are logged and
            swallowed, never propagated into the batch.

    Returns:
        One :class:`PMapResult` per item, submission-ordered.  The
        call itself only raises for infrastructure failures; task
        exceptions are returned, not raised.
    """
    items = list(items)
    if keys is not None:
        keys = list(keys)
        if len(keys) != len(items):
            raise ValueError("keys must align one-to-one with items")
    if in_process(jobs, len(items)):
        prewarm()  # as the pool does before it forks
        out: list[PMapResult] = []
        for i, item in enumerate(items):
            res = _run_here(fn, shared, item, i, timeout)
            out.append(res)
            if on_result is not None:
                try:
                    on_result(i, res)
                except Exception:
                    _log.exception("pool: on_result callback failed")
        return out
    pool = get_pool(min(jobs, len(items)))
    results = pool.run_batch(
        fn, items, jobs=jobs, timeout=timeout, shared=shared, keys=keys,
        on_result=on_result,
    )
    fold_deltas(results)
    return results  # type: ignore[return-value]


def race(
    fn: Callable[..., Any],
    items: Sequence[Any],
    *,
    jobs: int,
    timeout: float | None = None,
    shared: Any = None,
    accept: Callable[[PMapResult], bool] | None = None,
) -> list[PMapResult | None]:
    """Run items concurrently; the lowest-index accepted result wins.

    Results are examined in submission order, so the winner is
    deterministic regardless of completion order: the first result
    ``accept`` approves (default: :attr:`PMapResult.ok`) stops the
    race.  Losers are cancelled *promptly* — pending entrants are
    dropped and workers still running losers are killed and respawned
    the moment the winner is decided, rather than drained on
    teardown.  In-process (``jobs <= 1``, inside a worker, or one
    item) losers past the winner are simply never started.

    Returns the submission-ordered result list with ``None`` for every
    task past the winner (losers whose outcome was discarded).
    """
    accept = accept if accept is not None else (lambda r: r.ok)
    items = list(items)
    results: list[PMapResult | None] = [None] * len(items)
    if in_process(jobs, len(items)):
        prewarm()
        for i, item in enumerate(items):
            results[i] = _run_here(fn, shared, item, i, timeout)
            if accept(results[i]):
                break
        return results
    pool = get_pool(min(jobs, len(items)))
    results = pool.run_batch(
        fn, items, jobs=jobs, timeout=timeout, shared=shared,
        accept=accept,
    )
    # Only examined entrants' deltas merge; cancelled losers' partial
    # work is discarded with them (deterministic either way — the
    # examined prefix is fixed by submission order).
    fold_deltas(results)
    return results
