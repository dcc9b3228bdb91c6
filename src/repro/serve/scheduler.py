"""Pool-facing batch execution for the serve daemon.

One batch of validated requests becomes one task group of the
pool's dispatch/settle core — opened on the daemon's pool-owner
thread by :func:`open_batch`, or run to completion by
:func:`map_batch` (the core's one-group ``run_batch`` case).
Per-request deadlines ride in as per-task budgets (worker-side
SIGALRM plus the parent's head-of-line backstop), content-addressed
keys collapse identical requests of one batch onto one execution, and
every result streams out through ``on_result`` the moment it settles
— the daemon never waits for the batch barrier.

The worker payload rebuilds the problem from its picklable spec
(kernel name or DFG document — never live graph objects) and returns
the *serialized* mapping document, so a response's bytes are decided
in the worker and a deduped copy is byte-identical to its primary.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Sequence

from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.core.serialize import dfg_from_doc, mapping_to_doc
from repro.ir import kernels as kernel_lib
from repro.parallel import PMapResult, WorkerPool, fold_deltas, get_pool
from repro.serve.validate import Prepared

__all__ = ["map_batch", "open_batch", "response_of"]

_log = logging.getLogger("repro.serve.scheduler")


def _map_task(item: tuple) -> tuple:
    """Pool payload: map one request (module-level for pickling).

    Returns ``("ok", mapping_doc, meta)`` or
    ``("map_failure", detail, None)``; timeouts and crashes surface
    through the :class:`PMapResult` envelope instead.
    """
    kind, spec, arch, mapper_name, ii, options = item
    from repro.arch import presets

    cgra = presets.by_name(arch)
    dfg = (
        kernel_lib.kernel(spec) if kind == "kernel"
        else dfg_from_doc(spec)
    )
    mapper = create(mapper_name, **options)
    try:
        mapping = mapper.map(dfg, cgra, ii=ii)
    except MapFailure as ex:
        return ("map_failure", str(ex), None)
    meta = {
        "ii": mapping.ii,
        "map_time_ms": round(1000 * mapping.map_time, 3),
    }
    return ("ok", mapping_to_doc(mapping), meta)


def response_of(p: Prepared, res: PMapResult) -> dict[str, Any]:
    """Translate one settled pool result into a response document."""
    base: dict[str, Any] = {"id": p.rid, "index": p.index}
    if res.ok:
        status, payload, meta = res.value
        if status == "ok":
            return {
                **base,
                "ok": True,
                "mapping": payload,
                "ii": meta["ii"],
                "map_time_ms": meta["map_time_ms"],
                "elapsed_ms": round(1000 * res.elapsed, 3),
                "deduped": res.deduped,
            }
        return {
            **base,
            "ok": False,
            "deduped": res.deduped,
            "error": {"type": "map_failure", "detail": payload},
        }
    if res.timed_out:
        detail = (
            f"deadline of {p.budget:g}s exceeded"
            if p.budget is not None else str(res.error)
        )
        return {
            **base,
            "ok": False,
            "error": {"type": "timeout", "detail": detail},
        }
    return {
        **base,
        "ok": False,
        "error": {"type": "internal", "detail": str(res.error)},
    }


def _group_args(
    prepared: Sequence[Prepared],
    on_settle: Callable[[dict[str, Any]], None],
) -> dict[str, Any]:
    """A batch's task-group arguments, streaming through ``on_settle``."""
    return {
        "items": [p.item() for p in prepared],
        "timeouts": [p.budget for p in prepared],
        "keys": [p.key for p in prepared],
        "on_result": lambda i, res: on_settle(
            response_of(prepared[i], res)
        ),
    }


def map_batch(
    prepared: Sequence[Prepared],
    *,
    jobs: int,
    on_settle: Callable[[dict[str, Any]], None],
) -> list[PMapResult]:
    """Run validated requests over the persistent pool, blocking.

    ``on_settle`` receives each response document as its request
    settles (duplicates settle with their primary).  Per-request
    budgets stay enforced because the tasks run on pool workers'
    *main* threads, where SIGALRM works, with the parent backstop
    behind them.
    """
    pool = get_pool(max(1, min(jobs, len(prepared))))
    results = pool.run_batch(
        _map_task, jobs=jobs, **_group_args(prepared, on_settle)
    )
    fold_deltas(results)
    return results


def open_batch(
    pool: WorkerPool,
    prepared: Sequence[Prepared],
    *,
    jobs: int,
    on_settle: Callable[[dict[str, Any]], None],
    on_done: Callable[[], None],
) -> None:
    """Queue validated requests as one group on a pool whose loop runs
    on the calling thread (the daemon's pool-owner thread).

    ``on_settle`` streams each response as :func:`map_batch` does;
    ``on_done`` fires once every request has settled and the batch's
    metrics and cache stats are folded.
    """

    def done(results: list[PMapResult | None]) -> None:
        fold_deltas(results)
        on_done()

    pool.open_group(
        _map_task, jobs=jobs, on_done=done,
        **_group_args(prepared, on_settle),
    )
