"""Sweep runner and table renderer for the benchmarks.

``run_matrix`` runs its cells through :func:`repro.parallel.pmap` —
in-process by default, over the worker pool with ``jobs=N`` — with
deterministic row order, per-cell ``timeout`` overruns surfacing as
failure rows, and traces pickled back from the workers.  ``cache``
opts a sweep into the content-addressed mapping cache
(:mod:`repro.cache`): repeated cells hit instead of re-mapping,
workers share the disk tier, and identical cells *within* one
parallel batch dedupe onto a single execution (keyed by the cache's
content address).
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from os import PathLike
from typing import Any, Sequence

from repro.arch.cgra import CGRA
from repro.cache import MappingCache, cache_scope
from repro.core.exceptions import MapFailure
from repro.core.metrics import metrics_of
from repro.core.registry import create
from repro.ir import kernels as kernel_lib
from repro.obs.metrics import MATRIX_CELLS_TOTAL, get_metrics
from repro.obs.tracer import Span, Tracer, tracing
from repro.parallel import TaskTimeout, in_process, pmap

__all__ = ["MatrixResult", "ascii_table", "run_matrix"]

_log = logging.getLogger("repro.bench.harness")

#: width budget of the ``error`` column in :meth:`MatrixResult.row`
ERROR_COLUMN_WIDTH = 48


def _truncate(text: str, width: int = ERROR_COLUMN_WIDTH) -> str:
    text = " ".join(text.split())  # collapse newlines/runs for the table
    if len(text) <= width:
        return text
    return text[: width - 1] + "…"


@dataclass
class MatrixResult:
    """Outcome of one (mapper, kernel) cell.

    ``time_ms`` is the mapper's own wall-clock (``Mapping.map_time``);
    ``total_ms`` additionally includes kernel construction, metric
    extraction, and — on failure — the whole failed attempt.
    """

    mapper: str
    kernel: str
    ok: bool
    ii: int | None = None
    schedule_length: int = 0
    utilization: float = 0.0
    route_steps: int = 0
    time_ms: float = 0.0
    total_ms: float = 0.0
    error: str = ""
    trace: Span | None = field(default=None, repr=False, compare=False)

    def row(self) -> dict[str, Any]:
        return {
            "mapper": self.mapper,
            "kernel": self.kernel,
            "ok": "yes" if self.ok else "FAIL",
            "II": self.ii if self.ii is not None else "-",
            "len": self.schedule_length or "-",
            "util%": round(100 * self.utilization, 1) if self.ok else "-",
            "routes": self.route_steps if self.ok else "-",
            "time_ms": round(self.time_ms, 1),
            "error": _truncate(self.error),
        }


def _run_cell(
    mname: str,
    kname: str,
    cgra: CGRA,
    ii: int | None,
    opts: dict,
    trace: bool,
) -> MatrixResult:
    """One (mapper, kernel) cell.

    A task timeout (the ``pmap`` budget) that lands inside the mapping
    run becomes a failure row here, with the partial trace attached.
    """
    get_metrics().counter(MATRIX_CELLS_TOTAL).inc()
    dfg = kernel_lib.kernel(kname)
    mapper = create(mname, **opts)
    tracer = Tracer() if trace else None
    ctx = tracing(tracer) if trace else nullcontext()
    t0 = time.perf_counter()
    try:
        with ctx:
            mapping = mapper.map(dfg, cgra, ii=ii)
        total_ms = 1000 * (time.perf_counter() - t0)
        met = metrics_of(mapping)
        return MatrixResult(
            mapper=mname,
            kernel=kname,
            ok=met.valid,
            ii=mapping.ii,
            schedule_length=met.schedule_length,
            utilization=met.utilization,
            route_steps=met.route_steps,
            time_ms=1000 * mapping.map_time,
            total_ms=total_ms,
            trace=mapping.trace,
        )
    except (MapFailure, TaskTimeout) as ex:
        total_ms = 1000 * (time.perf_counter() - t0)
        _log.warning(
            "run_matrix: %s on %s failed: %s", mname, kname, ex
        )
        return MatrixResult(
            mapper=mname,
            kernel=kname,
            ok=False,
            time_ms=total_ms,
            total_ms=total_ms,
            error=str(ex),
            trace=tracer.root if tracer is not None else None,
        )


def _cell_task(cgra: CGRA, task: tuple) -> MatrixResult:
    """pmap payload: unpack one cell (module-level for pickling).

    The architecture rides in as the batch-``shared`` value — shipped
    to each worker once per batch instead of once per cell.
    """
    mname, kname, ii, opts, trace = task
    return _run_cell(mname, kname, cgra, ii, opts, trace)


def _cell_keys(
    cells: Sequence[tuple], cgra: CGRA, active: MappingCache | None,
    jobs: int,
) -> list[str | None] | None:
    """Content-addressed dedup keys for a sweep's cells.

    Only computed when the mapping cache is on — the cache key *is*
    the content address (canonical DFG + arch digests, mapper name,
    seed, requested II, config token), so two cells with equal keys
    would produce byte-identical mappings and in-batch dedup is safe.
    With caching off every cell runs, keeping parallel work (and so
    metrics totals) exactly equal to the ``jobs=1`` sweep's.  A cell whose
    key cannot be computed (unknown kernel, bad opts) gets None and
    runs normally — its error surfaces from the worker like any other.
    Skipped when the cells will run in-process, where ``pmap`` never
    reads keys.
    """
    if active is None or in_process(jobs, len(cells)):
        return None
    keys: list[str | None] = []
    for mname, kname, ii, opts, _trace in cells:
        try:
            keys.append(
                active.key(
                    kernel_lib.kernel(kname), cgra, create(mname, **opts), ii
                )
            )
        except Exception:
            keys.append(None)
    return keys


def run_matrix(
    mappers: Sequence[str],
    kernels: Sequence[str],
    cgra: CGRA,
    *,
    ii: int | None = None,
    mapper_opts: dict[str, dict] | None = None,
    trace: bool = False,
    jobs: int = 1,
    timeout: float | None = None,
    cache: bool | str | PathLike | MappingCache | None = None,
) -> list[MatrixResult]:
    """Run every mapper on every kernel; failures become rows, not errors.

    With ``trace=True`` each cell runs under its own tracer and the
    resulting root span is attached to :attr:`MatrixResult.trace`.
    ``jobs > 1`` distributes cells over a process pool (same rows, same
    order, same cache hit/miss totals; only the timing fields differ
    from a ``jobs=1`` run).
    ``timeout`` bounds each cell's wall-clock in seconds; an overrun
    becomes a failure row with a timeout error, never a hung sweep.
    ``cache`` follows :func:`repro.cache.cache_scope` semantics:
    ``None`` inherits the ambient state (default), ``False`` forces
    caching off, ``True`` enables the in-process tier, a path adds a
    disk tier the worker processes share.
    """
    opts = mapper_opts or {}
    cells = [
        (mname, kname, ii, opts.get(mname, {}), trace)
        for mname in mappers
        for kname in kernels
    ]
    out: list[MatrixResult] = []
    with cache_scope(cache) as active:
        results = pmap(
            _cell_task, cells, jobs=jobs, timeout=timeout,
            shared=cgra, keys=_cell_keys(cells, cgra, active, jobs),
        )
    for res, (mname, kname, *_rest) in zip(results, cells):
        if res.ok:
            out.append(res.value)
            continue
        if not res.timed_out:
            # Only MapFailure and timeouts become rows; anything else
            # propagates.
            raise res.error
        _log.warning(
            "run_matrix: %s on %s failed: %s", mname, kname, res.error
        )
        out.append(
            MatrixResult(
                mapper=mname,
                kernel=kname,
                ok=False,
                time_ms=1000 * res.elapsed,
                total_ms=1000 * res.elapsed,
                error=str(res.error),
            )
        )
    return out


def ascii_table(
    rows: Sequence[dict[str, Any]], *, title: str = ""
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return title
    cols = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows))
        for c in cols
    }

    def fmt(vals):
        return " | ".join(
            str(v).ljust(widths[c]) for c, v in zip(cols, vals)
        ).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(cols))
    lines.append("-+-".join("-" * widths[c] for c in cols))
    lines.extend(fmt([r.get(c, "") for c in cols]) for r in rows)
    return "\n".join(lines)
