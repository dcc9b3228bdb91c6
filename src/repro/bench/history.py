"""The perf-regression ledger: record benchmark runs, diff them later.

A *ledger entry* is one JSON line: the run's provenance manifest
(:func:`repro.obs.manifest.run_manifest` — git sha, seed, python,
wall-clock anchor, architecture fingerprint), the median-of-k timing
of a small fixed slice of (mapper, kernel) cells, and the metrics
snapshot the slice produced (:mod:`repro.obs.metrics`).  ``repro bench
record`` appends one entry per architecture file under
``benchmarks/history/``; ``repro bench compare BASELINE`` re-runs the
slice and diffs it against a recorded entry.

Comparison is **noise-aware**: timings are medians of ``repeats``
runs and judged against a per-class relative tolerance plus an
absolute floor (sub-millisecond cells jitter by large factors), while
deterministic work counts (counters, histogram event counts, cell II)
get a tight tolerance — an II regression or a 2x blowup in explored
candidates is a real regression even when the wall-clock got lucky.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.arch.cgra import CGRA
from repro.bench.harness import MatrixResult, _run_cell, ascii_table
from repro.cache import mapping_cache
from repro.obs.manifest import run_manifest
from repro.obs.metrics import POOL_STEALS_TOTAL, MetricsRegistry, metrics_scope
from repro.parallel import pmap, warm_pool

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "DEFAULT_REPEATS",
    "DEFAULT_SLICE",
    "EXACT_SLICE",
    "PLACE_SLICE",
    "ROUTE_SLICE",
    "SERVE_BATCH",
    "Comparison",
    "append_entry",
    "compare_entries",
    "load_entries",
    "render_comparison",
    "render_entries",
    "run_cache_slice",
    "run_serve_slice",
    "run_slice",
    "select_baseline",
]

#: Ledger entry schema version (bump on incompatible shape changes).
ENTRY_SCHEMA = 1

DEFAULT_HISTORY_DIR = os.path.join("benchmarks", "history")

#: The fixed slice: cheap, deterministic cells covering a constructive
#: heuristic, a routing-aware method, and an annealer — enough signal
#: to catch a hot-path regression without a minutes-long sweep.
DEFAULT_SLICE = (
    ("list_sched", "dot_product"),
    ("edge_centric", "sobel_x"),
    ("dresc", "dot_product"),
)

#: The exact-solver slice (``repro bench record --slice exact``): the
#: CDCL SAT mapper on three kernels, the CSP mapper and HiGHS's ILP on
#: one each — the survey's exact family, whose compile time the
#: heuristic cells above do not exercise.
EXACT_SLICE = (
    ("sat", "dot_product"),
    ("sat", "fir4"),
    ("sat", "sobel_x"),
    ("csp", "conv3x3"),
    ("ilp", "fir4"),
)

#: The large-fabric placement slice (``repro bench record --slice
#: place --arch simple16x16``): the clustered two-phase placer on a
#: 200-op dataflow chain — the scale the flat annealer cannot reach —
#: plus the flat annealer on the same instance as the contrast cell
#: (recorded failing; a baseline where it *starts* succeeding is also
#: a change worth noticing).  Guards the partition -> analytical seed
#: -> batched-refine pipeline's wall-clock, which no 4x4 cell
#: exercises.
PLACE_SLICE = (
    ("cluster", "layered:200:1:1"),
    ("cluster", "layered:120:1:7"),
    ("sa_spatial", "layered:200:1:1"),
)

#: The negotiated-routing slice (``repro bench record --slice route
#: --arch simple16x16|simple32x32``): clustered placement of long
#: dataflow chains, whose route-repair loop leans on the flat
#: PathFinder negotiation (:mod:`repro.mappers.routecore`) — the
#: wall-clock these cells guard is dominated by spatial routing, not
#: placement.  All three cells succeed on both fabrics, so ``.ok``
#: flips are real regressions.
ROUTE_SLICE = (
    ("cluster", "layered:150:1:1"),
    ("cluster", "layered:120:1:5"),
    ("cluster", "layered:200:1:1"),
)

#: The serving-slice batch (``repro bench record --slice serve``): a
#: mixed warm batch through the in-process daemon — three distinct
#: problems, two byte-identical duplicates (exercising in-batch
#: dedup), and one same-kernel/different-mapper request that must NOT
#: collapse.  ``run_serve_slice`` appends the target ``arch`` to each.
SERVE_BATCH = (
    {"kernel": "dot_product"},
    {"kernel": "fir4"},
    {"kernel": "sobel_x"},
    {"kernel": "dot_product"},
    {"kernel": "fir4"},
    {"kernel": "dot_product", "mapper": "edge_centric"},
)

DEFAULT_REPEATS = 3

#: (relative tolerance, absolute floor) per metric class.  Timings are
#: noisy — medians still wobble under machine load — so the bar is
#: high; event counts are deterministic, so it is tight.
TOLERANCES = {
    "time": (0.75, 10.0),
    "count": (0.02, 0.0),
}


#: Counters of scheduling events — which worker ran a task, not how
#: much work there was.  They vary from run to run with host load, so
#: a compare reports them (class ``event``) but never flags them.
SCHEDULING_EVENTS = frozenset({POOL_STEALS_TOTAL})


def _metric_class(name: str) -> str:
    if name in SCHEDULING_EVENTS:
        return "event"
    return "time" if name.endswith("_ms") or name.endswith("_sum") else "count"


# ---------------------------------------------------------------------------
def _row(
    mapper: str, kernel: str, times: Iterable[float], ok: bool,
    ii: int | None,
) -> dict[str, Any]:
    """One ledger cell: the median and minimum of its repeat times."""
    times = sorted(times)
    return {
        "mapper": mapper,
        "kernel": kernel,
        "ok": ok,
        "ii": ii,
        "time_ms": round(statistics.median(times), 3),
        "time_ms_min": round(times[0], 3),
    }


def _entry(
    cgra: CGRA, label: str | None, repeats: int, jobs: int,
    rows: list[dict[str, Any]], registry: MetricsRegistry,
) -> dict[str, Any]:
    return {
        "schema": ENTRY_SCHEMA,
        "manifest": run_manifest(cgra=cgra, label=label),
        "repeats": repeats,
        "jobs": jobs,
        "cells": rows,
        "metrics": registry.snapshot(),
    }


def _slice_cell(cgra: CGRA, cell: tuple[str, str]) -> MatrixResult:
    """pmap payload for the slice (module-level for pickling)."""
    mname, kname = cell
    return _run_cell(mname, kname, cgra, None, {}, False)


def run_slice(
    cgra: CGRA,
    *,
    cells: Sequence[tuple[str, str]] = DEFAULT_SLICE,
    repeats: int = DEFAULT_REPEATS,
    label: str | None = None,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run the slice and build one (not yet appended) ledger entry.

    Each cell runs ``repeats`` times; the entry records the median
    mapper wall-clock per cell, the median wall-clock of one whole
    pass over the cells (``wall_ms``: dispatch and result transfer
    included, so a ``jobs=2`` entry's ``wall_ms`` over a ``jobs=1``
    entry's is the pool's speedup on these cells), and the metrics
    snapshot of the whole slice (every repeat counted — comparisons
    normalise by ``repeats``).

    ``jobs > 1`` runs each repeat's cells over the persistent worker
    pool (warmed *before* the timed region, so the entry measures the
    steady state this ledger slice exists to guard).  Work counts stay
    identical to the ``jobs=1`` slice; only the timings reflect the pool.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs > 1:
        warm_pool(jobs)
    registry = MetricsRegistry()
    cells = list(cells)
    per_cell: list[list[MatrixResult]] = [[] for _ in cells]
    walls: list[float] = []
    with metrics_scope(registry):
        for _ in range(repeats):
            t0 = time.perf_counter()
            results = pmap(_slice_cell, cells, jobs=jobs, shared=cgra)
            walls.append(1000.0 * (time.perf_counter() - t0))
            for ci, res in enumerate(results):
                if not res.ok:
                    raise res.error
                per_cell[ci].append(res.value)
    rows = [
        _row(mname, kname, (r.time_ms for r in runs),
             all(r.ok for r in runs), runs[0].ii)
        for (mname, kname), runs in zip(cells, per_cell)
    ]
    entry = _entry(cgra, label, repeats, jobs, rows, registry)
    entry["wall_ms"] = round(statistics.median(walls), 3)
    return entry


def _outcome(res: MatrixResult) -> tuple:
    """A cell's result without its timings."""
    return (res.ok, res.ii, res.schedule_length, res.utilization,
            res.route_steps, res.error)


def run_cache_slice(
    cgra: CGRA,
    *,
    repeats: int = DEFAULT_REPEATS,
    label: str | None = None,
) -> dict[str, Any]:
    """Run the cache slice and build one (not yet appended) entry.

    Each repeat installs one fresh in-memory mapping cache and runs
    the :data:`DEFAULT_SLICE` cells cold (every lookup misses and
    stores), then warm (every lookup must hit).  The entry records a
    ``cold`` and a ``warm`` row per cell, named ``cold``/``warm`` x
    ``mapper/kernel``.

    Raises RuntimeError when a warm cell misses or its result differs
    from the cold cell's — a cache that stops serving, or serves a
    different mapping, fails the slice outright rather than showing up
    only as a slower timing.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    registry = MetricsRegistry()
    cells = DEFAULT_SLICE
    runs: dict[str, list[list[MatrixResult]]] = {
        "cold": [[] for _ in cells], "warm": [[] for _ in cells],
    }
    with metrics_scope(registry):
        for _ in range(repeats):
            with mapping_cache() as cache:
                cold = [_slice_cell(cgra, cell) for cell in cells]
                for ci, cell in enumerate(cells):
                    hits = cache.stats.hits
                    warm = _slice_cell(cgra, cell)
                    name = "/".join(cell)
                    if cache.stats.hits == hits:
                        raise RuntimeError(f"cache slice: warm {name} missed")
                    if _outcome(warm) != _outcome(cold[ci]):
                        raise RuntimeError(
                            f"cache slice: warm {name} differs from cold"
                        )
                    runs["cold"][ci].append(cold[ci])
                    runs["warm"][ci].append(warm)
    rows = [
        _row(phase, "/".join(cell), (r.time_ms for r in rs),
             all(r.ok for r in rs), rs[0].ii)
        for phase, per_cell in runs.items()
        for cell, rs in zip(cells, per_cell)
    ]
    return _entry(cgra, label, repeats, 1, rows, registry)


# ---------------------------------------------------------------------------
def run_serve_slice(
    arch: str,
    *,
    repeats: int = DEFAULT_REPEATS,
    label: str | None = None,
    jobs: int = 2,
) -> dict[str, Any]:
    """Run the serving slice and build one (not yet appended) entry.

    Boots an in-process :class:`~repro.serve.daemon.MappingServer`,
    submits :data:`SERVE_BATCH` through the real client ``repeats``
    times, and records three cells the generic comparator understands:

    * ``serve/batchN`` — client wall-clock for the warm mixed batch
      (validation + dedup + pool dispatch + streaming, end to end);
    * ``serve/single`` — a one-request batch, the per-batch overhead
      floor (its ``ii`` is recorded, so an II regression in the served
      mapping is caught like any other cell's);
    * ``direct/batchN`` — the same requests mapped serially in
      process, no daemon and no dedup: the contrast cell that says
      what serving costs (or saves) over calling the library.

    A throwaway warm-up server takes the pool-fork and first-import
    costs before anything is timed; the entry's metrics snapshot then
    covers exactly the timed repeats, so the SERVE_* and pool counters
    diff deterministically under ``compare_entries``.
    """
    import asyncio

    from repro.api import map_dfg
    from repro.arch import presets
    from repro.ir import kernels
    from repro.serve.client import submit
    from repro.serve.daemon import MappingServer

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cgra = presets.by_name(arch)
    batch = [dict(req, arch=arch) for req in SERVE_BATCH]
    single = [{"kernel": "dot_product", "arch": arch}]
    batch_cell = f"batch{len(batch)}"
    registry = MetricsRegistry()

    async def drive() -> dict[str, Any]:
        loop = asyncio.get_running_loop()

        def timed_submit(port: int, reqs: list) -> tuple:
            t0 = time.perf_counter()
            responses, summary = submit(reqs, port=port)
            return 1000.0 * (time.perf_counter() - t0), responses, summary

        async with MappingServer(jobs=jobs) as warm:
            await loop.run_in_executor(
                None, timed_submit, warm.bound_port, batch
            )
        times: dict[str, list[float]] = {batch_cell: [], "single": []}
        ok = {batch_cell: True, "single": True}
        single_ii: int | None = None
        async with MappingServer(jobs=jobs, registry=registry) as server:
            port = server.bound_port
            for _ in range(repeats):
                for cell, reqs in ((batch_cell, batch), ("single", single)):
                    ms, responses, summary = await loop.run_in_executor(
                        None, timed_submit, port, reqs
                    )
                    times[cell].append(ms)
                    if summary["errors"]:
                        ok[cell] = False
                    if cell == "single" and responses[0].get("ok"):
                        single_ii = responses[0]["ii"]
        return {"times": times, "ok": ok, "single_ii": single_ii}

    served = asyncio.run(drive())

    direct_times: list[float] = []
    direct_ok = True
    with metrics_scope(registry):
        for _ in range(repeats):
            t0 = time.perf_counter()
            for req in batch:
                try:
                    map_dfg(
                        kernels.kernel(req["kernel"]), cgra,
                        mapper=req.get("mapper", "list_sched"),
                    )
                except Exception:
                    direct_ok = False
            direct_times.append(1000.0 * (time.perf_counter() - t0))

    rows = [
        _row("serve", batch_cell, served["times"][batch_cell],
             served["ok"][batch_cell], None),
        _row("serve", "single", served["times"]["single"],
             served["ok"]["single"], served["single_ii"]),
        _row("direct", batch_cell, direct_times, direct_ok, None),
    ]
    return _entry(cgra, label, repeats, jobs, rows, registry)


# ---------------------------------------------------------------------------
def append_entry(entry: dict[str, Any], path: str) -> None:
    """Append one entry to the JSONL ledger at ``path`` (dirs created)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_entries(path: str) -> list[dict[str, Any]]:
    """All ledger entries at ``path`` (oldest first; [] when absent).

    A line that is not valid JSON — a truncated append, a botched
    hand-edit — raises a ValueError naming the file and line so the
    CLI can report it instead of tracebacking.
    """
    if not os.path.exists(path):
        return []
    entries = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as ex:
                raise ValueError(
                    f"corrupt ledger entry at {path}:{lineno} ({ex.msg})"
                    " — fix or remove that line and re-record"
                ) from None
    return entries


def select_baseline(
    entries: Sequence[dict[str, Any]], spec: str = "last"
) -> dict[str, Any]:
    """Pick a baseline entry: ``"last"``, an integer index (negative
    counts from the end), or a git-sha prefix (newest match wins)."""
    if not entries:
        raise ValueError("ledger is empty — run `repro bench record` first")
    if spec == "last":
        return entries[-1]
    try:
        return entries[int(spec)]
    except (ValueError, IndexError) as ex:
        if isinstance(ex, IndexError):
            raise ValueError(
                f"ledger has {len(entries)} entries, no index {spec}"
            ) from None
    for entry in reversed(entries):
        sha = (entry.get("manifest") or {}).get("git_sha") or ""
        if sha.startswith(spec):
            return entry
    raise ValueError(f"no ledger entry with git sha prefix {spec!r}")


# ---------------------------------------------------------------------------
@dataclass
class Comparison:
    """One compared quantity; ``regressed`` drives the exit code."""

    metric: str
    cls: str  #: tolerance class, "time" or "count"; "event" never gates
    base: float
    new: float
    regressed: bool

    @property
    def delta_pct(self) -> float:
        if self.base == 0:
            return 0.0 if self.new == 0 else float("inf")
        return 100.0 * (self.new - self.base) / self.base

    def row(self) -> dict[str, Any]:
        pct = self.delta_pct
        return {
            "metric": self.metric,
            "class": self.cls,
            "base": round(self.base, 3),
            "new": round(self.new, 3),
            "delta": "inf" if pct == float("inf") else f"{pct:+.1f}%",
            "verdict": "REGRESSED" if self.regressed else "ok",
        }


def _exceeds(new: float, base: float, tol: tuple[float, float]) -> bool:
    rtol, atol = tol
    return new > base * (1.0 + rtol) + atol


def _flat_metrics(
    metrics: dict[str, Any], repeats: int
) -> dict[str, tuple[str, float]]:
    """Snapshot -> {flat name: (class, per-repeat value)} for diffing.

    Counters and histogram event counts are deterministic per repeat;
    histogram sums of ``*_ms`` metrics are timings.  Gauges are
    point-in-time readings, not work, and are skipped.
    """
    flat: dict[str, tuple[str, float]] = {}
    scale = 1.0 / max(1, repeats)
    for name, data in (metrics or {}).items():
        kind = data.get("type")
        if kind == "counter":
            flat[name] = (_metric_class(name), data["value"] * scale)
        elif kind == "histogram":
            flat[f"{name}.count"] = ("count", data["count"] * scale)
            flat[f"{name}.sum"] = (
                _metric_class(f"{name}_sum" if not name.endswith("_ms") else name),
                data["sum"] * scale,
            )
    return flat


def compare_entries(
    base: dict[str, Any],
    new: dict[str, Any],
    *,
    tolerances: dict[str, tuple[float, float]] | None = None,
) -> list[Comparison]:
    """Diff two ledger entries; returns one :class:`Comparison` per
    quantity, regressions flagged per the class tolerances.

    Compared: per-cell median time (time class), per-cell II and
    success (exact — a lost mapping or a worse II always regresses),
    the slice's ``wall_ms`` when both entries carry it (time class),
    and the per-repeat metric totals (count class, except ``*_ms``
    histogram sums, and the :data:`SCHEDULING_EVENTS`, which are
    reported but never regress).  Cells or metrics present on only one side are
    reported with the other side as 0.
    """
    tol = dict(TOLERANCES)
    tol.update(tolerances or {})
    out: list[Comparison] = []

    base_cells = {
        (c["mapper"], c["kernel"]): c for c in base.get("cells", [])
    }
    new_cells = {
        (c["mapper"], c["kernel"]): c for c in new.get("cells", [])
    }
    for key in sorted(base_cells.keys() | new_cells.keys()):
        b, n = base_cells.get(key), new_cells.get(key)
        cell = f"{key[0]}/{key[1]}"
        if b is None or n is None:
            out.append(
                Comparison(
                    f"{cell}.present", "count",
                    float(b is not None), float(n is not None),
                    regressed=n is None,
                )
            )
            continue
        out.append(
            Comparison(
                f"{cell}.ok", "count",
                float(b["ok"]), float(n["ok"]),
                regressed=bool(b["ok"]) and not n["ok"],
            )
        )
        if b.get("ii") is not None or n.get("ii") is not None:
            bii = float(b.get("ii") or 0)
            nii = float(n.get("ii") or 0)
            out.append(
                Comparison(
                    f"{cell}.ii", "count", bii, nii,
                    regressed=nii > bii,
                )
            )
        out.append(
            Comparison(
                f"{cell}.time_ms", "time",
                b["time_ms"], n["time_ms"],
                regressed=_exceeds(n["time_ms"], b["time_ms"], tol["time"]),
            )
        )

    if "wall_ms" in base and "wall_ms" in new:
        out.append(
            Comparison(
                "slice.wall_ms", "time", base["wall_ms"], new["wall_ms"],
                regressed=_exceeds(
                    new["wall_ms"], base["wall_ms"], tol["time"]
                ),
            )
        )

    base_flat = _flat_metrics(base.get("metrics"), base.get("repeats", 1))
    new_flat = _flat_metrics(new.get("metrics"), new.get("repeats", 1))
    for name in sorted(base_flat.keys() | new_flat.keys()):
        cls, bval = base_flat.get(name, (None, 0.0))
        ncls, nval = new_flat.get(name, (None, 0.0))
        cls = cls or ncls or "count"
        out.append(
            Comparison(
                name, cls, bval, nval,
                regressed=cls != "event"
                and _exceeds(nval, bval, tol[cls]),
            )
        )
    return out


def render_comparison(
    comparisons: Iterable[Comparison], *, all_rows: bool = False
) -> str:
    """ASCII report; by default only regressions plus a one-line tally."""
    comparisons = list(comparisons)
    regressed = [c for c in comparisons if c.regressed]
    shown = comparisons if all_rows else regressed
    parts = []
    if shown:
        parts.append(
            ascii_table([c.row() for c in shown], title="bench compare")
        )
    parts.append(
        f"{len(regressed)} regression(s) across"
        f" {len(comparisons)} compared quantities"
    )
    return "\n".join(parts)


def render_entries(entries: Sequence[dict[str, Any]]) -> str:
    """One ledger line per entry: index, sha, time, slice summary."""
    rows = []
    for i, entry in enumerate(entries):
        manifest = entry.get("manifest") or {}
        cells = entry.get("cells", [])
        total = sum(c.get("time_ms", 0.0) for c in cells)
        rows.append(
            {
                "idx": i,
                "git_sha": (manifest.get("git_sha") or "?")[:12],
                "unix_time": int(manifest.get("unix_time") or 0),
                "label": manifest.get("label") or "",
                "cells": len(cells),
                "ok": sum(1 for c in cells if c.get("ok")),
                "total_ms": round(total, 1),
                "wall_ms": entry.get("wall_ms", "-"),
            }
        )
    return ascii_table(rows, title="bench history")
