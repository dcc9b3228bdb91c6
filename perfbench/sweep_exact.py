"""sweep-exact: ``run_matrix(jobs=2)`` over the exact and search mappers.

A few long, uneven cells (SAT, CSP, ILP, graph-minor, SA and RL on
small survey kernels) spread over a two-worker pool, cache off: load
balance and the solvers set the time, not per-task overhead.  Every
cell maps well inside any budget, so no timeout sets a run's length.

The correctness pass maps every cell once more over the same pool
(it doubles as the discarded warm-up) and checks each mapping; the
timed passes' rows must then agree with the checked mappings.

The traced run also compiles the big-fabric chains of
:mod:`perfbench.bigfabric`, for the per-layer metrics of the
``cluster`` placer and of the large fabrics' tables.
"""

from __future__ import annotations

import time
from typing import Any

from perfbench import bigfabric
from perfbench.calib import HostSpeed
from perfbench.common import (
    Report, add_latency, doc_problems, geomean, ii_ratio, median,
    peak_rss_mb, to_docs,
)
from perfbench.inputs import SWEEP_ARCH, SWEEP_MAPPERS, SweepPlan, sweep_plan
from perfbench.layers import (
    arch_tables_ms, dispatch_us, plain_then_traced, report_layers,
)
from perfbench.probe import HOST_SAMPLES, cold_starts

JOBS = 2
SETUP_SAMPLES = 5
#: the set-up warm-up: every mapper on one small kernel
WARMUP_KERNEL = "if_select"
#: the workload's seeded input plan
PLAN = sweep_plan


def setup():
    """Imports, the pool, one small cell per mapper."""
    from repro.arch import presets
    from repro.bench.harness import run_matrix
    from repro.parallel import warm_pool

    cgra = presets.by_name(SWEEP_ARCH)
    warm_pool(JOBS)
    run_matrix(SWEEP_MAPPERS, [WARMUP_KERNEL], cgra, jobs=JOBS, cache=False)
    return cgra


def _map_cell(cgra, cell: tuple[str, str]) -> tuple[dict, dict | None]:
    """Pool task of the correctness pass: one cell's mapping documents."""
    from repro.core.registry import create
    from repro.ir import kernels

    mname, kname = cell
    dfg = kernels.kernel(kname)
    return to_docs(create(mname).map(dfg, cgra), dfg, cgra)


def _cells(plan: SweepPlan) -> list[tuple[str, str]]:
    return [(m, k) for m in plan.mappers for k in plan.kernels]


def _check(report: Report, plan: SweepPlan, cgra,
           found: list[tuple[Any, Any]]) -> dict[tuple[str, str], tuple]:
    """Check one mapping per cell; returns ``cell -> (ii, route steps,
    II/MII)`` for the cells that passed."""
    from repro.ir import kernels

    good = {}
    for cell, (doc, host) in zip(_cells(plan), found):
        dfg = kernels.kernel(cell[1])
        mapping, bad = doc_problems(doc, dfg, cgra, plan.check_seed, host)
        if bad:
            report.problems.extend(f"{cell}: {b}" for b in bad)
            continue
        good[cell] = (
            mapping.ii, mapping.route_step_count(),
            ii_ratio(mapping, dfg, cgra),
        )
    return good


def run(seed: int, seconds: int, work: str, log: Any) -> Report:
    from repro.bench.harness import run_matrix
    from repro.parallel import pmap, shutdown

    report = Report("sweep-exact")
    plan = sweep_plan(seed, seconds)
    cgra = setup()
    cells = _cells(plan)
    with HostSpeed(log) as host:
        try:
            results = pmap(_map_cell, cells, jobs=JOBS, shared=cgra)
            for cell, res in zip(cells, results):
                if not res.ok:
                    raise RuntimeError(f"{cell} failed to map: {res.error}")
            # A cold start before each timed pass spreads the passes
            # over the run; the host is sampled after each of them
            # (a few times: one sample jitters by about 10%).
            setups, passes, walls = [], [], []
            host.sample(HOST_SAMPLES)
            for _ in range(plan.passes):
                setups += cold_starts("sweep-exact", 1, log, host)
                t0 = time.perf_counter()
                passes.append(run_matrix(
                    plan.mappers, plan.kernels, cgra, jobs=JOBS, cache=False
                ))
                walls.append(time.perf_counter() - t0)
                host.sample(HOST_SAMPLES)
            setups += cold_starts(
                "sweep-exact", SETUP_SAMPLES - len(setups), log, host
            )
        finally:
            shutdown()
        report.host = host.summary()
        # every time below at reference host speed
        factor = host.factor()
        setups = [t * factor for t in setups]
        walls = [t * factor for t in walls]
    good = _check(report, plan, cgra, [r.value for r in results])

    ok, hops = 0, 0
    for rows in passes:
        for cell, row in zip(cells, rows):
            report.attempted += 1
            checked = good.get(cell)
            if row.ok and checked and (row.ii, row.route_steps) == checked[:2]:
                ok += 1
                hops += row.route_steps
                continue
            report.failed += 1
            if checked:  # a cell that failed its check is reported above
                report.problems.append(
                    f"{cell}: timed row (ok={row.ok}, ii={row.ii},"
                    f" routes={row.route_steps}) disagrees with the checked"
                    f" mapping (ii={checked[0]}, routes={checked[1]})"
                )
    calls = len(cells) * len(passes)
    ratios = [v[2] for v in good.values()]
    report.add("setup_s", median(setups), "s",
               f"median of {len(setups)} cold starts")
    report.add("sweep_cells_per_s", len(cells) / median(walls), "1/s",
               f"{len(cells)} cells, median of {len(walls)} passes")
    report.add("serve_rps", calls / sum(walls), "1/s",
               f"{calls} cells in {sum(walls):.2f} s")
    # A sweep pass is the request a user waits for here.  Single cells
    # are not used: across runs of one seed set their times spread
    # about half as much again as a pass's wall time (NOTES.md).
    pass_ms = [1000 * w for w in walls]
    add_latency(report, "serve_p50_ms", pass_ms, 50, "timed passes")
    add_latency(report, "serve_p99_ms", pass_ms, 99, "timed passes")
    report.add("compile_s_geomean", geomean([w / len(cells) for w in walls]),
               "s", f"pass wall time per cell, geomean of {len(walls)} passes")
    report.add("ok_ratio", ok / report.attempted, "ratio",
               f"{ok} of {report.attempted} cells checked")
    report.add("ii_over_mii", geomean(ratios), "ratio",
               f"geomean over {len(ratios)} cells")
    report.add("route_hops", hops, "count")
    report.add("peak_rss_mb", peak_rss_mb(own=True, children=True), "MB",
               "largest of the sweep process and its workers")
    return report


def run_traced(seed: int, seconds: int, work: str, log: Any) -> Report:
    import repro.bench.harness as harness
    from repro.parallel import shutdown

    report = Report("sweep-exact")
    plan = sweep_plan(seed, seconds)
    tables_ms = arch_tables_ms((SWEEP_ARCH,) + bigfabric.FABRICS)
    cgra = setup()
    fabrics = bigfabric.setup()
    chains = plan.chains
    try:
        t0 = time.perf_counter()
        rows = harness.run_matrix(
            plan.mappers, plan.kernels, cgra, jobs=JOBS, cache=False
        )
        wall = time.perf_counter() - t0
    finally:
        shutdown()
    busy = sum(r.total_ms for r in rows) / 1000 / (JOBS * wall)
    extra = {
        "parallel.worker_busy_ratio": (busy, f"over {wall:.2f} s"),
        "parallel.dispatch_us": dispatch_us(JOBS, len(rows), 10),
    }

    mapped: dict[tuple[str, str], tuple] = {}

    def on_map(mapping, mapper, dfg, _cgra):
        mapped[(mapper.info.name, dfg.name)] = (mapping, dfg)

    def replay(_spans):
        rows = harness.run_matrix(
            plan.mappers, plan.kernels, cgra, jobs=1, cache=False
        )
        return rows, bigfabric.compile_pass(chains, fabrics, chains.order)

    traced = plain_then_traced(replay, on_map)
    rows, compiled = traced.result
    overhead = [r.total_ms - r.time_ms for r in rows]
    extra["bench.cell_overhead_ms"] = (
        sum(overhead) / len(overhead), f"mean of {len(overhead)} cells"
    )
    found = [
        to_docs(*mapped[cell], cgra) if cell in mapped else (None, None)
        for cell in _cells(plan)
    ]
    good = _check(report, plan, cgra, found)
    report.attempted = len(rows)
    report.failed = len(rows) - len(good)
    bigfabric.check(report, chains, fabrics, compiled)
    report_layers(report, traced, tables_ms=tables_ms, extra=extra)
    return report
