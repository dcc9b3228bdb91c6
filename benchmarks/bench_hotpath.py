"""Hot-path microbenchmark: flat arrays, pruned routing, parallel sweeps.

Measures the fast-path layers against their reference implementations
and writes ``BENCH_hotpath.json`` plus ``BENCH_solver.json``:

* **occupancy** — the flat-array :class:`repro.core.resources.Occupancy`
  vs the dict/Counter ``DictOccupancy`` reference (``tests/oracles``)
  on an identical can/add/release/copy workload (ops/second each,
  ratio);
* **router** — the distance-pruned/A* :class:`Router` vs the exhaustive
  ``ReferenceRouter`` (``tests/oracles``) on an identical batch of
  route queries (routes/second, explored-candidate counts, ratio);
* **matrix** — ``run_matrix`` wall-clock serial vs ``--jobs N``
  (speedup is bounded by the machine's core count, which is recorded);
* **solver** — the exact-method family: the incremental CDCL
  :class:`SATMapper` vs its fresh-encode DPLL reference
  (``DPLLSATMapper``, ``tests/oracles``) on kernels and a mid-size
  random DFG (wall + decisions), plus the CSP value hints
  re-solving an II with the prior assignment as the hint;
* **cache** — the content-addressed mapping cache (``BENCH_cache.json``):
  a repeated DSE sweep and a repeated compare matrix, cold (empty
  cache) vs warm (same store), with the warm results asserted
  identical to the cold *and* to a cache-disabled reference run.

Run::

    python benchmarks/bench_hotpath.py                  # full, jobs=2
    python benchmarks/bench_hotpath.py --smoke          # seconds, for CI
    python benchmarks/bench_hotpath.py --only solver    # one section
    python benchmarks/bench_hotpath.py --only cache
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.append(str(_ROOT / "tests"))  # the reference engines

from oracles import (  # noqa: E402
    DictOccupancy,
    DPLLSATMapper,
    ReferenceRouter,
)
from repro.arch import presets  # noqa: E402
from repro.bench.harness import run_matrix  # noqa: E402
from repro.core.resources import Occupancy  # noqa: E402
from repro.ir import kernels, randdfg  # noqa: E402
from repro.mappers.csp_mapper import CSPMapper  # noqa: E402
from repro.mappers.routing import RouteRequest, Router  # noqa: E402
from repro.mappers.sat_mapper import SATMapper  # noqa: E402
from repro.obs.tracer import (  # noqa: E402
    CANDIDATES_EXPLORED,
    SOLVER_DECISIONS,
    SOLVER_NODES,
    tracing,
)

#: documented fast-path goals (informational; the JSON records actuals)
TARGET_OCCUPANCY_SPEEDUP = 1.5
TARGET_ROUTER_SPEEDUP = 1.5
TARGET_MATRIX_SPEEDUP = 1.6  # needs >= 2 physical cores
TARGET_SAT_SPEEDUP = 2.0  # CDCL vs DPLL on the SAT-mapper workload
TARGET_CACHE_SPEEDUP = 5.0  # warm vs cold repeated-DSE sweep
TARGET_CACHE_SPEEDUP_SMOKE = 1.5  # tiny smoke workload, higher overhead


def _occupancy_workload(cgra, impl_cls, rounds: int) -> float:
    """Seconds for the shared synthetic occupancy workload."""
    rng = random.Random(42)
    links = sorted(cgra.links)
    ops = []
    for _ in range(400):
        ops.append(
            (
                rng.randrange(6),
                rng.randrange(cgra.n_cells),
                rng.randrange(64),
                rng.randrange(16),
                rng.choice(links),
            )
        )
    t0 = time.perf_counter()
    for _ in range(rounds):
        occ = impl_cls(cgra, 4)
        for kind, cell, t, value, link in ops:
            if kind == 0:
                if occ.can_place_op(cell, t):
                    occ.place_op(value, cell, t)
            elif kind == 1:
                if occ.can_route(value, cell, t):
                    occ.add_route(value, cell, t)
            elif kind == 2:
                if occ.can_hold(value, cell, t):
                    occ.add_hold(value, cell, t)
            elif kind == 3:
                if occ.can_use_link(value, *link, t):
                    occ.add_link(value, *link, t)
            elif kind == 4:
                occ.release_route(value, cell, t)
            else:
                occ.pressure()
        occ.copy()
    return time.perf_counter() - t0


def bench_occupancy(cgra, rounds: int) -> dict:
    flat = _occupancy_workload(cgra, Occupancy, rounds)
    ref = _occupancy_workload(cgra, DictOccupancy, rounds)
    return {
        "rounds": rounds,
        "flat_s": round(flat, 4),
        "dict_s": round(ref, 4),
        "flat_ops_per_s": round(rounds * 401 / flat, 1),
        "dict_ops_per_s": round(rounds * 401 / ref, 1),
        "speedup": round(ref / flat, 2),
    }


def _route_batch(cgra) -> tuple[Occupancy, list[RouteRequest]]:
    rng = random.Random(7)
    occ = Occupancy(cgra, 4)
    cells = rng.sample(range(cgra.n_cells), 8)
    for i, c in enumerate(cells):
        occ.place_op(100 + i, c, i % 4)
    reqs = []
    for i in range(24):
        src, dst = rng.sample(cells, 2)
        t0 = rng.randrange(4)
        reqs.append(
            RouteRequest(
                value=rng.randrange(8),
                src_cell=src,
                t_emit=t0,
                dst_cell=dst,
                t_consume=t0 + rng.randrange(2, 6),
            )
        )
    return occ, reqs


def _router_workload(cgra, router, rounds: int) -> tuple[float, int, int]:
    """(seconds, routes found, candidates explored) for the batch."""
    occ, reqs = _route_batch(cgra)
    found = 0
    with tracing() as tr:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for req in reqs:
                if router.find(occ, req) is not None:
                    found += 1
                router.find_negotiated(occ, req)
        elapsed = time.perf_counter() - t0
    explored = tr.root.total(CANDIDATES_EXPLORED) if tr.root else sum(
        s.counters.get(CANDIDATES_EXPLORED, 0) for s in tr.roots
    ) + tr.counters.get(CANDIDATES_EXPLORED, 0)
    return elapsed, found, explored


def bench_router(cgra, rounds: int) -> dict:
    fast_s, fast_found, fast_explored = _router_workload(
        cgra, Router(cgra), rounds
    )
    ref_s, ref_found, ref_explored = _router_workload(
        cgra, ReferenceRouter(cgra), rounds
    )
    assert fast_found == ref_found, "pruned router changed results"
    n = rounds * 48  # find + find_negotiated per request
    return {
        "rounds": rounds,
        "pruned_s": round(fast_s, 4),
        "reference_s": round(ref_s, 4),
        "pruned_routes_per_s": round(n / fast_s, 1),
        "reference_routes_per_s": round(n / ref_s, 1),
        "pruned_candidates_explored": fast_explored,
        "reference_candidates_explored": ref_explored,
        "speedup": round(ref_s / fast_s, 2),
    }


def _metrics_sig(registry) -> dict:
    """Counter values and histogram event counts — the deterministic
    work totals (histogram *sums* are timings and jitter)."""
    sig = {}
    for name, data in registry.snapshot().items():
        if data.get("type") == "counter":
            sig[name] = data["value"]
        elif data.get("type") == "histogram":
            sig[f"{name}.count"] = data["count"]
    return sig


def bench_matrix(cgra, jobs: int, smoke: bool) -> dict:
    from repro.obs.metrics import MetricsRegistry, metrics_scope
    from repro.parallel import get_pool, warm_pool

    if smoke:
        mappers = ["list_sched", "edge_centric"]
        kernels = ["dot_product", "fir4"]
    else:
        mappers = ["list_sched", "edge_centric", "spr", "dresc"]
        kernels = ["dot_product", "fir4", "sobel_x"]
    # Warm the per-architecture caches so both runs start equal, and
    # the persistent pool so the parallel timing measures its steady
    # state rather than first-fork spin-up (one throwaway sweep pays
    # any remaining lazy imports in the workers).
    run_matrix(mappers[:1], kernels[:1], cgra)
    warm_pool(jobs)
    run_matrix(mappers, kernels, cgra, jobs=jobs)
    serial_reg = MetricsRegistry()
    with metrics_scope(serial_reg):
        t0 = time.perf_counter()
        serial = run_matrix(mappers, kernels, cgra)
        serial_s = time.perf_counter() - t0
    parallel_reg = MetricsRegistry()
    with metrics_scope(parallel_reg):
        t0 = time.perf_counter()
        parallel = run_matrix(mappers, kernels, cgra, jobs=jobs)
        parallel_s = time.perf_counter() - t0
    same = [
        (a.mapper, a.kernel, a.ok, a.ii) for a in serial
    ] == [(b.mapper, b.kernel, b.ok, b.ii) for b in parallel]
    assert same, "parallel matrix changed results"
    assert _metrics_sig(serial_reg) == _metrics_sig(parallel_reg), (
        "parallel matrix changed work totals"
    )
    pool = get_pool(jobs)
    report = {
        "jobs": jobs,
        "cells": len(serial),
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2),
        "metrics_equal": True,
        "pool": {
            "workers": pool.size,
            "batches": pool.batches,
            "tasks_run": pool.tasks_run,
            "respawns": pool.respawns,
        },
    }
    # The >=1.6x target presumes real parallel hardware and the full
    # workload; on a 1-core box the number only measures pool overhead,
    # and smoke's cells are too short to amortise dispatch — mark the
    # target skipped in both cases instead of recording a fake verdict.
    if (os.cpu_count() or 1) < 2:
        report["target_skipped"] = (
            f"cpu_count={os.cpu_count()} < 2: speedup reflects pool"
            " overhead, not parallelism"
        )
    elif smoke:
        report["target_skipped"] = (
            "smoke workload too short for the speedup target"
        )
    else:
        report["target_met"] = report["speedup"] >= TARGET_MATRIX_SPEEDUP
    return report


def _matrix_sig(rows) -> list[tuple]:
    return [
        (r.mapper, r.kernel, r.ok, r.ii, r.schedule_length,
         r.route_steps)
        for r in rows
    ]


def bench_cache(smoke: bool) -> dict:
    """Cold-vs-warm mapping-cache runs; results asserted identical."""
    import tempfile

    from repro.cache import MappingCache
    from repro.dse.explorer import default_space, explore

    if smoke:
        space = [
            {"size": 4, "topology": t, "rf_size": 2, "mem_cells": "left"}
            for t in ("mesh", "diagonal")
        ]
        suite = ["dot_product", "fir4"]
        dse_mapper = "list_sched"
        mappers = ["list_sched", "edge_centric"]
        mat_kernels = ["dot_product", "fir4"]
    else:
        space = default_space()
        suite = ["dot_product", "fir4", "sobel_x", "if_select"]
        dse_mapper = "spr"
        mappers = ["list_sched", "edge_centric", "spr", "dresc"]
        mat_kernels = ["dot_product", "fir4", "sobel_x"]

    # Repeated DSE sweep: reference (cache off), cold fill, warm replay.
    reference = explore(space, suite, mapper=dse_mapper, cache=False)
    store = MappingCache(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    t0 = time.perf_counter()
    cold_pts = explore(space, suite, mapper=dse_mapper, cache=store)
    cold_s = time.perf_counter() - t0
    cold_stats = store.stats.as_dict()
    t0 = time.perf_counter()
    warm_pts = explore(space, suite, mapper=dse_mapper, cache=store)
    warm_s = time.perf_counter() - t0
    assert reference == cold_pts == warm_pts, "cache changed DSE results"
    assert store.stats.validation_failures == 0
    dse = {
        "points": len(space),
        "suite": suite,
        "mapper": dse_mapper,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_stats": cold_stats,
        "stats": store.stats.as_dict(),
        "speedup": round(cold_s / max(warm_s, 1e-9), 2),
    }

    # Repeated compare matrix, same shape.
    cgra = presets.simple_cgra(4, 4)
    mat_ref = run_matrix(mappers, mat_kernels, cgra, cache=False)
    store2 = MappingCache(tempfile.mkdtemp(prefix="repro-bench-cache-"))
    t0 = time.perf_counter()
    mat_cold = run_matrix(mappers, mat_kernels, cgra, cache=store2)
    mat_cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    mat_warm = run_matrix(mappers, mat_kernels, cgra, cache=store2)
    mat_warm_s = time.perf_counter() - t0
    assert _matrix_sig(mat_ref) == _matrix_sig(mat_cold) == _matrix_sig(
        mat_warm
    ), "cache changed matrix results"
    assert store2.stats.validation_failures == 0
    matrix = {
        "cells": len(mat_ref),
        "mappers": mappers,
        "kernels": mat_kernels,
        "cold_s": round(mat_cold_s, 4),
        "warm_s": round(mat_warm_s, 4),
        "stats": store2.stats.as_dict(),
        "speedup": round(mat_cold_s / max(mat_warm_s, 1e-9), 2),
    }
    return {"dse": dse, "matrix": matrix}


def _sat_run(dfg, cgra, mapper_cls, ii: int | None) -> dict:
    """One SAT mapper run: best II, wall seconds, SAT decisions."""
    with tracing() as tr:
        t0 = time.perf_counter()
        mapping = mapper_cls().map(dfg, cgra, ii=ii)
        elapsed = time.perf_counter() - t0
    decisions = sum(s.total(SOLVER_DECISIONS) for s in tr.roots)
    return {
        "ii": mapping.ii,
        "wall_s": round(elapsed, 4),
        "decisions": decisions,
    }


def _counted(fn) -> tuple[object, float, int]:
    """(result, wall seconds, solver nodes) for a traced call."""
    with tracing() as tr:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
    nodes = sum(s.total(SOLVER_NODES) for s in tr.roots) + tr.counters.get(
        SOLVER_NODES, 0
    )
    return result, elapsed, nodes


def bench_solver(smoke: bool) -> dict:
    """CDCL-vs-DPLL SAT mapping plus CSP value-hint re-solves."""
    cgra = presets.simple_cgra(3, 3)
    # SAT workloads: kernels escalate II from the lower bound; the
    # random layered DFG is pinned to its known-feasible II (the DPLL
    # escalation through the infeasible IIs below it takes minutes).
    workloads: list[tuple[str, object, int | None]] = [
        ("dot_product", kernels.kernel("dot_product"), None),
        ("fir4", kernels.kernel("fir4"), None),
    ]
    if not smoke:
        workloads += [
            ("sobel_x", kernels.kernel("sobel_x"), None),
            ("layered8_s1@ii3", randdfg.layered(8, seed=1), 3),
        ]
    # Warm the per-architecture caches so both engines start equal.
    SATMapper().map(kernels.kernel("dot_product"), cgra)

    sat_rows = []
    for name, dfg, ii in workloads:
        cdcl = _sat_run(dfg, cgra, SATMapper, ii)
        dpll = _sat_run(dfg, cgra, DPLLSATMapper, ii)
        assert cdcl["ii"] == dpll["ii"], f"engines disagree on {name}"
        sat_rows.append(
            {
                "workload": name,
                "ii": cdcl["ii"],
                "cdcl": cdcl,
                "dpll": dpll,
                "wall_speedup": round(
                    dpll["wall_s"] / max(cdcl["wall_s"], 1e-9), 2
                ),
                "decision_speedup": round(
                    dpll["decisions"] / max(cdcl["decisions"], 1), 2
                ),
            }
        )
    total_cdcl = sum(r["cdcl"]["wall_s"] for r in sat_rows)
    total_dpll = sum(r["dpll"]["wall_s"] for r in sat_rows)
    dec_cdcl = sum(r["cdcl"]["decisions"] for r in sat_rows)
    dec_dpll = sum(r["dpll"]["decisions"] for r in sat_rows)
    sat = {
        "engine_fast": "cdcl",
        "engine_reference": "dpll",
        "workloads": sat_rows,
        "wall_speedup": round(total_dpll / max(total_cdcl, 1e-9), 2),
        "decision_speedup": round(dec_dpll / max(dec_cdcl, 1), 2),
    }

    # Value-hint re-solve: solve an II cold, then the same model again
    # with the cold assignment as the hint — the shape of II escalation
    # and route-round retries, where the previous solution usually
    # survives and the hints walk straight to it.
    conv = kernels.kernel("conv3x3")
    csp_mapper = CSPMapper()
    csp_cold, csp_cold_s, csp_cold_nodes = _counted(
        lambda: csp_mapper._solve(conv, cgra, 3)
    )
    assert csp_cold is not None, "CSP cold solve failed"
    csp_warm, csp_warm_s, csp_warm_nodes = _counted(
        lambda: csp_mapper._solve(conv, cgra, 3, hint=csp_cold)
    )
    assert csp_warm is not None, "CSP warm solve failed"
    csp = {
        "workload": "conv3x3@ii3",
        "cold": {"wall_s": round(csp_cold_s, 4), "nodes": csp_cold_nodes},
        "warm": {"wall_s": round(csp_warm_s, 4), "nodes": csp_warm_nodes},
        "node_ratio": round(csp_cold_nodes / max(csp_warm_nodes, 1), 2),
    }

    return {"sat": sat, "csp_value_hints": csp}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke", action="store_true",
        help="tiny workloads: verifies the harness, not the numbers",
    )
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument(
        "--only",
        choices=["occupancy", "router", "matrix", "solver", "cache"],
        action="append",
        help="run only the named section(s); default: all",
    )
    ap.add_argument(
        "--out", default=str(Path(__file__).parent / "BENCH_hotpath.json")
    )
    ap.add_argument(
        "--out-solver",
        default=str(Path(__file__).parent / "BENCH_solver.json"),
    )
    ap.add_argument(
        "--out-cache",
        default=str(Path(__file__).parent / "BENCH_cache.json"),
    )
    args = ap.parse_args(argv)
    sections = args.only or [
        "occupancy", "router", "matrix", "solver", "cache"
    ]

    cgra = presets.simple_cgra(4, 4)
    occ_rounds = 20 if args.smoke else 300
    route_rounds = 5 if args.smoke else 60

    ok = True
    summary = []

    hotpath_sections = [
        s for s in sections if s in ("occupancy", "router", "matrix")
    ]
    if hotpath_sections:
        report = {
            "benchmark": "hotpath",
            "smoke": args.smoke,
            "machine": {"cpu_count": os.cpu_count()},
            "targets": {
                "occupancy_speedup": TARGET_OCCUPANCY_SPEEDUP,
                "router_speedup": TARGET_ROUTER_SPEEDUP,
                "matrix_speedup_at_2_cores": TARGET_MATRIX_SPEEDUP,
            },
        }
        if "occupancy" in sections:
            report["occupancy"] = bench_occupancy(cgra, occ_rounds)
            ok &= report["occupancy"]["speedup"] >= 1.0
            summary.append(f"occupancy x{report['occupancy']['speedup']}")
        if "router" in sections:
            report["router"] = bench_router(cgra, route_rounds)
            ok &= report["router"]["speedup"] >= 1.0
            summary.append(f"router x{report['router']['speedup']}")
        if "matrix" in sections:
            report["matrix"] = bench_matrix(cgra, args.jobs, args.smoke)
            if "target_met" in report["matrix"]:
                ok &= report["matrix"]["target_met"]
            summary.append(
                f"matrix x{report['matrix']['speedup']}"
                f" (jobs={args.jobs}, {os.cpu_count()} core(s))"
            )
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))

    if "solver" in sections:
        solver = {
            "benchmark": "solver",
            "smoke": args.smoke,
            "machine": {"cpu_count": os.cpu_count()},
            "targets": {"sat_speedup": TARGET_SAT_SPEEDUP},
            **bench_solver(args.smoke),
        }
        Path(args.out_solver).write_text(
            json.dumps(solver, indent=2) + "\n"
        )
        print(json.dumps(solver, indent=2))
        # Decisions are deterministic, so the threshold holds even on a
        # noisy CI box; smoke's tiny workloads still clear 2x.
        ok &= solver["sat"]["decision_speedup"] >= TARGET_SAT_SPEEDUP
        summary.append(
            f"sat x{solver['sat']['wall_speedup']} wall"
            f" / x{solver['sat']['decision_speedup']} decisions"
        )

    if "cache" in sections:
        target = (
            TARGET_CACHE_SPEEDUP_SMOKE if args.smoke
            else TARGET_CACHE_SPEEDUP
        )
        cache_report = {
            "benchmark": "cache",
            "smoke": args.smoke,
            "machine": {"cpu_count": os.cpu_count()},
            "targets": {"warm_dse_speedup": target},
            **bench_cache(args.smoke),
        }
        Path(args.out_cache).write_text(
            json.dumps(cache_report, indent=2) + "\n"
        )
        print(json.dumps(cache_report, indent=2))
        ok &= cache_report["dse"]["speedup"] >= target
        summary.append(
            f"cache x{cache_report['dse']['speedup']} dse"
            f" / x{cache_report['matrix']['speedup']} matrix"
        )

    print("\n" + "  ".join(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
