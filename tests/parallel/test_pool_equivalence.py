"""``jobs=N`` over the persistent pool == ``jobs=1``, exactly.

Byte-identical mapping rows, exact metrics-fold equivalence (counter
values and histogram event counts; histogram sums are wall-clock and
excluded), and in-batch dedup that provably does the work once while
returning the same rows.
"""

from __future__ import annotations

import pytest

from repro.arch import presets
from repro.bench.harness import run_matrix
from repro.cache import MappingCache
from repro.dse.explorer import explore
from repro.obs.metrics import (
    POOL_DEDUP_TOTAL,
    MetricsRegistry,
    metrics_scope,
)
from repro.parallel import warm_pool

MAPPERS = ["list_sched", "edge_centric", "dresc"]
KERNELS = ["dot_product", "fir4", "sobel_x"]


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


def _row_sig(r):
    # everything but the wall-clock fields
    return (
        r.mapper, r.kernel, r.ok, r.ii, r.schedule_length,
        round(r.utilization, 12), r.route_steps, r.error,
    )


def _work_sig(registry):
    """Deterministic work totals: counters + histogram event counts."""
    sig = {}
    for name, data in registry.snapshot().items():
        if data["type"] == "counter":
            sig[name] = data["value"]
        elif data["type"] == "histogram":
            sig[f"{name}.count"] = data["count"]
    return sig


def test_run_matrix_jobs2_equals_jobs1_rows_and_metrics(cgra):
    warm_pool(2)
    serial_reg = MetricsRegistry()
    with metrics_scope(serial_reg):
        serial = run_matrix(MAPPERS, KERNELS, cgra)
    parallel_reg = MetricsRegistry()
    with metrics_scope(parallel_reg):
        parallel = run_matrix(MAPPERS, KERNELS, cgra, jobs=2)
    assert [_row_sig(r) for r in serial] == [_row_sig(r) for r in parallel]
    assert _work_sig(serial_reg) == _work_sig(parallel_reg)


def test_explore_jobs2_equals_jobs1_with_metrics():
    space = [
        {"size": 4, "topology": t, "rf_size": rf, "mem_cells": "left"}
        for t in ("mesh", "one_hop")
        for rf in (2, 8)
    ]
    suite = ["dot_product", "fir4"]
    warm_pool(2)
    serial_reg = MetricsRegistry()
    with metrics_scope(serial_reg):
        serial = explore(space, suite)
    parallel_reg = MetricsRegistry()
    with metrics_scope(parallel_reg):
        parallel = explore(space, suite, jobs=2)
    assert serial == parallel
    assert _work_sig(serial_reg) == _work_sig(parallel_reg)


def test_run_matrix_dedups_identical_cells_under_cache(cgra, tmp_path):
    warm_pool(2)
    store = MappingCache(tmp_path / "cache")
    registry = MetricsRegistry()
    with metrics_scope(registry):
        rows = run_matrix(
            ["list_sched"], ["dot_product", "dot_product"], cgra,
            jobs=2, cache=store,
        )
    assert len(rows) == 2
    assert _row_sig(rows[0]) == _row_sig(rows[1])
    # one execution for the pair: the duplicate was an in-batch dedup
    # (one cache miss+store); the deduped copy books a synthetic hit,
    # mirroring the cache get a serial sweep's duplicate cell performs
    snap = registry.snapshot()
    assert snap[POOL_DEDUP_TOTAL]["value"] == 1
    assert store.stats.misses == 1
    assert store.stats.hits == 1
    # ...so hit/miss totals match a serial run of the same matrix
    serial_store = MappingCache(tmp_path / "serial_cache")
    run_matrix(
        ["list_sched"], ["dot_product", "dot_product"], cgra,
        cache=serial_store,
    )
    assert (serial_store.stats.hits, serial_store.stats.misses) == (
        store.stats.hits, store.stats.misses
    )


def test_run_matrix_no_dedup_without_cache(cgra):
    warm_pool(2)
    registry = MetricsRegistry()
    with metrics_scope(registry):
        rows = run_matrix(
            ["list_sched"], ["dot_product", "dot_product"], cgra, jobs=2
        )
    assert len(rows) == 2
    assert _row_sig(rows[0]) == _row_sig(rows[1])
    assert POOL_DEDUP_TOTAL not in registry.snapshot()


def _cache_counts(cache):
    return (cache.stats.hits, cache.stats.misses, cache.stats.stores)


def test_run_matrix_duplicate_cells_book_equal_cache_stats_across_jobs(
    tmp_path,
):
    # A duplicated cell that fails (sa_spatial cannot fit conv3x3 on a
    # 2x2 array) and a duplicated cell that maps: the deduped copies
    # book their primary's lookups replayed — a miss for the failure,
    # a hit for the stored mapping — exactly what the jobs=1 run does.
    tiny = presets.simple_cgra(2, 2)
    kernels = ["conv3x3", "conv3x3", "dot_product", "dot_product"]
    warm_pool(2)
    counts, rows = {}, {}
    for jobs in (1, 2):
        store = MappingCache(tmp_path / f"jobs{jobs}")
        rows[jobs] = [
            _row_sig(r) for r in run_matrix(
                ["sa_spatial"], kernels, tiny, jobs=jobs, cache=store
            )
        ]
        counts[jobs] = _cache_counts(store)
    assert [r[2] for r in rows[1]] == [False, False, True, True]
    assert rows[1] == rows[2]
    assert counts[1] == counts[2] == (1, 3, 1)


def test_explore_duplicate_point_books_equal_cache_stats_across_jobs():
    point = {"size": 4, "topology": "mesh", "rf_size": 4, "mem_cells": "left"}
    other = {**point, "topology": "one_hop"}
    space = [point, other, point]
    suite = ["dot_product", "fir4"]
    warm_pool(2)
    counts, points = {}, {}
    for jobs in (1, 2):
        store = MappingCache()
        points[jobs] = explore(space, suite, jobs=jobs, cache=store)
        counts[jobs] = _cache_counts(store)[:2]
    assert points[1] == points[2]
    assert counts[1] == counts[2]
    assert counts[1][0] > 0  # the duplicate point hit


def test_sweep_with_steals_does_the_work_of_jobs1(cgra, tmp_path):
    # dresc/sad is the slow head (hundreds of ms): dresc/fir4 is
    # prefetched behind it while the other worker clears every other
    # cell, then takes dresc/fir4 over.  Equal work and cache totals
    # show the stolen cell ran once, not on both workers.
    mappers, kernels = ["dresc", "list_sched", "edge_centric"], [
        "sad", "dot_product", "fir4"
    ]
    pool = warm_pool(2)
    sigs, counts, rows = {}, {}, {}
    for jobs in (1, 2):
        steals = pool.steals
        store = MappingCache(tmp_path / f"jobs{jobs}")
        registry = MetricsRegistry()
        with metrics_scope(registry):
            rows[jobs] = [
                _row_sig(r) for r in run_matrix(
                    mappers, kernels, cgra, jobs=jobs, cache=store
                )
            ]
        sigs[jobs] = _work_sig(registry)
        counts[jobs] = _cache_counts(store)
    assert pool.steals > steals
    assert rows[1] == rows[2]
    assert sigs[1] == sigs[2]
    assert counts[1] == counts[2] == (0, 9, 9)
