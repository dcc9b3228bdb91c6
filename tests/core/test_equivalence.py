"""Fast path == slow path.

The flat-array :class:`~repro.core.resources.Occupancy`, the
distance-pruned/A* :class:`~repro.mappers.routing.Router`, and the
parallel sweep layer are all *pure* optimisations: for a fixed seed
they must produce byte-identical mappings to the reference
implementations kept in ``tests/oracles``.  This suite holds them to
that.
"""

from __future__ import annotations

import random

import pytest

from repro.arch import presets
from repro.bench.harness import run_matrix
from repro.core.registry import create
from repro.core.resources import Occupancy
from repro.dse.explorer import explore
from repro.ir import kernels as kernel_lib
from repro.mappers import construct, spr
from repro.obs.tracer import (
    CANDIDATES_EXPLORED,
    ROUTING_ATTEMPTS,
    tracing,
)
from repro.parallel import PMapResult, TaskTimeout, pmap, time_limit

from oracles import DictOccupancy, ReferenceRouter


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


# ---------------------------------------------------------------------------
# 1. Occupancy: flat arrays vs the dict/Counter reference
# ---------------------------------------------------------------------------
def _random_op(rng, flat, ref, cgra, t_max):
    """Apply one random mutation to both implementations."""
    cell = rng.randrange(cgra.n_cells)
    t = rng.randrange(t_max)
    value = rng.randrange(8)
    link = rng.choice(sorted(cgra.links))
    kind = rng.randrange(8)
    if kind == 0:
        if flat.can_place_op(cell, t):
            assert ref.can_place_op(cell, t)
            flat.place_op(value, cell, t)
            ref.place_op(value, cell, t)
    elif kind == 1:
        flat.release_op(cell, t)
        ref.release_op(cell, t)
    elif kind == 2:
        if flat.can_route(value, cell, t):
            assert ref.can_route(value, cell, t)
            flat.add_route(value, cell, t)
            ref.add_route(value, cell, t)
    elif kind == 3:
        flat.release_route(value, cell, t)
        ref.release_route(value, cell, t)
    elif kind == 4:
        if flat.can_hold(value, cell, t):
            assert ref.can_hold(value, cell, t)
            flat.add_hold(value, cell, t)
            ref.add_hold(value, cell, t)
    elif kind == 5:
        flat.release_hold(value, cell, t)
        ref.release_hold(value, cell, t)
    elif kind == 6:
        if flat.can_use_link(value, *link, t):
            assert ref.can_use_link(value, *link, t)
            flat.add_link(value, *link, t)
            ref.add_link(value, *link, t)
    else:
        flat.release_link(value, *link, t)
        ref.release_link(value, *link, t)


def _assert_same_state(flat, ref, cgra, t_max):
    for cell in range(cgra.n_cells):
        for t in range(t_max):
            assert flat.op_at(cell, t) == ref.op_at(cell, t)
            assert flat.can_place_op(cell, t) == ref.can_place_op(cell, t)
            assert flat.holds_at(cell, t) == ref.holds_at(cell, t)
            assert flat.routed_at(cell, t) == ref.routed_at(cell, t)
            for v in range(8):
                assert flat.can_route(v, cell, t) == ref.can_route(v, cell, t)
                assert flat.can_hold(v, cell, t) == ref.can_hold(v, cell, t)
    for link in sorted(cgra.links):
        for t in range(t_max):
            assert flat.link_users(*link, t) == ref.link_users(*link, t)
    assert flat.used_entries() == ref.used_entries()
    assert flat.pressure() == ref.pressure()


@pytest.mark.parametrize("ii", [None, 1, 3])
def test_occupancy_matches_reference_under_random_ops(cgra, ii):
    rng = random.Random(1234)
    flat = Occupancy(cgra, ii)
    ref = DictOccupancy(cgra, ii)
    t_max = ii if ii else 24  # exercise axis growth when unfolded
    for _ in range(600):
        _random_op(rng, flat, ref, cgra, t_max)
    _assert_same_state(flat, ref, cgra, t_max)
    # Copies are equivalent too, and independent of the original.
    fc, rc = flat.copy(), ref.copy()
    for _ in range(100):
        _random_op(rng, flat, ref, cgra, t_max)
    _assert_same_state(fc, rc, cgra, t_max)


def test_pressure_is_mean_entries_per_class(cgra):
    occ = Occupancy(cgra, 2)
    assert occ.pressure() == 0.0
    occ.place_op(0, 0, 0)
    occ.add_route(1, 1, 0)
    occ.add_hold(1, 2, 1)
    link = sorted(cgra.links)[0]
    occ.add_link(1, *link, 0)
    assert occ.pressure() == pytest.approx(4 / 4)
    before = occ.pressure()
    occ.add_route(2, 3, 1)  # every allocation keeps pressure monotone
    assert occ.pressure() > before


# ---------------------------------------------------------------------------
# 2. Whole-mapper equivalence: production stack vs reference stack
# ---------------------------------------------------------------------------
MAPPERS = ["list_sched", "edge_centric", "ultrafast", "crimson", "spr",
           "dresc"]
KERNELS = ["dot_product", "fir4"]


def _signature(mapping):
    return (
        mapping.ii,
        mapping.kind,
        dict(mapping.binding),
        dict(mapping.schedule) if mapping.schedule else None,
        {e: list(steps) for e, steps in mapping.routes.items()},
    )


def _map_with_reference_stack(monkeypatch, mname, dfg, cgra):
    monkeypatch.setattr(construct, "Occupancy", DictOccupancy)
    monkeypatch.setattr(construct, "Router", ReferenceRouter)
    monkeypatch.setattr(spr, "Occupancy", DictOccupancy)
    monkeypatch.setattr(spr, "Router", ReferenceRouter)
    try:
        return create(mname, seed=7).map(dfg, cgra)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("kname", KERNELS)
@pytest.mark.parametrize("mname", MAPPERS)
def test_fixed_seed_mapping_identical_to_reference(
    monkeypatch, cgra, mname, kname
):
    dfg = kernel_lib.kernel(kname)
    fast = create(mname, seed=7).map(dfg, cgra)
    slow = _map_with_reference_stack(monkeypatch, mname, dfg, cgra)
    assert _signature(fast) == _signature(slow)


# ---------------------------------------------------------------------------
# 3. Pruning: fewer explored candidates, same mapping, same attempts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kname", ["fir4", "sobel_x"])
def test_pruning_strictly_reduces_explored_candidates(
    monkeypatch, cgra, kname
):
    dfg = kernel_lib.kernel(kname)
    with tracing() as tr_fast:
        fast = create("list_sched", seed=7).map(dfg, cgra)
    # The reference router is the unpruned layer-BFS.
    monkeypatch.setattr(construct, "Router", ReferenceRouter)
    with tracing() as tr_slow:
        slow = create("list_sched", seed=7).map(dfg, cgra)
    monkeypatch.undo()
    assert _signature(fast) == _signature(slow)
    fast_tot, slow_tot = tr_fast.root.totals(), tr_slow.root.totals()
    # Pruning is invisible to callers: one router invocation per edge
    # attempt either way ...
    assert (
        fast_tot.get(ROUTING_ATTEMPTS, 0)
        == slow_tot.get(ROUTING_ATTEMPTS, 0)
    )
    # ... but the router's internal frontier shrinks.
    assert (
        fast_tot.get(CANDIDATES_EXPLORED, 0)
        < slow_tot.get(CANDIDATES_EXPLORED, 0)
    )


# ---------------------------------------------------------------------------
# 4. Parallel sweeps: same rows/points as serial, modulo timing
# ---------------------------------------------------------------------------
def _row_key(r):
    return (
        r.mapper, r.kernel, r.ok, r.ii, r.schedule_length,
        r.utilization, r.route_steps, r.error,
    )


def test_run_matrix_parallel_matches_serial(cgra):
    mappers = ["list_sched", "edge_centric"]
    kernels = ["dot_product", "fir4"]
    serial = run_matrix(mappers, kernels, cgra)
    par = run_matrix(mappers, kernels, cgra, jobs=2)
    assert [_row_key(r) for r in serial] == [_row_key(r) for r in par]


def test_run_matrix_parallel_carries_traces_back(cgra):
    rows = run_matrix(
        ["list_sched"], ["dot_product", "fir4"], cgra, jobs=2, trace=True
    )
    assert all(r.trace is not None for r in rows)
    assert all(r.trace.find("map") for r in rows)


def test_explore_parallel_matches_serial():
    space = [
        {"size": 4, "topology": t, "rf_size": 2, "mem_cells": "left"}
        for t in ("mesh", "one_hop")
    ]
    suite = ["dot_product", "fir4"]
    assert explore(space, suite) == explore(space, suite, jobs=2)


# ---------------------------------------------------------------------------
# 5. Timeouts surface as data, never as hangs
# ---------------------------------------------------------------------------
def _busy(_):
    while True:  # only a signal can stop this
        pass


def _double(x):
    return 2 * x


def test_pmap_timeout_yields_failed_result():
    results = pmap(_busy, [0, 1], jobs=2, timeout=0.2)
    assert all(not r.ok and r.timed_out for r in results)
    assert all(isinstance(r.error, TaskTimeout) for r in results)


def test_pmap_preserves_order_and_values():
    results = pmap(_double, list(range(20)), jobs=4)
    assert [r.value for r in results] == [2 * i for i in range(20)]
    assert [r.index for r in results] == list(range(20))
    assert all(isinstance(r, PMapResult) and r.ok for r in results)


def test_time_limit_raises_in_process():
    with pytest.raises(TaskTimeout):
        with time_limit(0.1):
            while True:
                pass


def test_run_matrix_timeout_becomes_failure_row(cgra):
    # The budget must sit well below dresc/sobel_x's *warm* runtime
    # (~50 ms once per-process memos are hot), or the cell races the
    # alarm and the test flakes in full-suite runs.
    for jobs in (1, 2):
        rows = run_matrix(
            ["dresc"], ["sobel_x", "fir4"], cgra,
            jobs=jobs, timeout=0.02,
        )
        assert len(rows) == 2
        timed_out = [r for r in rows if not r.ok]
        assert timed_out, f"jobs={jobs}: expected at least one timeout"
        assert all("timeout" in r.error for r in timed_out)
