"""Portfolio mapper: deterministic winners, serial == parallel."""

from __future__ import annotations

import pytest

from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.core.serialize import mapping_to_json
from repro.ir import kernels as kernel_lib
from repro.obs.tracer import tracing


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


def _signature(mapping):
    return (
        mapping.ii,
        dict(mapping.binding),
        dict(mapping.schedule) if mapping.schedule else None,
        {e: list(s) for e, s in mapping.routes.items()},
    )


@pytest.mark.parametrize("kname", ["dot_product", "fir4"])
def test_parallel_race_matches_serial(cgra, kname):
    dfg = kernel_lib.kernel(kname)
    serial = create("portfolio", jobs=1).map(dfg, cgra)
    parallel = create("portfolio", jobs=2).map(dfg, cgra)
    assert _signature(serial) == _signature(parallel)
    assert serial.mapper == "portfolio"


def test_best_policy_matches_serial(cgra):
    dfg = kernel_lib.kernel("dot_product")
    serial = create("portfolio", policy="best", jobs=1).map(dfg, cgra)
    parallel = create("portfolio", policy="best", jobs=2).map(dfg, cgra)
    assert _signature(serial) == _signature(parallel)


def test_first_policy_prefers_entrant_order(cgra):
    dfg = kernel_lib.kernel("dot_product")
    with tracing() as tr:
        create(
            "portfolio", mappers=("list_sched", "edge_centric"), jobs=1
        ).map(dfg, cgra)
    # list_sched succeeds on dot_product, so it must be the winner.
    assert tr.root.tags.get("winner") == "list_sched"


def test_winner_trace_grafted_in_parallel_run(cgra):
    dfg = kernel_lib.kernel("fir4")
    with tracing() as tr:
        create("portfolio", jobs=2).map(dfg, cgra)
    assert tr.root.tags.get("winner")
    # The winner's child-process span tree hangs under our root.
    assert len(tr.root.find("map")) >= 2


def test_all_entrants_failing_raises_mapfailure(cgra):
    dfg = kernel_lib.kernel("sobel_x")
    # Budget well below dresc/sobel_x's warm runtime (~50 ms), so the
    # entrant always times out instead of racing the alarm.
    mapper = create(
        "portfolio", mappers=("dresc",), jobs=1, timeout=0.02
    )
    with pytest.raises(MapFailure):
        mapper.map(dfg, cgra)


def test_bad_policy_rejected():
    with pytest.raises(ValueError):
        create("portfolio", policy="fastest")


def _span_names(span):
    return [span.name, [_span_names(c) for c in span.children]]


@pytest.mark.parametrize("policy", ["first", "best"])
def test_jobs_only_moves_entrants_not_output_or_spans(cgra, policy):
    dfg = kernel_lib.kernel("fir4")
    out = {}
    for jobs in (1, 2):
        with tracing() as tr:
            mapping = create("portfolio", policy=policy, jobs=jobs).map(
                dfg, cgra
            )
        assert tr.root.name == "map"
        out[jobs] = (mapping_to_json(mapping), _span_names(tr.root))
    assert out[1] == out[2]
