"""The traced run's layer instrumentation and per-layer report.

:func:`instrument` wraps the entry points of every layer with spans
(see :mod:`perfbench.spans`); :func:`report_layers` turns one traced
replay into the per-layer metrics.  Every workload reports every
metric; a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from perfbench.common import Report, median
from perfbench.inputs import SERVE_MAPPERS
from perfbench.spans import LAYERS, Spans

#: program work counters (repro.obs.tracer names) and their metric names
COUNTERS = (
    ("routing_attempts", "mappers.routing_attempts"),
    ("candidates_explored", "mappers.candidates_explored"),
    ("backtracks", "mappers.backtracks"),
    ("solver_conflicts", "solvers.conflicts"),
    ("solver_decisions", "solvers.decisions"),
    ("solver_nodes", "solvers.nodes"),
    ("solver_restarts", "solvers.restarts"),
)


def instrument(spans: Spans, on_map: Callable[..., None] | None = None) -> None:
    """Wrap every layer's entry points; ``spans.restore()`` undoes it.

    ``on_map(mapping, mapper, dfg, cgra)`` sees every mapping that
    ``Mapper.map`` returns (the correctness check of in-process
    replays).
    """
    import repro.bench.harness as harness
    import repro.mappers.cluster as cluster
    import repro.serve.protocol as protocol
    import repro.serve.scheduler as scheduler
    import repro.serve.validate as validate
    from repro.cache import MappingCache
    from repro.core.mapper import Mapper
    from repro.core.mapping import Mapping
    from repro.core.registry import get, names
    from repro.solvers.csp import CSP
    from repro.solvers.ilp import ILP
    from repro.solvers.sat import SatSolver

    spans.wrap(
        validate, "validate_batch", "serve.validate",
        tag=lambda _res, doc, *_: len(doc["requests"]),
    )
    spans.wrap(validate, "dfg_from_doc", "serve.dfg_parse")
    spans.wrap(scheduler, "dfg_from_doc", "serve.dfg_parse")
    spans.wrap(scheduler, "map_batch", "serve.map_batch")
    spans.wrap(scheduler, "_map_task", "serve.task")
    spans.wrap(protocol, "ndjson_line", "core.serialize_json")
    spans.wrap(scheduler, "mapping_to_doc", "core.serialize")
    spans.wrap(Mapping, "validate", "core.validate")
    spans.wrap(
        Mapper, "map", "core.map",
        tag=(lambda m, mapper, dfg, cgra, *_: on_map(m, mapper, dfg, cgra))
        if on_map is not None else None,
    )
    spans.wrap(MappingCache, "key", "cache.key")
    spans.wrap(
        MappingCache, "get", "cache.get",
        tag=lambda hit, *_: hit is not None,
    )
    spans.wrap(MappingCache, "put", "cache.put")
    spans.wrap(harness, "run_matrix", "bench.run_matrix")
    spans.wrap(cluster, "partition", "mappers.cluster.partition")
    spans.wrap(cluster, "route_negotiated", "mappers.cluster.route")
    spans.wrap(
        cluster, "route_spatial_partial", "mappers.cluster.greedy_route"
    )
    spans.wrap(
        cluster.ClusteredSpatialMapper, "refine", "mappers.cluster.anneal"
    )
    spans.wrap(SatSolver, "solve", "solvers.sat")
    spans.wrap(ILP, "solve", "solvers.ilp")
    spans.wrap(CSP, "solve", "solvers.csp")

    # One span per mapper algorithm run, named after the mapper.
    # Several registered mappers share an inherited ``_map``, so wrap
    # each defining class once.
    wrapped: set[type] = set()
    for name in names():
        cls = get(name)
        owner = next(c for c in cls.__mro__ if "_map" in c.__dict__)
        if owner not in wrapped:
            wrapped.add(owner)
            spans.wrap(
                owner, "_map",
                lambda mapper, *_: f"mappers.{mapper.info.name}",
            )


def _noop(_: int) -> None:
    return None


def dispatch_us(jobs: int, tasks: int, repeats: int) -> tuple[float, str]:
    """Median per-task cost of a no-op ``pmap`` over the warm pool."""
    from repro.parallel import pmap, shutdown, warm_pool

    warm_pool(jobs)
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            pmap(_noop, range(tasks), jobs=jobs)
            times.append(time.perf_counter() - t0)
    finally:
        shutdown()
    return (1e6 * median(times) / tasks,
            f"no-op pmap of {tasks} tasks, median of {repeats}")


def arch_tables_ms(names: tuple[str, ...]) -> float:
    """Cold all-pairs distance table plus flat routing graph."""
    from repro.arch import presets
    from repro.mappers.routecore import flat_graph

    total = 0.0
    for name in names:
        cgra = presets.by_name(name)
        t0 = time.perf_counter()
        cgra.distance_table()
        flat_graph(cgra)
        total += time.perf_counter() - t0
    return 1000 * total


@dataclass
class Traced:
    """One replay, run plain and then traced."""

    result: Any
    spans: Spans
    #: program work counters, by metric name
    counts: dict[str, int]
    untraced_ms: float
    traced_ms: float


def plain_then_traced(
    replay: Callable[[Spans | None], Any],
    on_map: Callable[..., None] | None = None,
) -> Traced:
    """Time ``replay(None)``, then run ``replay(spans)`` with the layer
    spans and the program's own tracer on, under one root span."""
    from repro.obs import Tracer, tracing

    t0 = time.perf_counter()
    replay(None)
    untraced_ms = 1000 * (time.perf_counter() - t0)
    spans = Spans()
    tracer = Tracer()
    instrument(spans, on_map)
    try:
        with tracing(tracer), spans.span("run"):
            result = replay(spans)
    finally:
        spans.restore()
    totals: dict[str, int] = {}
    for root in tracer.roots:
        for name, n in root.totals().items():
            totals[name] = totals.get(name, 0) + n
    counts = {metric: totals.get(name, 0) for name, metric in COUNTERS}
    return Traced(result, spans, counts, untraced_ms, spans.total_ms("run"))


def report_layers(
    report: Report,
    traced: Traced,
    *,
    tables_ms: float,
    extra: dict[str, tuple[float, str]],
    responses: Sequence[bytes] = (),
) -> None:
    """Add every per-layer metric to ``report``.

    ``extra`` carries the metrics measured outside the span tree (wire
    time, pool dispatch, busy ratio, cell overhead, ...); anything it
    does not name reads 0.  ``responses`` are the response lines the
    replay encoded (their size is the document size).
    """
    add = report.add
    spans, counts = traced.spans, traced.counts
    traced_ms, untraced_ms = traced.traced_ms, traced.untraced_ms
    n_req = sum(s[4] for s in spans.named("serve.validate"))
    add("serve.validate_us",
        1000 * spans.total_ms("serve.validate") / n_req if n_req else 0.0,
        "us", f"validate_batch per request, {n_req} requests")
    add("serve.dfg_parse_us", spans.mean_us("serve.dfg_parse"), "us")
    for name, unit in (("serve.wire_ms", "ms"), ("serve.dedup_ratio", "ratio"),
                       ("parallel.task_overhead_ms", "ms"),
                       ("parallel.worker_busy_ratio", "ratio"),
                       ("parallel.dispatch_us", "us"),
                       ("bench.cell_overhead_ms", "ms")):
        value, note = extra.get(name, (0.0, "not exercised"))
        add(name, value, unit, note)

    gets = spans.named("cache.get")
    hits = sum(1 for s in gets if s[4])
    add("cache.hit_ratio", hits / len(gets) if gets else 0.0, "ratio",
        f"{hits} of {len(gets)} lookups")
    add("cache.key_us", spans.mean_us("cache.key"), "us")
    add("cache.get_hit_us", spans.mean_us("cache.get", bool), "us")
    add("cache.put_us", spans.mean_us("cache.put"), "us")

    add("core.validate_us", spans.mean_us("core.validate"), "us")
    add("core.serialize_us",
        spans.mean_us("core.serialize") + spans.mean_us("core.serialize_json"),
        "us", "mapping_to_doc + JSON line, per response")
    add("core.doc_kb",
        sum(len(r) for r in responses) / len(responses) / 1024
        if responses else 0.0,
        "KB", f"mean of {len(responses)} response lines")

    for name in SERVE_MAPPERS:
        add(f"mappers.{name}.map_ms",
            spans.mean_us(f"mappers.{name}") / 1000, "ms", "per call")
    n_cluster = len(spans.named("mappers.cluster"))
    per = (lambda ms: ms / n_cluster) if n_cluster else (lambda ms: 0.0)
    add("mappers.cluster.partition_ms",
        per(spans.total_ms("mappers.cluster.partition")), "ms", "per map")
    add("mappers.cluster.route_ms",
        per(spans.total_ms("mappers.cluster.route")), "ms",
        "route_negotiated per map")
    add("mappers.cluster.greedy_route_ms",
        per(spans.total_ms("mappers.cluster.greedy_route")), "ms",
        "route_spatial_partial per map")
    anneal_ms = spans.total_ms("mappers.cluster.anneal")
    add("mappers.cluster.place_ms",
        per(spans.self_ms("mappers.cluster") + anneal_ms), "ms",
        "everything but partition and routing, per map")
    add("mappers.cluster.anneal_ms", per(anneal_ms), "ms",
        "refine (the annealer) per map, part of place_ms")
    for _, metric in COUNTERS[:3]:
        add(metric, counts[metric], "count")

    add("arch.tables_ms", tables_ms, "ms",
        "cold distance_table + flat_graph")

    for solver in ("sat", "ilp", "csp"):
        add(f"solvers.{solver}.solve_ms",
            spans.total_ms(f"solvers.{solver}"), "ms", "total")
    for _, metric in COUNTERS[3:]:
        add(metric, counts[metric], "count")

    selfs = spans.layer_self_ms()
    for layer in LAYERS:
        add(f"{layer}.self_ms", selfs[layer], "ms")
    unattributed = traced_ms - sum(selfs.values())
    add("unattributed_ms", unattributed, "ms",
        "traced time outside every layer span")
    add("traced_ms", traced_ms, "ms", "layer self times + unattributed")
    add("trace_overhead_pct",
        100 * (traced_ms - untraced_ms) / untraced_ms, "%",
        f"traced {traced_ms:.0f} ms vs untraced {untraced_ms:.0f} ms")
