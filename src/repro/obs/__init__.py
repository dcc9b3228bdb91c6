"""Observability: tracing, metrics, convergence telemetry, manifests.

The survey's §II-C names the mapping quality criterion as "high
quality solution with fast compilation time"; this subsystem makes the
second half measurable *per stage*, *per distribution*, and *over
time* instead of as one opaque ``map_time``.  Six pieces:

* :mod:`repro.obs.tracer` — nested context-manager spans with
  wall-clock, tags, typed counters, and convergence samples; disabled
  by default through no-op singletons (near-zero overhead on every
  hot path);
* :mod:`repro.obs.metrics` — process-wide mergeable metrics: monotonic
  counters, gauges, and log-bucketed histograms (p50/p90/p99) whose
  snapshots fold deterministically across fork workers, plus a
  Prometheus text exposition;
* :mod:`repro.obs.progress` — bounded, thinned time-series of search
  progress (best cost, solver conflicts) for anytime/convergence
  reporting;
* :mod:`repro.obs.manifest` — the provenance header (git sha, seed,
  python, wall-clock anchor, problem fingerprints) every traced run
  and ledger entry carries;
* :mod:`repro.obs.export` — JSONL trace writer/reader: manifest line
  0, span records, untraced-counter records; round-trips the span
  tree and reads headerless format-1 files;
* :mod:`repro.obs.render` — ASCII flame view, per-phase summary, and
  convergence plots (the CLI's ``--profile`` report);
* :mod:`repro.obs.logwire` — the stdlib ``repro.*`` logger hierarchy
  (silent by default, ``-v`` wires DEBUG).

Instrumentation already threaded through the package: every
``Mapper.map`` call opens a root span and feeds the latency histogram,
the II search records one span per attempted II, the solver backends
report model sizes, conflict/node counters, and conflict-curve
progress, the pass manager records per-pass spans, the iterative
mappers emit best-cost convergence series, and the inner loops emit
``candidates_explored`` / ``backtracks`` / ``routing_attempts``.
"""

from repro.obs.export import (
    manifest_of,
    read_jsonl,
    spans_from_records,
    to_records,
    untraced_counters_of,
    write_jsonl,
)
from repro.obs.logwire import configure_logging, get_logger
from repro.obs.manifest import TRACE_FORMAT, git_revision, run_manifest
from repro.obs.metrics import (
    INSTRUMENTS,
    MAP_FAILURES_TOTAL,
    MAP_LATENCY_MS,
    MAPS_TOTAL,
    MATRIX_CELLS_TOTAL,
    NULL_REGISTRY,
    SAT_CONFLICTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_metrics,
    metrics_scope,
    render_prometheus,
    set_metrics,
)
from repro.obs.progress import ProgressSeries
from repro.obs.render import (
    render_convergence,
    render_flame,
    render_profile,
    render_summary,
)
from repro.obs.tracer import (
    BACKTRACKS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_VALIDATION_FAILURES,
    CANDIDATES_EXPLORED,
    CHECK_CASES,
    CHECK_DIVERGENCES,
    COUNTERS,
    II_ATTEMPTS,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    ROUTING_ATTEMPTS,
    SHRINK_ROUNDS,
    SOLVER_CLAUSES,
    SOLVER_CONFLICTS,
    SOLVER_DECISIONS,
    SOLVER_NODES,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "BACKTRACKS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_VALIDATION_FAILURES",
    "CANDIDATES_EXPLORED",
    "CHECK_CASES",
    "CHECK_DIVERGENCES",
    "COUNTERS",
    "Counter",
    "Gauge",
    "Histogram",
    "II_ATTEMPTS",
    "INSTRUMENTS",
    "MAPS_TOTAL",
    "MAP_FAILURES_TOTAL",
    "MAP_LATENCY_MS",
    "MATRIX_CELLS_TOTAL",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "ProgressSeries",
    "ROUTING_ATTEMPTS",
    "SAT_CONFLICTS",
    "SHRINK_ROUNDS",
    "SOLVER_CLAUSES",
    "SOLVER_CONFLICTS",
    "SOLVER_DECISIONS",
    "SOLVER_NODES",
    "Span",
    "TRACE_FORMAT",
    "Tracer",
    "configure_logging",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "git_revision",
    "manifest_of",
    "metrics_scope",
    "read_jsonl",
    "render_convergence",
    "render_flame",
    "render_profile",
    "render_prometheus",
    "render_summary",
    "run_manifest",
    "set_metrics",
    "set_tracer",
    "spans_from_records",
    "to_records",
    "tracing",
    "untraced_counters_of",
    "write_jsonl",
]
