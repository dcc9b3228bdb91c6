"""Mergeable process metrics: counters, gauges, log-bucketed histograms.

Spans (:mod:`repro.obs.tracer`) answer "where did *this run's* time
go"; this module answers the distribution questions a fleet of runs
raises — "what is p95 map latency across the matrix?", "how many maps
has this process served?" — the numbers a ``repro serve`` daemon must
expose and a perf-regression ledger must record.

Three typed instruments live in a :class:`MetricsRegistry`:

* :class:`Counter` — monotonic totals (``maps_total``).
* :class:`Gauge` — last-written value (queue depth, pool size).
* :class:`Histogram` — **log-bucketed** with exact per-bucket counts:
  bucket boundaries grow geometrically (:data:`GROWTH` per bucket,
  ~9% relative width), so any two histograms over the same value
  domain share the same bucket grid and **merge associatively and
  commutatively by adding counts** — the property that lets forked
  :func:`repro.parallel.pmap` workers ship snapshot *deltas* back in
  their :class:`~repro.parallel.PMapResult` and the parent fold them
  in exactly (mirroring the mapping cache's stats-delta merge).
  Quantile readouts (p50/p90/p99) come from the bucket grid with the
  bucket's relative-width error bound.

**Snapshots are plain dicts** (JSON-clean, stable key order), so they
pickle across processes, append to JSONL ledgers, and diff/merge
without the live objects: :func:`merge_snapshots` is the associative
fold, :meth:`MetricsRegistry.delta_since` the subtraction.

**No-op-when-disabled contract.**  Like :data:`~repro.obs.tracer.NULL_TRACER`,
the module-level active registry defaults to :data:`NULL_REGISTRY`,
whose instrument getters return shared do-nothing singletons —
instrumented hot paths pay one method call per event and allocate
nothing.  Enable per region with::

    with metrics_scope() as reg:
        run_matrix(...)
    print(render_prometheus(reg))
    print(reg.histogram(MAP_LATENCY_MS).percentile(0.95))
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "GROWTH",
    "Histogram",
    "INSTRUMENTS",
    "MAP_FAILURES_TOTAL",
    "MAP_LATENCY_MS",
    "MAPS_TOTAL",
    "MATRIX_CELLS_TOTAL",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "POOL_DEDUP_TOTAL",
    "POOL_RESPAWNS_TOTAL",
    "POOL_STEALS_TOTAL",
    "SAT_CONFLICTS",
    "SERVE_BATCHES_TOTAL",
    "SERVE_ERRORS_TOTAL",
    "SERVE_INFLIGHT",
    "SERVE_REQUEST_LATENCY_MS",
    "SERVE_REQUESTS_TOTAL",
    "get_metrics",
    "merge_snapshots",
    "metrics_scope",
    "render_prometheus",
    "set_metrics",
]

# ---------------------------------------------------------------------------
# Instrument-name vocabulary.  Like the tracer's COUNTERS, sites use
# these constants so names cannot drift from the renderers/ledger.
MAPS_TOTAL = "maps_total"                  #: successful Mapper.map calls
MAP_FAILURES_TOTAL = "map_failures_total"  #: Mapper.map MapFailure raises
MAP_LATENCY_MS = "map_latency_ms"          #: histogram of Mapping.map_time
MATRIX_CELLS_TOTAL = "matrix_cells_total"  #: run_matrix cells executed
SAT_CONFLICTS = "sat_conflicts"            #: histogram of conflicts/solve
POOL_RESPAWNS_TOTAL = "pool_respawns_total"  #: pool workers replaced after a crash/hard timeout
POOL_DEDUP_TOTAL = "pool_dedup_total"      #: in-batch duplicate tasks collapsed onto a primary
POOL_STEALS_TOTAL = "pool_steals_total"    #: prefetched pool tasks taken over by an idle worker (served by the daemon)
SERVE_REQUESTS_TOTAL = "serve_requests_total"  #: requests accepted by the daemon
SERVE_ERRORS_TOTAL = "serve_errors_total"  #: requests answered with a structured error
SERVE_BATCHES_TOTAL = "serve_batches_total"  #: request batches executed over the pool
SERVE_REQUEST_LATENCY_MS = "serve_request_latency_ms"  #: histogram of accept-to-settle wall time
SERVE_INFLIGHT = "serve_inflight"          #: gauge of requests accepted but not yet settled

INSTRUMENTS = (
    MAPS_TOTAL,
    MAP_FAILURES_TOTAL,
    MAP_LATENCY_MS,
    MATRIX_CELLS_TOTAL,
    SAT_CONFLICTS,
    POOL_RESPAWNS_TOTAL,
    POOL_DEDUP_TOTAL,
    POOL_STEALS_TOTAL,
    SERVE_REQUESTS_TOTAL,
    SERVE_ERRORS_TOTAL,
    SERVE_BATCHES_TOTAL,
    SERVE_REQUEST_LATENCY_MS,
    SERVE_INFLIGHT,
)

#: Geometric bucket growth factor: 2**(1/4), four buckets per octave,
#: so a bucket's bounds differ by ~19% and a quantile readout is
#: within ~9% of the true value.  Every histogram shares this grid —
#: the precondition for exact associative merging.
GROWTH = 2.0 ** 0.25

#: Bucket index for values <= 0 (latencies and counts are
#: non-negative; 0 is common and gets its own exact bucket).
_ZERO_BUCKET = -(2 ** 30)

_LOG_GROWTH = math.log(GROWTH)


def _bucket_of(value: float) -> int:
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.floor(math.log(value) / _LOG_GROWTH)


def bucket_upper(index: int) -> float:
    """The inclusive upper bound of bucket ``index``."""
    if index == _ZERO_BUCKET:
        return 0.0
    return GROWTH ** (index + 1)


# ---------------------------------------------------------------------------
class Counter:
    """A monotonic counter."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}

    def merge(self, snap: dict[str, Any]) -> None:
        self.value += snap.get("value", 0)

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A last-write-wins value (merge order: submission order)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}

    def merge(self, snap: dict[str, Any]) -> None:
        if "value" in snap:
            self.value = snap["value"]

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Log-bucketed histogram with exact counts and associative merge.

    Tracks ``count``, ``sum`` and per-bucket counts only; min/max and
    quantiles are *read out* of the bucket grid (within the bucket's
    ~9% relative width), which keeps snapshots subtractable — a delta
    between two snapshots of one histogram is itself a valid
    histogram, so forked workers can ship exactly what they observed.
    """

    __slots__ = ("name", "count", "total", "buckets")
    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        idx = _bucket_of(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value

    # -- readouts ------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The upper bound of the bucket holding the q-quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                return bucket_upper(idx)
        return bucket_upper(max(self.buckets))  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": round(self.percentile(0.50), 3),
            "p90": round(self.percentile(0.90), 3),
            "p99": round(self.percentile(0.99), 3),
        }

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            # JSON object keys are strings; sorted for determinism.
            "buckets": {
                str(idx): self.buckets[idx]
                for idx in sorted(self.buckets)
            },
        }

    def merge(self, snap: dict[str, Any]) -> None:
        self.count += snap.get("count", 0)
        self.total += snap.get("sum", 0.0)
        for key, n in (snap.get("buckets") or {}).items():
            idx = int(key)
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count})"


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


# ---------------------------------------------------------------------------
class MetricsRegistry:
    """A named set of instruments with dict snapshots and exact merge."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = cls(name)
        elif type(inst) is not cls:
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__},"
                f" not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._instruments))

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """The whole registry as a plain, JSON-clean, sorted dict."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def merge(self, snap: dict[str, dict[str, Any]] | None) -> None:
        """Fold a snapshot (e.g. a worker's delta) into this registry."""
        if not snap:
            return
        for name in sorted(snap):
            data = snap[name]
            cls = _KINDS.get(data.get("type"))
            if cls is None:
                raise ValueError(
                    f"snapshot entry {name!r} has unknown type"
                    f" {data.get('type')!r}"
                )
            self._get(name, cls).merge(data)

    def delta_since(
        self, before: dict[str, dict[str, Any]]
    ) -> dict[str, dict[str, Any]]:
        """What happened since ``before = registry.snapshot()``.

        The result is itself a snapshot: counters/histograms carry the
        subtracted totals (exact — counts are monotonic), gauges carry
        their current value (last-write-wins under merge).
        """
        out: dict[str, dict[str, Any]] = {}
        for name, now in self.snapshot().items():
            prev = before.get(name)
            if now["type"] == "gauge":
                if prev is None or now["value"] != prev["value"]:
                    out[name] = now
                continue
            if prev is None:
                if _snapshot_nonzero(now):
                    out[name] = now
                continue
            delta = _subtract(now, prev)
            if _snapshot_nonzero(delta):
                out[name] = delta
        return out


def _snapshot_nonzero(snap: dict[str, Any]) -> bool:
    if snap["type"] == "counter":
        return bool(snap["value"])
    if snap["type"] == "histogram":
        return bool(snap["count"])
    return True


def _subtract(now: dict[str, Any], prev: dict[str, Any]) -> dict[str, Any]:
    if now["type"] != prev["type"]:
        raise ValueError(
            f"cannot subtract {prev['type']} snapshot from {now['type']}"
        )
    if now["type"] == "counter":
        return {"type": "counter", "value": now["value"] - prev["value"]}
    buckets: dict[str, int] = {}
    old = prev.get("buckets") or {}
    for key, n in (now.get("buckets") or {}).items():
        d = n - old.get(key, 0)
        if d:
            buckets[key] = d
    return {
        "type": "histogram",
        "count": now["count"] - prev["count"],
        "sum": now["sum"] - prev["sum"],
        "buckets": buckets,
    }


def merge_snapshots(
    a: dict[str, dict[str, Any]], b: dict[str, dict[str, Any]]
) -> dict[str, dict[str, Any]]:
    """Merge two snapshots into a new one (associative; commutative for
    counters and histograms, last-write-wins for gauges)."""
    reg = MetricsRegistry()
    reg.merge(a)
    reg.merge(b)
    return reg.snapshot()


# ---------------------------------------------------------------------------
class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for the disabled path."""

    __slots__ = ()

    name = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0
    buckets: Any = MappingProxyType({})

    def inc(self, n: float = 1) -> None:
        pass

    def dec(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {}

    def snapshot(self) -> dict:
        return {}

    def __repr__(self) -> str:
        return "NULL_INSTRUMENT"


class NullRegistry:
    """The disabled registry: instrument getters return shared no-ops.

    Like :class:`~repro.obs.tracer.NullTracer`, the *object* is the
    off switch — instrumented code never branches on a flag.
    """

    enabled = False

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def snapshot(self) -> dict:
        return {}

    def merge(self, snap) -> None:
        pass

    def delta_since(self, before) -> dict:
        return {}

    def __repr__(self) -> str:
        return "NULL_REGISTRY"


NULL_INSTRUMENT = _NullInstrument()
NULL_REGISTRY = NullRegistry()

_ACTIVE: MetricsRegistry | NullRegistry = NULL_REGISTRY


def get_metrics() -> MetricsRegistry | NullRegistry:
    """The active registry (the no-op singleton unless one is installed)."""
    return _ACTIVE


def set_metrics(
    registry: MetricsRegistry | NullRegistry | None,
) -> MetricsRegistry | NullRegistry:
    """Install ``registry`` (None = disable); returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry if registry is not None else NULL_REGISTRY
    return previous


@contextmanager
def metrics_scope(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Collect metrics for a region; restores the previous registry on
    exit.  Forked :func:`repro.parallel.pmap` workers inherit the
    active registry and ship their deltas back automatically.
    """
    active = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(active)
    try:
        yield active
    finally:
        set_metrics(previous)


# ---------------------------------------------------------------------------
def _prom_name(name: str, prefix: str) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return prefix + safe


def render_prometheus(
    source: MetricsRegistry | dict[str, dict[str, Any]],
    *,
    prefix: str = "repro_",
) -> str:
    """Prometheus text exposition (v0.0.4) of a registry or snapshot.

    Histograms render the standard cumulative ``_bucket{le=...}``
    series plus ``_sum``/``_count``; the exposition is what a future
    ``repro serve`` daemon returns from ``/metrics``.
    """
    snap = source.snapshot() if hasattr(source, "snapshot") else source
    lines: list[str] = []
    for name in sorted(snap):
        data = snap[name]
        kind = data.get("type")
        pname = _prom_name(name, prefix)
        lines.append(f"# TYPE {pname} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{pname} {data['value']:g}")
            continue
        cum = 0
        for key in sorted(
            (data.get("buckets") or {}), key=int
        ):
            cum += data["buckets"][key]
            le = bucket_upper(int(key))
            lines.append(f'{pname}_bucket{{le="{le:.6g}"}} {cum}')
        lines.append(f'{pname}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{pname}_sum {data['sum']:g}")
        lines.append(f"{pname}_count {data['count']}")
    return "\n".join(lines)
