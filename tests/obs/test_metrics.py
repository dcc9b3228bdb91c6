"""Metrics registry: instruments, snapshots, merges, worker deltas."""

import json
import random

import pytest

from repro.obs.metrics import (
    GROWTH,
    INSTRUMENTS,
    MAP_LATENCY_MS,
    MAPS_TOTAL,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_upper,
    get_metrics,
    metrics_scope,
    render_prometheus,
    set_metrics,
)
from repro.parallel import pmap


# ---------------------------------------------------------------------------
# Instrument basics
def test_counter_is_monotonic():
    c = Counter("hits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_last_write_wins():
    g = Gauge("depth")
    g.set(7.0)
    g.inc(2.0)
    g.dec(1.0)
    assert g.value == 8.0
    g.merge({"value": 3.0})
    assert g.value == 3.0


def test_histogram_counts_and_percentiles():
    h = Histogram("lat")
    for v in [1.0, 1.0, 2.0, 4.0, 100.0]:
        h.observe(v)
    assert h.count == 5
    assert h.total == 108.0
    assert h.mean == pytest.approx(21.6)
    # The quantile readout is the holding bucket's upper bound: within
    # one GROWTH factor above the true value.
    assert 1.0 <= h.percentile(0.5) <= 2.0 * GROWTH
    assert 100.0 <= h.percentile(0.99) <= 100.0 * GROWTH
    assert h.percentile(0.0) > 0
    with pytest.raises(ValueError):
        h.percentile(1.5)


def test_histogram_zero_bucket_is_exact():
    h = Histogram("z")
    h.observe(0.0)
    h.observe(0.0)
    assert h.count == 2
    assert h.percentile(0.5) == 0.0


def test_registry_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_registry_iteration_sorted():
    reg = MetricsRegistry()
    reg.counter("b")
    reg.gauge("a")
    assert list(reg) == ["a", "b"]
    assert "a" in reg and "z" not in reg


# ---------------------------------------------------------------------------
# Snapshots and merge algebra
def _random_snapshot(rng):
    """A registry snapshot with random counters and histograms."""
    reg = MetricsRegistry()
    for name in ("alpha", "beta"):
        c = reg.counter(f"{name}_total")
        c.inc(rng.randrange(0, 50))
    for name in ("lat_ms", "work"):
        h = reg.histogram(name)
        for _ in range(rng.randrange(0, 40)):
            h.observe(rng.uniform(0.0, 1000.0))
    return reg.snapshot()


def _merged(*snaps):
    """The snapshot of a fresh registry that merged ``snaps`` in order."""
    reg = MetricsRegistry()
    for snap in snaps:
        reg.merge(snap)
    return reg.snapshot()


def _counts(snap):
    """The exact (integer) parts of a snapshot, for equality checks."""
    out = {}
    for name, data in snap.items():
        if data["type"] == "counter":
            out[name] = data["value"]
        elif data["type"] == "histogram":
            out[name] = (data["count"], tuple(sorted(data["buckets"].items())))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_merge_is_commutative(seed):
    rng = random.Random(seed)
    a, b = _random_snapshot(rng), _random_snapshot(rng)
    ab, ba = _merged(a, b), _merged(b, a)
    assert _counts(ab) == _counts(ba)
    for name in ab:
        if ab[name]["type"] == "histogram":
            assert ab[name]["sum"] == pytest.approx(ba[name]["sum"])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_merge_is_associative(seed):
    rng = random.Random(seed)
    a, b, c = (_random_snapshot(rng) for _ in range(3))
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    assert _counts(left) == _counts(right)
    for name in left:
        if left[name]["type"] == "histogram":
            assert left[name]["sum"] == pytest.approx(right[name]["sum"])


def test_snapshot_is_json_clean():
    rng = random.Random(7)
    snap = _random_snapshot(rng)
    assert json.loads(json.dumps(snap)) == snap


def test_merge_rejects_unknown_type():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.merge({"x": {"type": "mystery", "value": 1}})


# ---------------------------------------------------------------------------
# Active-registry plumbing and the null object
def test_null_registry_is_default_and_inert():
    assert get_metrics() is NULL_REGISTRY
    assert not NULL_REGISTRY.enabled
    NULL_REGISTRY.counter("x").inc()
    NULL_REGISTRY.histogram("y").observe(3.0)
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.counter("x").value == 0
    assert list(NULL_REGISTRY) == []


def test_metrics_scope_installs_and_restores():
    assert get_metrics() is NULL_REGISTRY
    with metrics_scope() as reg:
        assert get_metrics() is reg
        reg.counter("n").inc()
    assert get_metrics() is NULL_REGISTRY
    assert reg.counter("n").value == 1


def test_set_metrics_none_disables():
    prev = set_metrics(MetricsRegistry())
    try:
        assert get_metrics().enabled
        set_metrics(None)
        assert get_metrics() is NULL_REGISTRY
    finally:
        set_metrics(prev)


def test_instrument_vocabulary_is_unique():
    assert len(INSTRUMENTS) == len(set(INSTRUMENTS))


# ---------------------------------------------------------------------------
# Prometheus exposition
def test_render_prometheus_counter_and_histogram():
    reg = MetricsRegistry()
    reg.counter(MAPS_TOTAL).inc(3)
    h = reg.histogram(MAP_LATENCY_MS)
    h.observe(1.0)
    h.observe(8.0)
    text = render_prometheus(reg)
    assert "# TYPE repro_maps_total counter" in text
    assert "repro_maps_total 3" in text
    assert "# TYPE repro_map_latency_ms histogram" in text
    assert 'repro_map_latency_ms_bucket{le="+Inf"} 2' in text
    assert "repro_map_latency_ms_count 2" in text
    assert "repro_map_latency_ms_sum 9" in text
    # Bucket series are cumulative and non-decreasing.
    counts = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if "_bucket{" in line
    ]
    assert counts == sorted(counts)


def test_render_prometheus_accepts_snapshot():
    reg = MetricsRegistry()
    reg.gauge("pool").set(4)
    assert "repro_pool 4" in render_prometheus(reg.snapshot())


def test_bucket_upper_brackets_value():
    h = Histogram("x")
    h.observe(37.0)
    (idx,) = h.buckets
    assert bucket_upper(idx) >= 37.0
    assert bucket_upper(idx) / GROWTH <= 37.0


# ---------------------------------------------------------------------------
# Worker delta shipping: parallel totals must equal serial totals.
def _metered_task(x):
    reg = get_metrics()
    reg.counter("tasks_total").inc()
    h = reg.histogram("task_value")
    h.observe(float(x))
    h.observe(float(x) * 2.0)
    return x


def test_pmap_jobs2_matches_serial_totals():
    items = list(range(6))
    with metrics_scope() as serial_reg:
        serial = pmap(_metered_task, items, jobs=1)
    with metrics_scope() as par_reg:
        parallel = pmap(_metered_task, items, jobs=2)
    assert [r.value for r in serial] == [r.value for r in parallel]
    s, p = serial_reg.snapshot(), par_reg.snapshot()
    assert s["tasks_total"] == p["tasks_total"]
    assert s["task_value"]["count"] == p["task_value"]["count"]
    assert s["task_value"]["buckets"] == p["task_value"]["buckets"]
    assert s["task_value"]["sum"] == pytest.approx(p["task_value"]["sum"])


def test_pmap_without_registry_ships_no_metrics():
    assert get_metrics() is NULL_REGISTRY
    results = pmap(_metered_task, [1, 2, 3], jobs=2)
    assert all(r.ok for r in results)
    assert all(r.metrics is None for r in results)
