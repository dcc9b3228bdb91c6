"""serve-mix: a ``repro serve --jobs 2`` daemon driven as a closed loop.

One client process, two connections, 8-request batches: each
connection sends its next batch only when the previous one has been
answered in full.  A request's latency runs from its batch's send to
its own response line.  The daemon caches to a fresh ``--cache-dir``
per run (``--cache`` alone keeps a memory tier per pool batch, so
repeats would never hit).

The traced run drives the same stream once more through a daemon for
the metrics only a daemon shows (wire time, worker busy time), then
replays it in process through ``map_batch(..., jobs=1)`` twice: once
plain and once with layer spans and the program's tracer on.
"""

from __future__ import annotations

import copy
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

from perfbench.calib import HostSpeed
from perfbench.common import (
    Report, doc_problems, geomean, ii_ratio, median, peak_rss_mb,
    percentile,
)
from perfbench.inputs import (
    BATCH, CONNECTIONS, SERVE_ARCHS, ServePlan, serve_plan,
)
from perfbench.layers import (
    arch_tables_ms, dispatch_us, plain_then_traced, report_layers,
)
from perfbench.spans import Spans

#: cold daemon starts per run, each followed by one timed round
ROUNDS = 4
#: host samples split each round's closed loop into this many parts
SEGMENTS = 8
JOBS = 2
#: no single batch may take longer than this (seconds)
IO_TIMEOUT = 120.0
#: the workload's seeded input plan
PLAN = serve_plan


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` subprocess, booted and warmed.

    ``setup_s`` runs from the spawn through the readiness line and the
    discarded warm-up batch, i.e. up to the first timed request.
    """

    def __init__(self, cache_dir: str, log: Any, warmup: list[dict]) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", str(JOBS),
             "--port", "0", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=log,
        )
        try:
            self.port = self._await_port()
            closed_loop(self.port, [_encode(warmup)], connections=1)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        found = re.search(r"listening on [\d.]+:(\d+)", line)
        if found is None:
            raise RuntimeError(f"serve did not come up: {line!r}")
        return int(found.group(1))

    def stop(self) -> None:
        """SIGTERM (drain, stop the pool), then wait for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _encode(batch: list[dict]) -> bytes:
    return json.dumps({"requests": batch}).encode() + b"\n"


def closed_loop(
    port: int, payloads: list[bytes], *, connections: int = CONNECTIONS
) -> tuple[float, list[tuple[float, list[tuple[float, bytes]], bytes]]]:
    """Send every batch, ``connections`` at a time, each connection
    waiting for its previous batch's summary line before the next.
    Connection ``c`` sends batches ``c, c + connections, ...``, so a
    batch is sent only after every earlier batch of its connection
    has been answered.

    Returns the wall time and, per batch, ``(round trip s, [(latency
    s, response line)], summary line)``.  Lines are parsed later, so
    the client spends as little of the shared CPUs as it can.
    """
    results: list[Any] = [None] * len(payloads)
    errors: list[BaseException] = []

    def client(first: int) -> None:
        try:
            with socket.create_connection(
                ("127.0.0.1", port), timeout=IO_TIMEOUT
            ) as sock, sock.makefile("rwb") as stream:
                for b in range(first, len(payloads), connections):
                    t0 = time.perf_counter()
                    stream.write(payloads[b])
                    stream.flush()
                    lines = []
                    while True:
                        line = stream.readline()
                        now = time.perf_counter()
                        if not line:
                            raise ConnectionError("serve closed mid-batch")
                        if line.startswith(b'{"batch"'):
                            results[b] = (now - t0, lines, line)
                            break
                        lines.append((now - t0, line))
        except BaseException as ex:  # reported by the caller
            errors.append(ex)

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(connections)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall, results


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------
class Answers:
    """Checks response documents against their requests (untimed)."""

    def __init__(self, plan: ServePlan, seed: int) -> None:
        from repro.arch import presets

        self.plan = plan
        self.seed = seed
        self.archs = {a: presets.by_name(a) for a in SERVE_ARCHS}
        self.requests = [r for b in plan.batches for r in b]
        self.origin = [o for b in plan.origin for o in b]
        #: (first occurrence, mapping) -> (mapping, problems, II/MII)
        self.memo: dict[tuple[int, str], tuple[Any, list[str], float]] = {}
        self.attempted = 0
        self.ok = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ratios: list[float] = []
        self.route_hops = 0

    def _dfg(self, req: dict):
        from repro.core.serialize import dfg_from_doc
        from repro.ir import kernels

        if "kernel" in req:
            return kernels.kernel(req["kernel"])
        return dfg_from_doc(req["dfg"])

    def add(self, pos: int, resp: dict) -> None:
        """Check the response to stream position ``pos``."""
        self.attempted += 1
        req = self.requests[pos]
        if not resp.get("ok"):
            self.failed += 1
            kind = resp.get("error", {}).get("type")
            if kind != "map_failure":
                self.problems.append(
                    f"request {pos}: {kind} error: {resp.get('error')}"
                )
            return
        key = (self.origin[pos], json.dumps(resp["mapping"], sort_keys=True))
        if key not in self.memo:
            dfg = self._dfg(req)
            cgra = self.archs[req["arch"]]
            mapping, bad = doc_problems(resp["mapping"], dfg, cgra, self.seed)
            ratio = ii_ratio(mapping, dfg, cgra) if mapping else 0.0
            self.memo[key] = (mapping, bad, ratio)
        mapping, bad, ratio = self.memo[key]
        if bad or resp.get("ii") != mapping.ii:
            self.failed += 1
            self.problems.extend(
                f"request {pos}: {b}" for b in bad or ["ii field disagrees"]
            )
            return
        self.ok += 1
        self.ratios.append(ratio)
        self.route_hops += mapping.route_step_count()

    def add_batches(self, batches: list) -> list[float]:
        """Check one closed loop's answers; returns the ``map_time`` (s)
        of every request that was mapped rather than repeated."""
        compile_s = []
        for b, (_rt, lines, _summary) in enumerate(batches):
            seen = set()
            for _lat, line in lines:
                resp = json.loads(line)
                pos = BATCH * b + resp["index"]
                seen.add(pos)
                self.add(pos, resp)
                if self.origin[pos] == pos and resp.get("ok"):
                    compile_s.append(max(resp["map_time_ms"], 1e-3) / 1000)
            if len(seen) != len(self.plan.batches[b]):
                self.attempted += len(self.plan.batches[b]) - len(seen)
                self.failed += len(self.plan.batches[b]) - len(seen)
                self.problems.append(f"batch {b}: answers missing")
        return compile_s

    def verdict(self, report: Report) -> None:
        """Record attempts and failures."""
        report.attempted += self.attempted
        report.failed += self.failed
        report.problems.extend(self.problems)

    def add_metrics(self, report: Report) -> None:
        report.add("ok_ratio", self.ok / self.attempted, "ratio",
                   f"{self.ok} of {self.attempted} answers carry a checked"
                   " mapping")
        report.add("ii_over_mii",
                   geomean(self.ratios) if self.ratios else 1.0, "ratio",
                   f"geomean over {len(self.ratios)} mappings")
        report.add("route_hops", self.route_hops, "count",
                   f"over {len(self.ratios)} mappings")


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------
def _segments(n: int) -> list[range]:
    """``SEGMENTS`` runs of batches, each starting on a multiple of
    ``CONNECTIONS`` so batch ``b`` stays on connection ``b % CONNECTIONS``."""
    step = -(-n // (SEGMENTS * CONNECTIONS)) * CONNECTIONS
    return [range(i, min(i + step, n)) for i in range(0, n, step)]


def _segmented_loop(
    host: HostSpeed, port: int, payloads: list[bytes]
) -> tuple[float, list]:
    """The closed loop in segments, the host sampled after each (the
    daemon is idle then); returns what :func:`closed_loop` returns."""
    wall, batches = 0.0, []
    for seg in _segments(len(payloads)):
        seg_wall, seg_batches = closed_loop(port, payloads[seg.start:seg.stop])
        host.sample()
        wall += seg_wall
        batches += seg_batches
    return wall, batches


def run(seed: int, seconds: int, work: str, log: Any) -> Report:
    """``ROUNDS`` rounds, each on a cold daemon with a fresh cache over
    the same stream; every timed figure is taken at reference host
    speed (:mod:`perfbench.calib`) and is the median over rounds."""
    report = Report("serve-mix")
    plan = serve_plan(seed, seconds)
    payloads = [_encode(b) for b in plan.batches]
    answers = Answers(plan, seed)
    setups, rps, p50, p99, compile_s, mapped = [], [], [], [], [], []
    with HostSpeed(log) as host:
        host.sample()
        for k in range(ROUNDS):
            daemon = Daemon(os.path.join(work, f"cache{k}"), log, plan.warmup)
            try:
                host.sample()
                setups.append(daemon.setup_s)
                wall, batches = _segmented_loop(host, daemon.port, payloads)
            finally:
                daemon.stop()
            latencies = [
                1000 * lat for _rt, lines, _s in batches for lat, _ in lines
            ]
            rps.append(len(latencies) / wall)
            p50.append(percentile(latencies, 50))
            p99.append(percentile(latencies, 99))
            compile_s.append(geomean(answers.add_batches(batches)))
            mapped.append(plan.uniques / wall)
        report.host = host.summary()
        factor = host.factor()

    # every time at reference host speed
    n = plan.requests
    report.add("setup_s", median(setups) * factor, "s",
               f"median of {ROUNDS} cold daemon starts")
    report.add("serve_rps", median(rps) / factor, "1/s",
               f"{n} requests per round, median of {ROUNDS} rounds")
    for name, values in (("serve_p50_ms", p50), ("serve_p99_ms", p99)):
        beyond = min(b for _v, b in values)
        report.add(name, median([v for v, _b in values]) * factor, "ms",
                   f"median of {ROUNDS} rounds of {n} requests,"
                   f" >= {beyond} beyond each")
    report.add("compile_s_geomean", median(compile_s) * factor, "s",
               "geomean map_time of first-time requests, median of"
               f" {ROUNDS} rounds")
    report.add("sweep_cells_per_s", median(mapped) / factor, "1/s",
               f"{plan.uniques} distinct problems mapped per second")
    answers.verdict(report)
    answers.add_metrics(report)
    report.add("peak_rss_mb", peak_rss_mb(own=False, children=True), "MB",
               "largest daemon or worker process")
    return report


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------
class _InlinePool:
    """The worker pool's stand-in for the in-process replay.

    Runs each task where it is called, the way a pool worker would: a
    fresh memory tier over the shared disk tier per batch, and one
    execution per distinct key.  Pool IPC is measured on its own, with
    a no-op ``pmap``.
    """

    def __init__(self, cache_dir: str, spans: Spans | None) -> None:
        self.cache_dir = cache_dir
        self.spans = spans

    def run_batch(self, fn, items, *, jobs, timeouts=None, keys=None,
                  on_result=None, **_unused):
        from repro.cache import MappingCache, set_cache
        from repro.parallel.tasks import run_task

        set_cache(MappingCache(self.cache_dir))
        results = []
        first: dict[Any, int] = {}
        for i, item in enumerate(items):
            key = keys[i] if keys is not None else None
            if key is not None and key in first:
                res = copy.deepcopy(results[first[key]])
                res.index, res.deduped = i, True
            else:
                if key is not None:
                    first[key] = i
                budget = timeouts[i] if timeouts is not None else None
                if self.spans is None:
                    res = run_task(fn, (item,), i, budget)
                else:
                    with self.spans.span("parallel.task"):
                        res = run_task(fn, (item,), i, budget)
            results.append(res)
            if on_result is not None:
                on_result(i, res)
        return results


@contextmanager
def _inline_pool(cache_dir: str, spans: Spans | None) -> Iterator[None]:
    import repro.serve.scheduler as scheduler
    from repro.cache import set_cache

    pool = _InlinePool(cache_dir, spans)
    original = scheduler.get_pool
    scheduler.get_pool = lambda jobs: pool
    previous = set_cache(None)
    try:
        yield
    finally:
        scheduler.get_pool = original
        set_cache(previous)


def _replay(plan: ServePlan, cache_dir: str, spans: Spans | None) -> list[list[bytes]]:
    """Validate and map every batch in process; returns response lines."""
    import repro.serve.protocol as protocol
    import repro.serve.scheduler as scheduler
    import repro.serve.validate as validate

    out: list[list[bytes]] = []
    with _inline_pool(cache_dir, spans):
        for batch in plan.batches:
            lines: list[bytes] = []
            prepared, bad = validate.validate_batch({"requests": batch})
            if bad:
                raise RuntimeError(f"request rejected: {bad[0][2]}")
            scheduler.map_batch(
                prepared, jobs=1,
                on_settle=lambda resp: lines.append(protocol.ndjson_line(resp)),
            )
            out.append(lines)
    return out


def run_traced(seed: int, seconds: int, work: str, log: Any) -> Report:
    report = Report("serve-mix")
    plan = serve_plan(seed, seconds)
    tables_ms = arch_tables_ms(SERVE_ARCHS)

    daemon = Daemon(os.path.join(work, "cache-daemon"), log, plan.warmup)
    try:
        wall, batches = closed_loop(daemon.port, [_encode(b) for b in plan.batches])
    finally:
        daemon.stop()
    wire, busy, overhead, dedup = [], 0.0, [], 0
    for rt, lines, summary in batches:
        wire.append(1000 * rt - json.loads(summary)["batch"]["elapsed_ms"])
        for _lat, line in lines:
            resp = json.loads(line)
            if resp.get("deduped"):
                dedup += 1
            elif resp.get("ok"):
                busy += resp["elapsed_ms"]
                overhead.append(resp["elapsed_ms"] - resp["map_time_ms"])
    extra = {
        "serve.wire_ms": (median(wire),
                          f"median over {len(wire)} batches"),
        "serve.dedup_ratio": (dedup / plan.requests,
                              f"{dedup} of {plan.requests} requests"),
        "parallel.task_overhead_ms": (
            sum(overhead) / len(overhead),
            f"elapsed - map_time, mean of {len(overhead)} tasks"),
        "parallel.worker_busy_ratio": (
            busy / 1000 / (JOBS * wall), f"over {wall:.2f} s"),
        "parallel.dispatch_us": dispatch_us(JOBS, BATCH, 30),
    }

    traced = plain_then_traced(
        lambda spans: _replay(
            plan, os.path.join(work, "traced" if spans is not None else "plain"), spans
        )
    )
    answers = Answers(plan, seed)
    answers.add_batches([(0.0, [(0.0, line) for line in lines], b"")
                         for lines in traced.result])
    answers.verdict(report)
    report_layers(
        report, traced, tables_ms=tables_ms, extra=extra,
        responses=[line for lines in traced.result for line in lines],
    )
    return report
