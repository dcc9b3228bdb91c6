"""Host speed calibration: ``python -m perfbench.calib CPU``.

The benchmark's box is a few CPUs of a shared host whose speed swings
by a quarter or more over tens of seconds (``NOTES.md``, Noise).  A
wall time taken on it measures the program and the host's current
speed together.  :class:`HostSpeed` measures the second part on its
own: one calibrator process per CPU, each pinned to its CPU, runs a
fixed pure-Python reference task when asked and reports how long it
took.  The benchmark samples all CPUs at once many times over a run,
between timed intervals while the program is idle, and scales every
wall time of the run by ``REFERENCE_S`` over the median sample: a
time "at reference speed".  One factor per run, from the median of
many samples, follows the slow swings (the ones that move a whole
run) without adding the sub-second jitter of single samples.  The
reference task uses only the standard library, so a change to the
program cannot change it.
"""

from __future__ import annotations

import copy
import difflib
import functools
import heapq
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Any

#: about the median sample (one reference task on both CPUs at once)
#: on the 2-CPU box the bounds were set on; it reads as speed 1.0
REFERENCE_S = 0.060
#: at most this many CPUs are sampled
MAX_CPUS = 8
#: grid side of the reference task's shortest-path searches
_GRID = 24

@functools.lru_cache(maxsize=None)
def _inputs() -> tuple[list[dict], list[int], list[int], list[int]]:
    """The reference task's fixed inputs, built once per calibrator
    (not at import: cold starts import this module)."""
    rng = random.Random(7)
    records = [
        {"id": i, "name": f"n{i}",
         "edges": [(rng.randrange(2000), rng.random()) for _ in range(4)],
         "tags": {"k": i % 7, "v": [i, i + 1]}}
        for i in range(600)
    ]
    seq_a = [rng.randrange(60) for _ in range(700)]
    seq_b = [x if rng.random() < 0.8 else rng.randrange(60) for x in seq_a]
    keys = [rng.randrange(1 << 30) for _ in range(40000)]
    return records, seq_a, seq_b, keys


def _shortest_paths() -> int:
    """Heap-driven shortest paths over a grid graph held in dicts and
    tuples, then sorting and string building."""
    n = _GRID
    adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    for x in range(n):
        for y in range(n):
            out = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                u, v = x + dx, y + dy
                if 0 <= u < n and 0 <= v < n:
                    out.append(((u, v), 1 + (x * 7 + y * 13 + u) % 5))
            adj[(x, y)] = out
    total = 0
    for src in ((0, 0), (n - 1, 0), (n // 2, n // 2), (0, n - 1)):
        dist = {src: 0}
        heap = [(0, src)]
        done: set[tuple[int, int]] = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for nxt, w in adj[node]:
                nd = d + w
                if nd < dist.get(nxt, 1 << 30):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
        ranked = sorted(dist.items(), key=lambda kv: (kv[1], kv[0]))
        total += sum(d for _n, d in ranked[: n * 4])
        total += len(",".join(f"{x}.{y}" for (x, y), _d in ranked[:64]))
    return total


def reference_task() -> int:
    """Fixed interpreter work of the kinds the program does, over a
    working set of a few MB: shortest paths, a deep copy and a JSON
    round trip of nested records, sequence matching, a large dict and
    a heap."""
    records, seq_a, seq_b, keys = _inputs()
    total = _shortest_paths()
    total += len(json.loads(json.dumps(copy.deepcopy(records))))
    matcher = difflib.SequenceMatcher(None, seq_a, seq_b, autojunk=False)
    total += int(1000 * matcher.ratio())
    index = {k: i for i, k in enumerate(keys)}
    for k in keys[::2]:
        total += index[k] & 1
    heap = [(k % 997, k) for k in keys[:8000]]
    heapq.heapify(heap)
    while heap:
        total ^= heapq.heappop(heap)[1]
    return total


def _serve(cpu: int) -> None:
    """Calibrator loop: one reference task per ``go`` line on stdin."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass
    reference_task()  # warm-up
    for line in sys.stdin:
        if line.strip() != "go":
            break
        t0 = time.perf_counter()
        reference_task()
        print(f"{time.perf_counter() - t0:.9f}", flush=True)


class HostSpeed:
    """The pinned calibrators of one run; a context manager that stops
    and waits for every one of them on the way out."""

    def __init__(self, log: Any) -> None:
        cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS]
        self.procs: list[subprocess.Popen] = []
        self.samples: list[float] = []
        try:
            for cpu in cpus:
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "perfbench.calib", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=log,
                ))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples, each the mean seconds per reference
        task over every CPU at once (larger means a slower host)."""
        for _ in range(count):
            for proc in self.procs:
                proc.stdin.write(b"go\n")
                proc.stdin.flush()
            took = []
            for proc in self.procs:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("a calibrator exited")
                took.append(float(line))
            self.samples.append(sum(took) / len(took))

    def factor(self) -> float:
        """What takes a wall time measured in this run to reference
        speed: ``REFERENCE_S`` over the median of the run's samples."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []

    def summary(self) -> str:
        """One line on the host's speed over the run."""
        speeds = sorted(REFERENCE_S / s for s in self.samples)
        return (f"{speeds[0]:.2f}-{speeds[-1]:.2f} x reference over"
                f" {len(speeds)} samples, median task"
                f" {1000 * statistics.median(self.samples):.3f} ms, times"
                f" x {self.factor():.4f}")


if __name__ == "__main__":
    _serve(int(sys.argv[1]))
