"""Cold-start probe: ``python -m perfbench.probe WORKLOAD``.

Runs one workload's set-up in a fresh interpreter (imports, pool
start, warm-up), prints ``ready`` and exits.  :func:`cold_starts`
times it from the spawn to that line, which is how ``setup_s`` is
defined for sweep-exact.
"""

from __future__ import annotations

import select
import subprocess
import sys
import time
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from perfbench.calib import HostSpeed

#: host samples after each cold start
HOST_SAMPLES = 4


def cold_starts(workload: str, samples: int, log: Any,
                host: HostSpeed) -> list[float]:
    """Seconds from spawning a probe to its ``ready`` line, per sample;
    the host is sampled ``HOST_SAMPLES`` times after each."""
    times = []
    for _ in range(samples):
        times.append(_cold_start(workload, log))
        host.sample(HOST_SAMPLES)
    return times


def _cold_start(workload: str, log: Any) -> float:
    """Seconds from spawning one probe to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.probe", workload],
        stdout=subprocess.PIPE, stderr=log,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline() if ready else b""
        took = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise RuntimeError(f"{workload} probe failed: {line!r}")
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return took


def main(workload: str) -> None:
    if workload == "sweep-exact":
        from perfbench.sweep_exact import setup
    else:
        raise SystemExit(f"no probe for {workload!r}")
    setup()
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
