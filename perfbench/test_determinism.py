"""Determinism self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Two short runs with the same seed must see byte-identical input
streams and produce identical verdicts, ``ok_ratio`` figures,
``ii_over_mii``, ``route_hops`` and (traced) program work counts; a
different seed must give a different stream.  The runs are short
(``--seconds 3``), so the whole test takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "3"


#: figures that must repeat exactly for the same code and seed
EXACT = {
    0: ("ok_ratio", "ii_over_mii", "route_hops"),
    1: ("mappers.routing_attempts", "mappers.candidates_explored",
        "mappers.backtracks", "solvers.conflicts", "solvers.decisions",
        "solvers.nodes", "solvers.restarts"),
}


def _run(workload: str, seed: int, trace: int) -> dict:
    """The input digest, verdict and exact figures of one short run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    header = next(line for line in lines if line.startswith("workload "))
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 1
    return {
        "digest": header.rsplit("inputs ", 1)[1],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: result["metrics"][name]["value"] for name in EXACT[trace]},
    }


@pytest.mark.parametrize("workload", ["serve-mix", "sweep-exact"])
def test_same_seed_same_stream_and_figures(workload):
    for trace in (0, 1):
        first = _run(workload, 101, trace)
        second = _run(workload, 101, trace)
        assert first == second
    other = _run(workload, 102, 0)
    assert other["digest"] != first["digest"]
