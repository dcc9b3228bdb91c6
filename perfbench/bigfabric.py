"""Big-fabric chains: serial in-process ``cluster`` compiles of long chains.

sweep-exact's traced run replays one pass of these compiles, so the
per-layer metrics of the big-fabric placer (partition, annealing,
negotiated routing) and of the 16x16 and 32x32 fabrics' tables are
measured.  They are not a workload of their own: a serial compile
takes the host CPU's swings in speed in full, and their run-to-run
spread exceeded every bound the benchmark may set (NOTES.md).
"""

from __future__ import annotations

from typing import Any

from perfbench.common import Report, doc_problems, to_docs
from perfbench.inputs import WARMUP_CHAIN, ChainPlan

FABRICS = ("simple16x16", "simple32x32")


def setup() -> dict[str, Any]:
    """Both fabrics, their tables and one small compile on each."""
    from repro.arch import presets
    from repro.core.registry import create
    from repro.ir import kernels

    fabrics = {name: presets.by_name(name) for name in FABRICS}
    for cgra in fabrics.values():
        create("cluster").map(kernels.kernel(f"layered:{WARMUP_CHAIN}:1:1"), cgra)
    return fabrics


def compile_pass(plan: ChainPlan, fabrics: dict, order: list[int]) -> list[Any]:
    """One pass: the mapping of every problem, in problem order."""
    from repro.core.registry import create
    from repro.ir import kernels

    out: list[Any] = [None] * len(plan.problems)
    for i in order:
        fabric, spec = plan.problems[i]
        out[i] = create("cluster").map(kernels.kernel(spec), fabrics[fabric])
    return out


def check(report: Report, plan: ChainPlan, fabrics: dict,
          mappings: list[Any]) -> None:
    """Round-trip every mapping through its document and validate it."""
    from repro.ir import kernels

    for (fabric, spec), mapping in zip(plan.problems, mappings):
        report.attempted += 1
        dfg, cgra = kernels.kernel(spec), fabrics[fabric]
        doc, host = to_docs(mapping, dfg, cgra)
        _parsed, bad = doc_problems(doc, dfg, cgra, plan.check_seed, host)
        if bad:
            report.failed += 1
            report.problems.extend(f"{spec} on {fabric}: {b}" for b in bad)
