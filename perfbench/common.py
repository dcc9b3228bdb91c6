"""Statistics, the result report, and the correctness check.

Everything here runs outside the timed regions.  The correctness
check holds every mapping a workload produced to the program's own
oracle chain (:mod:`repro.check.oracles`): the document must parse
back onto its problem, :meth:`Mapping.validate` must find no
violation, and a modulo mapping must compute exactly what the
sequential interpreter computes on seeded inputs.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.arch.cgra import CGRA
from repro.check.oracles import reference_outputs, sim_disagreement
from repro.core.mapping import Mapping
from repro.core.problem import MappingProblem
from repro.core.serialize import (
    dfg_from_doc, dfg_to_doc, fingerprint, mapping_from_doc, mapping_to_doc,
)
from repro.ir.dfg import DFG, Op
from repro.ir.interp import DFGInterpreter
from repro.sim.machine import simulate_mapping

#: iterations every modulo mapping is simulated for
SIM_ITERS = 8


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    # fsum is exact, so the result does not depend on the order in
    # which answers arrived
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the samples strictly above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(*, own: bool, children: bool) -> float:
    """Largest peak resident set (MB) among this process and/or its
    reaped children (Linux reports ``ru_maxrss`` in KiB)."""
    peaks = []
    if own:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return max(peaks) / 1024.0


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------
@dataclass
class Report:
    """What one run prints: metrics with units, notes, and the verdict."""

    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: digest of the run's seeded input stream
    digest: str = ""
    #: the host's speed over the run, as :mod:`perfbench.calib` saw it
    host: str = ""

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if note:
            self.notes[name] = note

    @property
    def correct(self) -> bool:
        return not self.problems

    def lines(self) -> list[str]:
        out = [f"workload {self.workload}, inputs {self.digest}"]
        if self.host:
            out.append(f"  host speed {self.host} to reference speed")
        for name, (value, unit) in self.metrics.items():
            note = self.notes.get(name)
            out.append(
                f"  {name:<36} {value:>14.6g} {unit:<6}"
                + (f"  ({note})" if note else "")
            )
        out.append(
            f"  attempted {self.attempted}, failed {self.failed},"
            f" correct {self.correct}"
        )
        out.extend(f"  CHECK FAILED: {p}" for p in self.problems[:20])
        return out

    def result(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def add_latency(report: Report, name: str, values: Sequence[float],
                q: float, what: str) -> None:
    """Report a percentile with the sample count behind it."""
    value, beyond = percentile(values, q)
    report.add(
        name, value, "ms",
        f"p{q:g} of {len(values)} {what}, {beyond} beyond",
    )


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------
def _memory_arrays(dfg: DFG) -> list[str]:
    return sorted({
        n.array for n in dfg.nodes()
        if n.op in (Op.LOAD, Op.STORE) and n.array is not None
    })


def sim_inputs(dfg: DFG, seed: int) -> tuple[dict, dict | None]:
    """Seeded input series (and array contents, for memory kernels).

    Memory kernels take their loop index as input, so they get the
    index series 1..n over arrays padded on both sides; everything
    else gets small signed values.
    """
    rng = random.Random(seed)
    names = [
        n.name for n in dfg.nodes()
        if n.op is Op.INPUT and n.name is not None
    ]
    arrays = _memory_arrays(dfg)
    if arrays:
        index = list(range(1, SIM_ITERS + 1))
        memory = {
            a: [rng.randint(-50, 50) for _ in range(SIM_ITERS + 2)]
            for a in arrays
        }
        return {name: list(index) for name in names}, memory
    return {
        name: [rng.randint(-8, 8) for _ in range(SIM_ITERS)]
        for name in names
    }, None


def mapping_problems(mapping: Mapping, original: DFG, seed: int) -> list[str]:
    """Oracle 1 and 2 for one mapping; an empty list means it conforms.

    ``original`` is the problem the caller asked for: the mapping may
    live on a ROUTE-split rewrite of it, and must still compute the
    original's outputs.
    """
    violations = mapping.validate(raise_on_error=False)
    if violations:
        return [f"invalid: {violations[0]}"]
    if mapping.kind != "modulo":
        return []
    inputs, memory = sim_inputs(original, seed)
    if memory is None:
        reference = reference_outputs(original, SIM_ITERS, inputs)
        delta = sim_disagreement(mapping, SIM_ITERS, inputs, reference)
    else:
        interp = DFGInterpreter(original, memory=memory)
        want = interp.run(SIM_ITERS, inputs)
        sim = simulate_mapping(mapping, SIM_ITERS, inputs, memory)
        delta = None
        if sim.outputs != want:
            delta = f"outputs {sim.outputs} != reference {want}"
        elif sim.memory != interp.memory:
            delta = "final memory differs from the reference"
    return [f"simulation: {delta}"] if delta else []


def doc_problems(
    doc: dict, dfg: DFG, cgra: CGRA, seed: int,
    dfg_doc: dict | None = None,
) -> tuple[Mapping | None, list[str]]:
    """Parse a returned mapping document and run the oracle chain.

    ``dfg_doc`` is the graph the mapping was made on when the mapper
    rewrote the caller's ``dfg``; by default the document must replay
    onto ``dfg`` itself.
    """
    try:
        host = dfg_from_doc(dfg_doc) if dfg_doc is not None else dfg
        mapping = mapping_from_doc(doc, host, cgra, validate=False)
    except ValueError as ex:
        return None, [f"unparseable mapping: {ex}"]
    return mapping, mapping_problems(mapping, dfg, seed)


def to_docs(mapping: Mapping, dfg: DFG, cgra: CGRA) -> tuple[dict, dict | None]:
    """A mapping as it would travel: its document, plus its graph's
    document when the mapper rewrote the requested ``dfg``."""
    doc = json.loads(json.dumps(mapping_to_doc(mapping)))
    if fingerprint(mapping.dfg, cgra) == fingerprint(dfg, cgra):
        return doc, None
    return doc, dfg_to_doc(mapping.dfg)


def ii_ratio(mapping: Mapping, dfg: DFG, cgra: CGRA) -> float:
    """II over MII; a spatial configuration issues every cycle (1.0)."""
    if mapping.kind != "modulo":
        return 1.0
    return mapping.ii / MappingProblem(dfg, cgra).mii
