"""Failure records, JSONL logging, and pytest reproducer emission.

A :class:`Divergence` is one oracle-chain failure, carrying everything
needed to regenerate it: the case coordinates (seed / generator family
/ arch / mapper), the phase that failed, the shrunk graph, and a
ready-to-paste pytest module source (:func:`emit_pytest`) that
rebuilds the graph node by node — independent of the generators, so
the reproducer stays valid even if :mod:`repro.ir.randdfg` changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.ir.dfg import DFG, Op

__all__ = [
    "Divergence",
    "dfg_builder_source",
    "emit_pytest",
    "renumber",
    "write_failure_log",
]


@dataclass
class Divergence:
    """One conformance failure (possibly already shrunk)."""

    seed: int
    family: str
    arch: str
    mapper: str
    cache_mode: str
    phase: str  # validate | sim | map-crash | sim-crash | relabel | ...
    detail: str
    dfg_pretty: str = ""
    shrunk_pretty: str = ""
    reproducer: str = ""
    n_iters: int = 4
    inputs: dict = field(default_factory=dict)

    def headline(self) -> str:
        return (
            f"{self.phase}: seed={self.seed} {self.family} on"
            f" {self.arch} via {self.mapper}: {self.detail}"
        )

    def to_record(self) -> dict:
        return asdict(self)


def write_failure_log(path: str, divergences: list[Divergence]) -> int:
    """Append one JSON object per divergence to ``path``; return count."""
    with open(path, "a", encoding="utf-8") as fh:
        for d in divergences:
            fh.write(json.dumps(d.to_record(), sort_keys=True) + "\n")
    return len(divergences)


# ---------------------------------------------------------------------------
# Reproducer emission
# ---------------------------------------------------------------------------
def renumber(dfg: DFG) -> DFG:
    """Rebuild ``dfg`` with dense sequential ids in topological order.

    Shrinking leaves holes in the id space; renumbering first means the
    reported graph and the emitted reproducer print identically.
    """
    out = DFG(dfg.name)
    ids: dict[int, int] = {}
    for nid in dfg.topo_order():
        node = dfg.node(nid)
        ids[nid] = out.add(
            node.op, name=node.name, value=node.value, array=node.array
        )
    for e in sorted(dfg.edges(), key=lambda e: (e.dst, e.port, e.src)):
        out.connect(ids[e.src], ids[e.dst], port=e.port, dist=e.dist)
    out.check()
    return out


def dfg_builder_source(dfg: DFG, var: str = "g") -> str:
    """Python source that rebuilds ``dfg`` node by node.

    Nodes are emitted in topological order with no operands, then every
    edge is connected explicitly — that way carried (dist>0) edges that
    point backwards need no special casing. Ids in the emitted source
    are the fresh ids ``DFG.add`` assigns; pass the graph through
    :func:`renumber` first if the printed ids must match.
    """
    lines = [f"{var} = DFG({dfg.name!r})"]
    names: dict[int, str] = {}
    for nid in dfg.topo_order():
        node = dfg.node(nid)
        names[nid] = f"n{nid}"
        kwargs = []
        if node.name is not None:
            kwargs.append(f"name={node.name!r}")
        if node.value is not None:
            kwargs.append(f"value={node.value!r}")
        if node.array is not None:
            kwargs.append(f"array={node.array!r}")
        kw = (", " if kwargs else "") + ", ".join(kwargs)
        lines.append(f"n{nid} = {var}.add(Op.{node.op.name}{kw})")
    for e in sorted(dfg.edges(), key=lambda e: (e.dst, e.port, e.src)):
        lines.append(
            f"{var}.connect({names[e.src]}, {names[e.dst]},"
            f" port={e.port}, dist={e.dist})"
        )
    lines.append(f"{var}.check()")
    return "\n".join(lines)


def emit_pytest(d: Divergence, dfg: DFG) -> str:
    """A self-contained pytest module reproducing the divergence.

    The generated test drives the full oracle chain: reference
    interpretation, mapping, validation, and (for modulo mappings)
    cycle-accurate simulation against the reference.
    """
    builder = "\n    ".join(dfg_builder_source(dfg).splitlines())
    inputs = json.dumps(d.inputs, sort_keys=True)
    test_name = f"test_seed{d.seed}_{d.mapper}_{d.phase.replace('-', '_')}"
    return f'''"""Shrunk reproducer: {d.phase} divergence.

Found by `repro fuzz` — seed {d.seed}, generator family {d.family!r},
arch {d.arch!r}, mapper {d.mapper!r}, cache {d.cache_mode}.
Failure: {d.detail}
"""

from repro.api import map_dfg
from repro.arch import presets
from repro.ir.dfg import DFG, Op
from repro.ir.interp import evaluate
from repro.sim.machine import simulate_mapping


def build_dfg() -> DFG:
    {builder}
    return g


def {test_name}():
    g = build_dfg()
    cgra = presets.by_name({d.arch!r})
    inputs = {inputs}
    n_iters = {d.n_iters}
    reference = evaluate(g, n_iters, inputs)
    mapping = map_dfg(g, cgra, mapper={d.mapper!r}, seed={d.seed!r})
    assert mapping.validate(raise_on_error=False) == []
    if mapping.kind == "modulo":
        sim = simulate_mapping(mapping, n_iters, inputs)
        assert sim.outputs == reference
'''
