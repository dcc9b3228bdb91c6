"""Reference arc consistency for the adjacency-placement model.

:func:`revise_ac1` is the original AC-1 pass of the graph-minor mapper:
sweep every edge, filter both endpoint domains against each other with
:func:`repro.mappers.adjplace.compatible`, and repeat until a sweep
changes nothing.  :func:`repro.mappers.adjplace.arc_consistent` (AC-3
with a worklist and per-cell support tables) must return the same
domains, in the same order, and wipe out on the same inputs.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG
from repro.mappers import adjplace

__all__ = ["revise_ac1"]


def revise_ac1(
    dfg: DFG, cgra: CGRA, ii: int, domains: dict[int, list[adjplace.Slot]]
) -> dict[int, list[adjplace.Slot]] | None:
    """Arc-consistent domains by repeated full sweeps; None on wipe-out."""
    edges = adjplace.real_edges(dfg)
    lat = {nid: dfg.node(nid).op.latency for nid in domains}
    doms = {n: list(d) for n, d in domains.items()}
    changed = True
    while changed:
        changed = False
        for e in edges:
            keep_u = [
                su
                for su in doms[e.src]
                if any(
                    adjplace.compatible(cgra, ii, e, lat[e.src], su, sv)
                    for sv in doms[e.dst]
                )
            ]
            if len(keep_u) != len(doms[e.src]):
                doms[e.src] = keep_u
                changed = True
                if not keep_u:
                    return None
            keep_v = [
                sv
                for sv in doms[e.dst]
                if any(
                    adjplace.compatible(cgra, ii, e, lat[e.src], su, sv)
                    for su in doms[e.src]
                )
            ]
            if len(keep_v) != len(doms[e.dst]):
                doms[e.dst] = keep_v
                changed = True
                if not keep_v:
                    return None
    return doms
