"""Reference edge rule and arc consistency for the adjacency model.

:func:`compatible` states the edge rule of
:mod:`repro.mappers.adjplace` for one slot pair; the production
encoders read it tabulated, from
:func:`repro.mappers.adjplace.edge_supports`, which the tests check
against it pair by pair.

:func:`revise_ac1` is the original AC-1 pass of the graph-minor mapper:
sweep every edge, filter both endpoint domains against each other with
:func:`compatible`, and repeat until a sweep changes nothing.
:func:`repro.mappers.adjplace.arc_consistent` (AC-3 with a worklist
and per-cell support tables) must return the same domains, in the
same order, and wipe out on the same inputs.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG, Edge
from repro.mappers import adjplace

__all__ = ["compatible", "revise_ac1"]


def compatible(
    cgra: CGRA, ii: int, e: Edge, lat: int,
    su: adjplace.Slot, sv: adjplace.Slot,
) -> bool:
    """May edge ``e`` connect producer slot ``su`` to consumer ``sv``?"""
    cu, tu = su
    cv, tv = sv
    delta = tv + e.dist * ii - tu - lat
    if delta < 0:
        return False
    if cu == cv:
        return True  # register-file holds bridge the gap
    return delta == 0 and cgra.has_link(cu, cv)


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
                    compatible(cgra, ii, e, lat[e.src], su, sv)
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
                    compatible(cgra, ii, e, lat[e.src], su, sv)
                    for su in doms[e.src]
                )
            ]
            if len(keep_v) != len(doms[e.dst]):
                doms[e.dst] = keep_v
                changed = True
                if not keep_v:
                    return None
    return doms
