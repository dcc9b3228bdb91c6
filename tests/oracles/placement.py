"""Scan-based reference for PlacementState's incrementally kept edge state.

:class:`repro.mappers.construct.PlacementState` keeps ``pending`` (the
real edges placed at both ends but not routed) and ``route_len`` (the
total route length) up to date move by move.  These functions derive
the same two facts the original way — a full scan of the DFG's edges
and of the routes — so ``tests/mappers/test_delta_undo.py`` can check
the incremental values after every mutation and every rollback.
"""

from __future__ import annotations

from repro.ir.dfg import Edge

__all__ = ["route_len_scan", "unrouted_edges_scan"]


def unrouted_edges_scan(state) -> list[Edge]:
    """Real edges with both endpoints placed but no route, in
    ``dfg.edges()`` order."""
    dfg = state.dfg
    return [
        e for e in dfg.edges()
        if e.src in state.binding
        and e.dst in state.binding
        and e not in state.routes
        and not dfg.node(e.src).op.is_pseudo
        and not dfg.node(e.dst).op.is_pseudo
    ]


def route_len_scan(state) -> int:
    """Total step count over every committed route."""
    return sum(len(steps) for steps in state.routes.values())
