"""Shared machinery for spatial (binding-only) mappers.

A spatial mapping dedicates one cell per operation — FPGA-style fully
pipelined dataflow (§II-B "spatial computation").  What varies between
the spatial mappers is how the binding is chosen; routing is common: a
value crossing non-adjacent cells claims a chain of *free* cells as
dedicated routers, each carrying exactly one value for the whole
execution.

:func:`route_spatial` performs that routing (BFS per edge, longest
edges first, fan-out shares allowed); :func:`spatial_cost` is the
wirelength + congestion objective the meta-heuristics minimise;
:func:`finalize` bundles binding + routing into a candidate
:class:`~repro.core.mapping.Mapping` for the mapper's attempt loop
(:meth:`~repro.core.mapper.Mapper.first_valid`), which validates it.
"""

from __future__ import annotations

import random
from collections import deque

from repro.arch.cgra import CGRA
from repro.arch.tec import ROUTE, Step
from repro.core.mapping import Mapping
from repro.ir.dfg import DFG, Edge
from repro.mappers.routecore import CellClaims, negotiate_spatial

__all__ = [
    "route_spatial",
    "route_spatial_partial",
    "route_negotiated",
    "negotiation_nets",
    "spatial_cost",
    "incident_edges",
    "finalize",
    "random_binding",
    "candidate_cells",
]


def candidate_cells(dfg: DFG, cgra: CGRA, nid: int) -> list[int]:
    """Cells that can host ``nid`` (memoized per opcode on the CGRA)."""
    return list(cgra.supporting_cells(dfg.node(nid).op))


def random_binding(
    dfg: DFG, cgra: CGRA, rng: random.Random
) -> dict[int, int] | None:
    """A random injective binding respecting op support, or None."""
    binding: dict[int, int] = {}
    used: set[int] = set()
    nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
    # Most-constrained ops first (fewest candidate cells).
    nodes.sort(key=lambda n: len(candidate_cells(dfg, cgra, n)))
    for nid in nodes:
        options = [c for c in candidate_cells(dfg, cgra, nid) if c not in used]
        if not options:
            return None
        cell = rng.choice(options)
        binding[nid] = cell
        used.add(cell)
    return binding


def _routable_edges(dfg: DFG) -> list[Edge]:
    return [
        e
        for e in dfg.edges()
        if not dfg.node(e.src).op.is_pseudo
        and not dfg.node(e.dst).op.is_pseudo
    ]


def spatial_cost(dfg: DFG, cgra: CGRA, binding: dict[int, int]) -> float:
    """Wirelength proxy: sum over edges of (hop distance - 1)+.

    Zero when every edge connects adjacent (or identical) cells — i.e.
    no route cells are needed at all.
    """
    total = 0.0
    for e in _routable_edges(dfg):
        src, dst = binding[e.src], binding[e.dst]
        if src == dst:
            continue
        total += max(0, cgra.distance(src, dst) - 1)
    return total


def incident_edges(dfg: DFG) -> dict[int, list[Edge]]:
    """Routable edges grouped by endpoint node.

    Lets a move-based search recompute only the cost terms its moved
    ops touch (the :func:`spatial_cost` summand is per-edge, so a move
    changes exactly the edges incident to the moved ops).
    """
    table: dict[int, list[Edge]] = {}
    for e in _routable_edges(dfg):
        table.setdefault(e.src, []).append(e)
        if e.dst != e.src:
            table.setdefault(e.dst, []).append(e)
    return table


def route_spatial_partial(
    dfg: DFG,
    cgra: CGRA,
    binding: dict[int, int],
    *,
    stop_on_fail: bool = False,
) -> tuple[dict[Edge, list[Step]], list[Edge]]:
    """Route what routes; report the edges that would not.

    Same algorithm and edge order as :func:`route_spatial`, but instead
    of bailing at the first unroutable edge it records that edge and
    keeps going, so a repair loop can learn *every* problem spot from
    one routing attempt (the clustered placer escalates those edges'
    weights and re-anneals).  ``stop_on_fail=True`` restores the
    bail-early behaviour for callers that only need a yes/no.
    """
    op_cells = set(binding.values())
    # Shared spatial-claims structure (repro.mappers.routecore): one
    # value per route cell, fan-out refcounted — the same bookkeeping
    # the negotiated engine uses, so cluster's repair loop and
    # negotiation agree on what "claimed" means.
    claims = CellClaims(cgra.n_cells)
    routes: dict[Edge, list[Step]] = {}
    failed: list[Edge] = []

    for e in negotiation_nets(dfg, cgra, binding):
        src, dst = binding[e.src], binding[e.dst]

        def usable(cell: int, value: int) -> bool:
            return cell not in op_cells and claims.exclusive(cell, value)

        # BFS from src's neighbours to a cell adjacent to dst.
        prev: dict[int, int] = {}
        q = deque()
        for n in cgra.neighbors_out(src):
            if usable(n, e.src) and n not in prev:
                prev[n] = -1
                q.append(n)
        goal = None
        while q:
            cur = q.popleft()
            if cgra.has_link(cur, dst):
                goal = cur
                break
            for n in cgra.neighbors_out(cur):
                if usable(n, e.src) and n not in prev:
                    prev[n] = cur
                    q.append(n)
        if goal is None:
            failed.append(e)
            if stop_on_fail:
                return routes, failed
            continue
        chain: list[int] = []
        cur = goal
        while cur != -1:
            chain.append(cur)
            cur = prev[cur]
        chain.reverse()
        claims.claim_path(chain, e.src)
        routes[e] = [Step(cell, i, ROUTE) for i, cell in enumerate(chain)]
    return routes, failed


def negotiation_nets(
    dfg: DFG, cgra: CGRA, binding: dict[int, int]
) -> list[Edge]:
    """The nets negotiated routing must route, longest first.

    Routable edges whose endpoints are neither the same cell nor
    linked directly, sorted by decreasing hop distance (hardest
    first).
    """
    edges = [
        e
        for e in _routable_edges(dfg)
        if binding[e.src] != binding[e.dst]
        and not cgra.has_link(binding[e.src], binding[e.dst])
    ]
    edges.sort(
        key=lambda e: -cgra.distance(binding[e.src], binding[e.dst])
    )
    return edges


def route_negotiated(
    dfg: DFG, cgra: CGRA, binding: dict[int, int]
) -> dict[Edge, list[Step]] | None:
    """PathFinder-style negotiated routing; None if it cannot converge.

    The greedy router (:func:`route_spatial_partial`) claims cells
    first-come-first-served, so a perfectly routable placement can
    still fail on ordering artifacts.  This router negotiates instead,
    with the classic rip-up-and-reroute loop: occupancy is persistent
    across iterations, each edge is ripped up and re-routed by
    Dijkstra against *everyone else's current path*, sharing a cell
    between different values is allowed but increasingly expensive
    (present congestion grows each iteration; cells that stay
    contested accumulate history cost).  Converged means no cell
    carries two values — the same legality :func:`route_spatial`
    enforces, including fan-out sharing within one value.

    Runs on the flat-array core
    (:func:`repro.mappers.routecore.negotiate_spatial`: CSR adjacency,
    Dial bucket queue, generation-stamped scratch) with its incremental
    schedule: after the first iteration only the nets whose current
    path crosses an overused cell are re-routed.  Legality and
    convergence checks are those of the full re-route schedule, but
    intermediate routes may differ from it (see DESIGN.md §13).
    """
    return negotiate_spatial(
        cgra, binding, negotiation_nets(dfg, cgra, binding)
    )


def route_spatial(
    dfg: DFG, cgra: CGRA, binding: dict[int, int]
) -> dict[Edge, list[Step]] | None:
    """Claim route cells for every non-adjacent edge; None on failure.

    Route cells must be free of operations and carry one value each;
    edges of the same value may share cells (fan-out).  Edges are
    routed longest-first (hardest first), each by BFS over usable
    cells.
    """
    routes, failed = route_spatial_partial(
        dfg, cgra, binding, stop_on_fail=True
    )
    return None if failed else routes


def finalize(
    dfg: DFG, cgra: CGRA, binding: dict[int, int]
) -> Mapping | None:
    """Route the binding into a candidate Mapping; None if it does not
    route.  Validation is the caller's attempt loop's
    (:meth:`repro.core.mapper.Mapper.first_valid`)."""
    routes = route_spatial(dfg, cgra, binding)
    if routes is None:
        return None
    return Mapping(
        dfg,
        cgra,
        kind="spatial",
        binding=dict(binding),
        routes=routes,
    )
