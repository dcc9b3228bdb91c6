"""The constructive mapping engine.

Most published heuristics share one skeleton: walk the operations in
some priority order; for each, scan candidate ``(cell, cycle)`` slots
in some preference order; commit the first slot from which every edge
to an already-placed endpoint can be routed; fail (for this II) when an
operation has no feasible slot.  What distinguishes EMS from a plain
list scheduler from UltraFast is *which* order and *which* preference —
so those arrive as parameters, and the mapper modules are thin.

:class:`PlacementState` is the mutable working set (occupancy, partial
binding/schedule/routes) with transactional ``place``/``unplace`` so
simulated-annealing mappers can reuse it for rip-up-and-reroute moves.
For annealing loops it also keeps an optional **delta-undo journal**
(:meth:`begin_undo` / :meth:`mark` / :meth:`undo_to` / :meth:`commit`):
every mutation appends its inverse, so rejecting a move replays a few
inverse operations instead of deep-copying occupancy, binding,
schedule, and routes on every move.

The state reads the DFG through :class:`EdgeTables` — the real edges
(neither endpoint pseudo) with their indices, each node's routable
incident edges, and each node's latency — built once per DFG revision
by :func:`edge_tables`, not once per state.  Occupancy, binding,
schedule and routes are the primary state; ``pending`` (real edges
placed at both ends with no route, by index) and ``route_len`` (total
route steps) are derived from them and kept current by every mutation
and every journal replay, touching only the moved op's edges, so
neither :meth:`PlacementState.unrouted_edges` nor an annealer's cost
rescans the graph.
"""

from __future__ import annotations

import random
import weakref
from typing import Callable, Iterable, Sequence

from repro.arch.cgra import CGRA
from repro.arch.tec import Step
from repro.core.mapping import Mapping
from repro.core.resources import Occupancy
from repro.ir.dfg import DFG, Edge
from repro.mappers.routing import (
    Router,
    RouteRequest,
    commit_route,
    release_route,
)
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    ROUTING_ATTEMPTS,
    get_tracer,
)

__all__ = [
    "EdgeTables",
    "PlacementState",
    "default_candidates",
    "edge_tables",
    "greedy_construct",
]


class EdgeTables:
    """What :class:`PlacementState` needs to know about a DFG's edges.

    * ``edges`` — the real edges (neither endpoint pseudo), in
      ``dfg.edges()`` order; an edge's position is its *index*, and
      ``index`` maps each real edge back to it;
    * ``ins[nid]`` — ``(src, edge, index)`` for every in-edge of
      ``nid`` from a non-pseudo source; ``outs[nid]`` — ``(dst, edge,
      index)`` for every out-edge to a non-pseudo destination other
      than ``nid`` itself; ``adj[nid]`` — the two concatenated, which
      are the edges a placement of ``nid`` routes once the other
      endpoint is placed.  ``index`` is None only when ``nid`` is
      itself pseudo (its edges are then not real);
    * ``latency[nid]`` — the node's op latency.
    """

    __slots__ = ("edges", "index", "ins", "outs", "adj", "latency")

    def __init__(self, dfg: DFG) -> None:
        pseudo = {n.nid for n in dfg.nodes() if n.op.is_pseudo}
        self.latency = {n.nid: n.op.latency for n in dfg.nodes()}
        self.edges = [
            e for e in dfg.edges()
            if e.src not in pseudo and e.dst not in pseudo
        ]
        self.index = {e: i for i, e in enumerate(self.edges)}
        idx = self.index.get
        self.ins = {
            nid: tuple(
                (e.src, e, idx(e))
                for e in dfg.in_edges(nid) if e.src not in pseudo
            )
            for nid in dfg
        }
        self.outs = {
            nid: tuple(
                (e.dst, e, idx(e))
                for e in dfg.out_edges(nid)
                if e.dst not in pseudo and e.dst != nid
            )
            for nid in dfg
        }
        self.adj = {nid: self.ins[nid] + self.outs[nid] for nid in dfg}


_TABLES: weakref.WeakKeyDictionary[DFG, tuple[int, EdgeTables]] = (
    weakref.WeakKeyDictionary()
)


def edge_tables(dfg: DFG) -> EdgeTables:
    """``dfg``'s :class:`EdgeTables`, rebuilt only when the graph changed.

    Mappers that build a state per attempt or per episode share one
    set of tables per DFG revision instead of paying for it each time.
    """
    hit = _TABLES.get(dfg)
    if hit is not None and hit[0] == dfg.revision:
        return hit[1]
    tables = EdgeTables(dfg)
    _TABLES[dfg] = (dfg.revision, tables)
    return tables


class PlacementState:
    """Partial mapping under construction for one II.

    Besides occupancy, binding, schedule and routes it keeps two derived
    values up to date as moves happen, so nothing rescans the DFG:
    ``pending`` — the indices (see :class:`EdgeTables`) of the real
    edges whose endpoints are both placed but which have no route yet —
    and ``route_len`` — the total step count over ``routes``.
    """

    def __init__(
        self, dfg: DFG, cgra: CGRA, ii: int, *, allow_hold: bool = True
    ) -> None:
        self.dfg = dfg
        self.cgra = cgra
        self.ii = ii
        self.occ = Occupancy(cgra, ii)
        self.router = Router(cgra, allow_hold=allow_hold)
        self.binding: dict[int, int] = {}
        self.schedule: dict[int, int] = {}
        self.routes: dict[Edge, list[Step]] = {}
        self.pending: set[int] = set()
        self.route_len = 0
        self._tables = edge_tables(dfg)
        # Delta-undo journal: None until begin_undo() enables it.
        self._undo: list[tuple] | None = None
        # Captured once: a PlacementState lives within one mapper run,
        # so the active tracer cannot change under it.
        self._tracer = get_tracer()

    # -- delta-undo journal --------------------------------------------
    def begin_undo(self) -> None:
        """Start journaling mutations so they can be rolled back."""
        self._undo = []

    def mark(self) -> int:
        """A rollback point for :meth:`undo_to` (journal must be on)."""
        assert self._undo is not None, "begin_undo() first"
        return len(self._undo)

    def undo_to(self, mark: int) -> None:
        """Replay inverse operations until the journal shrinks to ``mark``.

        Each entry is undone in the state it was recorded in (later
        entries are already gone), so ``pending`` follows directly: an
        op's edges to placed neighbours are unrouted when it appears
        and leave with it, and a route's edge is pending without it.
        """
        undo = self._undo
        assert undo is not None
        adj = self._tables.adj
        pending = self.pending
        binding = self.binding
        while len(undo) > mark:
            entry = undo.pop()
            kind = entry[0]
            if kind == "op+":
                _, nid, cell, t = entry
                self.occ.release_op(cell, t)
                del binding[nid], self.schedule[nid]
                for _, _, i in adj[nid]:
                    pending.discard(i)
            elif kind == "op-":
                _, nid, cell, t = entry
                self.occ.place_op(nid, cell, t)
                binding[nid] = cell
                self.schedule[nid] = t
                for other, _, i in adj[nid]:
                    if i is not None and other in binding:
                        pending.add(i)
            elif kind == "rt+":
                _, e, i, req, steps = entry
                release_route(self.occ, self.cgra, req, steps)
                del self.routes[e]
                self.route_len -= len(steps)
                if i is not None:
                    pending.add(i)
            else:  # "rt-"
                _, e, i, req, steps = entry
                commit_route(self.occ, self.cgra, req, steps)
                self.routes[e] = steps
                self.route_len += len(steps)
                pending.discard(i)

    def commit(self) -> None:
        """Accept everything journaled so far (the log is cleared)."""
        assert self._undo is not None
        self._undo.clear()

    # ------------------------------------------------------------------
    def _edge_request(self, e: Edge) -> RouteRequest:
        return RouteRequest(
            value=e.src,
            src_cell=self.binding[e.src],
            t_emit=self.schedule[e.src] + self._tables.latency[e.src] - 1,
            dst_cell=self.binding[e.dst],
            t_consume=self.schedule[e.dst] + e.dist * self.ii,
        )

    def _routable_edges_of(
        self, nid: int
    ) -> list[tuple[Edge, int | None]]:
        """``(edge, index)`` for ``nid``'s edges to placed neighbours."""
        binding = self.binding
        return [
            (e, i) for other, e, i in self._tables.adj[nid]
            if other in binding
        ]

    def _route_all(
        self, nid: int
    ) -> list[tuple[Edge, int | None, RouteRequest, list[Step]]] | None:
        """Route every edge from the just-bound ``nid`` to its placed
        neighbours, all or nothing.

        Returns the committed ``(edge, index, request, steps)`` list, or
        None after releasing whatever was committed when some edge has
        no route.  ``nid``'s own slot is the caller's to take back.  The
        new routes leave ``pending`` as it was: ``nid`` was unplaced, so
        none of its edges were pending.
        """
        tracer = self._tracer
        committed = []
        added = 0
        for e, i in self._routable_edges_of(nid):
            req = self._edge_request(e)
            tracer.count(ROUTING_ATTEMPTS)
            steps = self.router.find(self.occ, req)
            if steps is None:
                tracer.count(BACKTRACKS)
                for ce, _, creq, csteps in committed:
                    release_route(self.occ, self.cgra, creq, csteps)
                    del self.routes[ce]
                return None
            commit_route(self.occ, self.cgra, req, steps)
            self.routes[e] = steps
            committed.append((e, i, req, steps))
            added += len(steps)
        self.route_len += added
        return committed

    def place(self, nid: int, cell: int, t: int) -> bool:
        """Try to place ``nid`` at ``(cell, t)`` and route its edges.

        Atomic: on any failure the state is unchanged.
        """
        node = self.dfg.node(nid)
        if t < 0 or not self.cgra.cell(cell).supports(node.op):
            return False
        if not self.occ.can_place_op(cell, t):
            return False
        self.occ.place_op(nid, cell, t)
        self.binding[nid] = cell
        self.schedule[nid] = t
        committed = self._route_all(nid)
        if committed is None:
            self.occ.release_op(cell, t)
            del self.binding[nid], self.schedule[nid]
            return False
        if self._undo is not None:
            self._undo.append(("op+", nid, cell, t))
            for ce, ci, creq, csteps in committed:
                self._undo.append(("rt+", ce, ci, creq, csteps))
        return True

    def place_loose(self, nid: int, cell: int, t: int) -> bool:
        """Place ``nid`` if its FU slot is free, routing edges best-effort.

        Unlike :meth:`place`, edges that cannot be routed right now are
        left pending (see :meth:`unrouted_edges`) instead of rolling
        the placement back — the accounting simulated-annealing mappers
        (DRESC-style) need, where infeasible intermediate states are
        part of the walk and are penalised by the cost function.
        """
        node = self.dfg.node(nid)
        if t < 0 or not self.cgra.cell(cell).supports(node.op):
            return False
        if not self.occ.can_place_op(cell, t):
            return False
        self.occ.place_op(nid, cell, t)
        self.binding[nid] = cell
        self.schedule[nid] = t
        if self._undo is not None:
            self._undo.append(("op+", nid, cell, t))
        for e, i in self._routable_edges_of(nid):
            if i is not None:
                self.pending.add(i)
            self._try_route(e, i)
        return True

    def try_route(self, e: Edge) -> bool:
        """Attempt to route one pending edge; both endpoints must be placed."""
        return self._try_route(e, self._tables.index.get(e))

    def _try_route(self, e: Edge, i: int | None) -> bool:
        if e in self.routes:
            return True
        req = self._edge_request(e)
        if req.t_consume < req.t_emit + 1:
            return False  # timing violation: no path can fix this
        self._tracer.count(ROUTING_ATTEMPTS)
        steps = self.router.find(self.occ, req)
        if steps is None:
            return False
        commit_route(self.occ, self.cgra, req, steps)
        self.routes[e] = steps
        self.route_len += len(steps)
        self.pending.discard(i)
        if self._undo is not None:
            self._undo.append(("rt+", e, i, req, steps))
        return True

    def unrouted_edges(self) -> list[Edge]:
        """Routable edges with both endpoints placed but no route yet,
        in ``dfg.edges()`` order."""
        edges = self._tables.edges
        return [edges[i] for i in sorted(self.pending)]

    def unplace(self, nid: int) -> None:
        """Remove ``nid`` and the routes of its placed edges."""
        cell, t = self.binding[nid], self.schedule[nid]
        for e, i in self._routable_edges_of(nid):
            if e in self.routes:
                req = self._edge_request(e)
                steps = self.routes.pop(e)
                release_route(self.occ, self.cgra, req, steps)
                self.route_len -= len(steps)
                if self._undo is not None:
                    self._undo.append(("rt-", e, i, req, steps))
            else:
                self.pending.discard(i)
        self.occ.release_op(cell, t)
        del self.binding[nid], self.schedule[nid]
        if self._undo is not None:
            self._undo.append(("op-", nid, cell, t))

    # ------------------------------------------------------------------
    def time_bounds(self, nid: int, window: int) -> tuple[int, int]:
        """Feasible issue-cycle interval given placed neighbours."""
        tables = self._tables
        schedule = self.schedule
        ii = self.ii
        lb = 0
        for src, e, _ in tables.ins[nid]:
            if src in schedule:
                lb = max(
                    lb, schedule[src] + tables.latency[src] - e.dist * ii
                )
        ub = lb + window
        lat = tables.latency[nid]
        for dst, e, _ in tables.outs[nid]:
            if dst in schedule:
                ub = min(ub, schedule[dst] + e.dist * ii - lat)
        return lb, ub

    def neighbor_cells(self, nid: int) -> list[int]:
        """Cells of already-placed graph neighbours (for cost)."""
        cells = []
        for e in self.dfg.in_edges(nid):
            if e.src in self.binding:
                cells.append(self.binding[e.src])
        for e in self.dfg.out_edges(nid):
            if e.dst in self.binding and e.dst != nid:
                cells.append(self.binding[e.dst])
        return cells

    def to_mapping(self, mapper: str = "?") -> Mapping:
        return Mapping(
            self.dfg,
            self.cgra,
            kind="modulo",
            binding=dict(self.binding),
            schedule=dict(self.schedule),
            routes=dict(self.routes),
            ii=self.ii,
            mapper=mapper,
        )


# ---------------------------------------------------------------------------
CandidateFn = Callable[
    [PlacementState, int, int, int], Iterable[tuple[int, int]]
]


def default_candidates(
    state: PlacementState,
    nid: int,
    lb: int,
    ub: int,
    *,
    rng: random.Random | None = None,
) -> Iterable[tuple[int, int]]:
    """(cell, t) slots in time order, nearest-to-neighbours first.

    The default preference of the constructive engine: earliest cycle
    first (keeps schedules short), and within a cycle the cells closest
    to the op's placed graph neighbours (keeps routes short).  ``rng``
    shuffles distance ties to decorrelate restarts.
    """
    cgra = state.cgra
    op = state.dfg.node(nid).op
    anchors = state.neighbor_cells(nid)
    cells = list(cgra.supporting_cells(op))
    dist = cgra.distance_table()

    def dist_cost(c: int) -> int:
        return sum(min(dist[a][c], dist[c][a]) for a in anchors)

    if rng is not None:
        rng.shuffle(cells)
    cells.sort(key=dist_cost)
    for t in range(lb, ub + 1):
        for c in cells:
            yield (c, t)


def greedy_construct(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    order: Sequence[int],
    *,
    candidates: CandidateFn | None = None,
    window: int | None = None,
    rng: random.Random | None = None,
    allow_hold: bool = True,
) -> Mapping | None:
    """Run the constructive skeleton for one II.

    Returns a finished mapping (not yet validated) or None when some
    operation found no feasible slot.
    """
    tracer = get_tracer()
    state = PlacementState(dfg, cgra, ii, allow_hold=allow_hold)
    win = window if window is not None else max(2 * ii + 2, 6)
    for nid in order:
        lb, ub = state.time_bounds(nid, win)
        if lb > ub:
            return None
        placed = False
        if candidates is not None:
            slots = candidates(state, nid, lb, ub)
        else:
            slots = default_candidates(state, nid, lb, ub, rng=rng)
        for cell, t in slots:
            tracer.count(CANDIDATES_EXPLORED)
            if state.place(nid, cell, t):
                placed = True
                break
        if not placed:
            return None
    return state.to_mapping()
