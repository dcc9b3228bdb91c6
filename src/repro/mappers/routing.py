"""Routing on the (modulo-folded) time-extended CGRA.

"Routing does not mean creating a new route with a physical wire, but
use an existing link without interfering with already existing
communications" (§II-B).  The :class:`Router` finds, for one DFG edge,
the chain of route/hold steps from the producer's emission to the
consumer's read — respecting everything an :class:`~repro.core
.resources.Occupancy` already carries.

Two disciplines are provided:

* :meth:`Router.find` — breadth-first over time layers, admitting only
  steps whose resources are free: the greedy discipline used by the
  constructive mappers;
* :meth:`Router.find_negotiated` — PathFinder-style: overused
  resources are allowed but penalised by a rising congestion cost, and
  an A* search minimises total cost.  SPR iterates this to resolve
  congestion gradually.

Distance pruning
----------------

Both disciplines prune against the CGRA's cached all-pairs hop-distance
table (:meth:`repro.arch.cgra.CGRA.distance_table`).  A search state at
cell ``c`` with ``r`` time layers left can only terminate usefully when
``dist(c, dst) <= r + 1`` — each layer moves the value at most one hop
and the terminal read grants one more (§II-B's neighbour-visibility
rule).  States violating that bound can never reach an accepting
terminal, and every state reachable *from* a violating state violates
the (one-weaker) bound of its own layer, so dropping them is exact:
the surviving search explores the same states in the same order and
returns byte-identical paths (the equivalence suite asserts this
against the unpruned ``ReferenceRouter`` in ``tests/oracles``).  In
:meth:`Router.find_negotiated` the same admissible reasoning gives the
A* heuristic: every one of the ``span - layer`` remaining layers costs
at least 1, and the distance table supplies the reachability cut (an
infinite heuristic).  Ordering the queue by ``(f, g, state)`` keeps
tie-breaking identical to plain Dijkstra.

Both searches run on the flat-array core
(:class:`repro.mappers.routecore.FlatTemporalEngine`: CSR adjacency,
Dial bucket queue, generation-stamped state arrays).  The number of
states actually explored is recorded on the active trace span under
``candidates_explored``, so ``--profile`` shows the pruning win
directly.
"""

from __future__ import annotations


from dataclasses import dataclass
from repro.arch.cgra import CGRA
from repro.arch.tec import HOLD, ROUTE, Step
from repro.core.resources import Occupancy
from repro.mappers.routecore import FlatTemporalEngine, flat_graph
from repro.obs.tracer import CANDIDATES_EXPLORED, get_tracer

__all__ = ["Router", "RouteRequest", "commit_route", "release_route"]


@dataclass(frozen=True)
class RouteRequest:
    """One edge to route.

    ``t_emit`` is the producer's last execution cycle (emission is
    readable from ``t_emit + 1``); ``t_consume`` is the absolute cycle
    the consumer fires.
    """

    value: int
    src_cell: int
    t_emit: int
    dst_cell: int
    t_consume: int


class Router:
    """Per-edge route search over a shared occupancy.

    Args:
        cgra: the target array.
        allow_hold: permit RF-hold steps (cheaper than re-emission).
    """

    def __init__(self, cgra: CGRA, *, allow_hold: bool = True) -> None:
        self.cgra = cgra
        self.allow_hold = allow_hold
        self._dist = cgra.distance_table()
        self._flat = FlatTemporalEngine(
            flat_graph(cgra), allow_hold=allow_hold
        )

    # ------------------------------------------------------------------
    def find(
        self, occ: Occupancy, req: RouteRequest
    ) -> list[Step] | None:
        """Feasible step chain, or None.

        The chain covers cycles ``t_emit+1 .. t_consume-1`` (may be
        empty) and ends readable by ``dst_cell`` at ``t_consume``.
        """
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        if span == 0:
            # Direct read of the emission.
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return []
            return None
        if self._dist[req.src_cell][req.dst_cell] > span + 1:
            return None  # unreachable within the time budget
        steps, explored = self._flat.find(occ, req)
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        return steps

    def _final_ok(self, occ, req: RouteRequest, last: Step) -> bool:
        """Can the consumer read the value after ``last``?"""
        if last.kind == HOLD:
            return last.cell == req.dst_cell
        if last.cell == req.dst_cell:
            return True
        return self.cgra.has_link(last.cell, req.dst_cell) and occ.can_use_link(
            req.value, last.cell, req.dst_cell, req.t_consume
        )

    # ------------------------------------------------------------------
    def find_negotiated(
        self,
        occ: Occupancy,
        req: RouteRequest,
        *,
        history: dict[tuple, int] | None = None,
        penalty: int = 10,
    ) -> tuple[list[Step], int] | None:
        """PathFinder-style search: congestion is costed, not forbidden.

        Returns ``(steps, cost)``; cost counts one per step plus its
        ``history`` count, plus ``penalty`` for each step whose
        resource is already occupied by another value.  Costs are
        non-negative integers, which the bucket-queue search relies on.
        The SPR mapper iterates: route all edges, raise history on
        overused slots, repeat until no overuse.
        """
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        if span == 0:
            # Direct read of the emission — same terminal discipline as
            # :meth:`find`: the terminal link must exist *and* be free
            # for this value (congestion on it cannot be negotiated
            # away, there is no step left to pay a penalty on).
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return [], 0
            return None
        if self._dist[req.src_cell][req.dst_cell] > span + 1:
            return None
        found, explored = self._flat.find_negotiated(
            occ, req, history=history or {}, penalty=penalty
        )
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        return found


# ---------------------------------------------------------------------------
def commit_route(
    occ: Occupancy, cgra: CGRA, req: RouteRequest, steps: list[Step]
) -> None:
    """Charge a found route (incl. terminal link) to the occupancy."""
    prev_cell = req.src_cell
    for step in steps:
        if step.kind == HOLD:
            occ.add_hold(req.value, step.cell, step.time)
        else:
            if step.cell != prev_cell:
                occ.add_link(req.value, prev_cell, step.cell, step.time)
            occ.add_route(req.value, step.cell, step.time)
        prev_cell = step.cell
    last_kind = steps[-1].kind if steps else ROUTE
    if last_kind == ROUTE and prev_cell != req.dst_cell:
        occ.add_link(req.value, prev_cell, req.dst_cell, req.t_consume)


def release_route(
    occ: Occupancy, cgra: CGRA, req: RouteRequest, steps: list[Step]
) -> None:
    """Undo :func:`commit_route`."""
    prev_cell = req.src_cell
    for step in steps:
        if step.kind == HOLD:
            occ.release_hold(req.value, step.cell, step.time)
        else:
            if step.cell != prev_cell:
                occ.release_link(req.value, prev_cell, step.cell, step.time)
            occ.release_route(req.value, step.cell, step.time)
        prev_cell = step.cell
    last_kind = steps[-1].kind if steps else ROUTE
    if last_kind == ROUTE and prev_cell != req.dst_cell:
        occ.release_link(req.value, prev_cell, req.dst_cell, req.t_consume)
