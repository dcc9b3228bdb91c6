"""Reference resource accounting, temporal routing and spatial negotiation.

:class:`DictOccupancy` is the original tuple-keyed ``dict``/``Counter``
implementation of the :class:`repro.core.resources.Occupancy`
contract.  The equivalence suite (``tests/core/test_equivalence.py``)
drives both through identical operation sequences and whole mapper
runs and asserts byte-identical outcomes.  When the contract changes,
change both (the suite fails loudly otherwise).

:class:`ReferenceRouter` keeps the original search strategies — plain
breadth-first :meth:`~ReferenceRouter.find` and plain-Dijkstra
:meth:`~ReferenceRouter.find_negotiated`, no distance pruning, no A*
ordering, dict state — and shares only the terminal rule
(``_final_ok``, including the span>0 terminal-link fix) with the
production :class:`~repro.mappers.routing.Router`, so "fast path
equals slow path" stays a meaningful assertion.

:func:`negotiate_reference` is the original dict + ``heapq`` PathFinder
negotiation over a spatial binding, re-routing every net every
iteration.  Given the same net list
(:func:`repro.mappers.spatial_common.negotiation_nets`) it is byte
identical to ``negotiate_spatial(..., incremental=False)``.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict

from repro.arch.cgra import CGRA
from repro.arch.tec import HOLD, ROUTE, Step
from repro.ir.dfg import Edge
from repro.mappers.routecore import NEGOTIATION_ITERS
from repro.mappers.routing import Router
from repro.obs.tracer import CANDIDATES_EXPLORED, get_tracer

__all__ = ["DictOccupancy", "ReferenceRouter", "negotiate_reference"]


class DictOccupancy:
    """Dict-keyed reference of the Occupancy contract (slow path)."""

    def __init__(self, cgra: CGRA, ii: int | None = None) -> None:
        self.cgra = cgra
        self.ii = ii
        # (cell, slot) -> op node id occupying the FU.
        self.fu: dict[tuple[int, int], int] = {}
        # (cell, slot) -> value -> refcount (shares fu or bypass).
        self.routed: dict[tuple[int, int], Counter] = defaultdict(Counter)
        # (cell, slot) -> value -> refcount of RF holds.
        self.rf: dict[tuple[int, int], Counter] = defaultdict(Counter)
        # (src, dst, slot) -> value -> refcount on the link.
        self.link: dict[tuple[int, int, int], Counter] = defaultdict(Counter)

    def slot(self, t: int) -> int:
        return t % self.ii if self.ii else t

    # -- functional units ----------------------------------------------
    def can_place_op(self, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if key in self.fu:
            return False
        if self.cgra.route_shares_fu and self.routed.get(key):
            return False
        return True

    def place_op(self, nid: int, cell: int, t: int) -> None:
        self.fu[(cell, self.slot(t))] = nid

    def release_op(self, cell: int, t: int) -> None:
        self.fu.pop((cell, self.slot(t)), None)

    def op_at(self, cell: int, t: int) -> int | None:
        return self.fu.get((cell, self.slot(t)))

    # -- routing --------------------------------------------------------
    def can_route(self, value: int, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if value in self.routed[key]:
            return True
        if self.cgra.route_shares_fu:
            return key not in self.fu and not self.routed[key]
        return len(self.routed[key]) < self.cgra.bypass_capacity

    def add_route(self, value: int, cell: int, t: int) -> None:
        self.routed[(cell, self.slot(t))][value] += 1

    def release_route(self, value: int, cell: int, t: int) -> None:
        key = (cell, self.slot(t))
        self.routed[key][value] -= 1
        if self.routed[key][value] <= 0:
            del self.routed[key][value]

    # -- register-file holds -------------------------------------------
    def can_hold(self, value: int, cell: int, t: int) -> bool:
        key = (cell, self.slot(t))
        if value in self.rf[key]:
            return True
        return len(self.rf[key]) < self.cgra.cell(cell).rf_size

    def add_hold(self, value: int, cell: int, t: int) -> None:
        self.rf[(cell, self.slot(t))][value] += 1

    def release_hold(self, value: int, cell: int, t: int) -> None:
        key = (cell, self.slot(t))
        self.rf[key][value] -= 1
        if self.rf[key][value] <= 0:
            del self.rf[key][value]

    # -- links ----------------------------------------------------------
    def can_use_link(self, value: int, src: int, dst: int, t: int) -> bool:
        key = (src, dst, self.slot(t))
        users = self.link[key]
        return value in users or not users

    def add_link(self, value: int, src: int, dst: int, t: int) -> None:
        self.link[(src, dst, self.slot(t))][value] += 1

    def release_link(self, value: int, src: int, dst: int, t: int) -> None:
        key = (src, dst, self.slot(t))
        self.link[key][value] -= 1
        if self.link[key][value] <= 0:
            del self.link[key][value]

    # -- introspection (mirror of the flat API) ------------------------
    def holds_at(self, cell: int, t: int) -> set[int]:
        return set(self.rf.get((cell, self.slot(t)), ()))

    def routed_at(self, cell: int, t: int) -> set[int]:
        return set(self.routed.get((cell, self.slot(t)), ()))

    def link_users(self, src: int, dst: int, t: int) -> set[int]:
        return set(self.link.get((src, dst, self.slot(t)), ()))

    # ------------------------------------------------------------------
    def used_entries(self) -> int:
        return (
            len(self.fu)
            + sum(1 for v in self.routed.values() if v)
            + sum(1 for v in self.rf.values() if v)
            + sum(1 for v in self.link.values() if v)
        )

    def pressure(self) -> float:
        """Mean occupied slots per resource class (same as the flat
        implementation — the documented contract)."""
        return self.used_entries() / 4

    def copy(self) -> "DictOccupancy":
        out = DictOccupancy(self.cgra, self.ii)
        out.fu = dict(self.fu)
        out.routed = defaultdict(
            Counter, {k: Counter(v) for k, v in self.routed.items()}
        )
        out.rf = defaultdict(
            Counter, {k: Counter(v) for k, v in self.rf.items()}
        )
        out.link = defaultdict(
            Counter, {k: Counter(v) for k, v in self.link.items()}
        )
        return out


class ReferenceRouter(Router):
    """The original (pre-fast-path) route search, kept as the spec.

    Exhaustive layer-BFS for :meth:`find` and plain Dijkstra with
    ``(cost, state)`` heap keys for :meth:`find_negotiated` — exactly
    the seed algorithms the pruned/A* production router must replicate
    step for step.  Works on any occupancy with the public ``can_*``
    API (the flat :class:`~repro.core.resources.Occupancy` or
    :class:`DictOccupancy`).
    """

    def __init__(self, cgra: CGRA, *, allow_hold: bool = True) -> None:
        super().__init__(cgra, allow_hold=allow_hold)
        self._reach = cgra.reach_lists()

    def _expansions(self, occ, value, cell, kind, t):
        """Feasible single steps leaving state (cell, kind) at cycle t.

        Holds come first: parking in the RF is cheaper than burning an
        FU/bypass slot on a same-cell re-emission, and BFS keeps the
        first path found among equals.
        """
        if self.allow_hold and occ.can_hold(value, cell, t):
            yield Step(cell, t, HOLD)
        # Re-emission to self or neighbours.
        for nxt in self._reach[cell]:
            if nxt != cell and not occ.can_use_link(value, cell, nxt, t):
                continue
            if occ.can_route(value, nxt, t):
                yield Step(nxt, t, ROUTE)

    def find(self, occ, req):
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        if span == 0:
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return []
            return None
        start = (req.src_cell, ROUTE)
        frontier = {start: []}
        explored = 0
        for k in range(span):
            t = req.t_emit + 1 + k
            last = k == span - 1
            nxt = {}
            for (cell, kind), path in frontier.items():
                for step in self._expansions(occ, req.value, cell, kind, t):
                    explored += 1
                    key = (step.cell, step.kind)
                    if key in nxt:
                        continue
                    cand = path + [step]
                    if last:
                        if self._final_ok(occ, req, step):
                            get_tracer().count(
                                CANDIDATES_EXPLORED, explored
                            )
                            return cand
                    nxt[key] = cand
            if not nxt:
                get_tracer().count(CANDIDATES_EXPLORED, explored)
                return None
            frontier = nxt
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        return None

    def find_negotiated(self, occ, req, *, history=None, penalty=10.0):
        span = req.t_consume - req.t_emit - 1
        if span < 0:
            return None
        history = history or {}

        def step_cost(step):
            key = (step.cell, occ.slot(step.time), step.kind)
            base = 1.0 + history.get(key, 0.0)
            free = (
                occ.can_hold(req.value, step.cell, step.time)
                if step.kind == HOLD
                else occ.can_route(req.value, step.cell, step.time)
            )
            return base if free else base + penalty

        if span == 0:
            if self._final_ok(occ, req, Step(req.src_cell, req.t_emit, ROUTE)):
                return [], 0.0
            return None

        start = (req.src_cell, ROUTE, 0)
        dist = {start: 0.0}
        prev = {start: None}
        steps_at = {start: None}
        heap = [(0.0, start)]
        best = None
        explored = 0
        while heap:
            d, state = heapq.heappop(heap)
            if d > dist.get(state, float("inf")):
                continue
            explored += 1
            cell, kind, layer = state
            if layer == span:
                # Same terminal discipline as the production router
                # (the span>0 terminal-link fix is shared): the
                # terminal link must exist *and* be free.
                last = steps_at[state]
                ok = last is not None and self._final_ok(occ, req, last)
                if ok:
                    best = state
                    break
                continue
            t = req.t_emit + 1 + layer
            candidates = [
                Step(nxt, t, ROUTE) for nxt in self._reach[cell]
            ] + [Step(cell, t, HOLD)]
            for step in candidates:
                nd = d + step_cost(step)
                ns = (step.cell, step.kind, layer + 1)
                if nd < dist.get(ns, float("inf")):
                    dist[ns] = nd
                    prev[ns] = state
                    steps_at[ns] = step
                    heapq.heappush(heap, (nd, ns))
        get_tracer().count(CANDIDATES_EXPLORED, explored)
        if best is None:
            return None
        out = []
        s = best
        while s is not None and steps_at[s] is not None:
            out.append(steps_at[s])
            s = prev[s]
        out.reverse()
        return out, dist[best]


def negotiate_reference(
    cgra: CGRA, binding: dict[int, int], edges: list[Edge]
) -> dict[Edge, list[Step]] | None:
    """PathFinder negotiation, full rip-up schedule, dict + heapq state.

    Same contract as :func:`repro.mappers.routecore.negotiate_spatial`:
    ``edges`` is the filtered, longest-first net list; the result maps
    every net to its chain of ROUTE steps, or is None when the
    negotiation cannot converge in ``NEGOTIATION_ITERS`` rounds.
    """
    if not edges:
        return {}
    op_cells = set(binding.values())
    hist: dict[int, float] = {}
    paths: dict[Edge, list[int]] = {}
    # Persistent occupancy: cell -> value -> number of paths through.
    # Counts (not a set) so ripping up one edge of a fan-out does not
    # erase its sibling's claim on a shared cell.
    occ: dict[int, dict[int, int]] = {}

    def claim(path: list[int], value: int, add: bool) -> None:
        for c in path:
            counts = occ.setdefault(c, {})
            if add:
                counts[value] = counts.get(value, 0) + 1
            else:
                counts[value] -= 1
                if not counts[value]:
                    del counts[value]

    def dijkstra(
        src: int, dst: int, value: int, pressure: float
    ) -> list[int] | None:
        def enter_cost(cell: int) -> float | None:
            if cell in op_cells:
                return None
            counts = occ.get(cell)
            n_others = (
                sum(1 for v in counts if v != value) if counts else 0
            )
            return 1.0 + hist.get(cell, 0.0) + pressure * n_others

        dist: dict[int, float] = {}
        prev: dict[int, int] = {}
        heap: list[tuple[float, int, int]] = []
        for n in cgra.neighbors_out(src):
            c = enter_cost(n)
            if c is not None and n not in dist:
                dist[n] = c
                prev[n] = -1
                heapq.heappush(heap, (c, n, -1))
        while heap:
            d, cur, _ = heapq.heappop(heap)
            if d > dist.get(cur, float("inf")):
                continue
            if cgra.has_link(cur, dst):
                chain = [cur]
                while prev[chain[-1]] != -1:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                return chain
            for n in cgra.neighbors_out(cur):
                c = enter_cost(n)
                if c is None:
                    continue
                nd = d + c
                if nd < dist.get(n, float("inf")):
                    dist[n] = nd
                    prev[n] = cur
                    heapq.heappush(heap, (nd, n, cur))
        return None

    for it in range(NEGOTIATION_ITERS):
        pressure = 1.0 + 2.0 * it
        for e in edges:
            old = paths.get(e)
            if old is not None:
                claim(old, e.src, add=False)
            path = dijkstra(
                binding[e.src], binding[e.dst], e.src, pressure
            )
            if path is None:
                return None  # walled off: no path at any price
            paths[e] = path
            claim(path, e.src, add=True)
        over = [c for c, counts in occ.items() if len(counts) > 1]
        if not over:
            return {
                e: [Step(c, i, ROUTE) for i, c in enumerate(p)]
                for e, p in paths.items()
            }
        for c in over:
            hist[c] = hist.get(c, 0.0) + float(len(occ[c]) - 1)
    return None
