"""SPR-style architecture-adaptive mapping (SA + PathFinder).

Friedman et al.'s SPR [49] combines VPR-style simulated-annealing
placement with PathFinder negotiated-congestion routing: routes may
*overuse* resources at first; overused slots accumulate history cost,
rerouting is iterated, and congestion melts away (or the placement is
perturbed).  This mapper uses :meth:`Router.find_negotiated` for the
inner loop and perturbs the placement when negotiation stalls.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from repro.arch.cgra import CGRA
from repro.arch.tec import HOLD, Step
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.core.resources import Occupancy
from repro.ir.dfg import DFG, Edge
from repro.mappers.routing import RouteRequest, Router
from repro.mappers.schedule import asap, priority_order

__all__ = ["SPRMapper"]

#: PathFinder rounds per placement, and placements tried per II
NEGOTIATION_ROUNDS = 12
PERTURBATIONS = 6


@register
@dataclass(eq=False, kw_only=True)
class SPRMapper(Mapper):
    """SA placement + negotiated-congestion routing (SPR-style)."""

    info = MapperInfo(
        name="spr",
        family="metaheuristic",
        subfamily="SA + PathFinder",
        kinds=("temporal",),
        solves="binding",
        modeled_after="[49]",
        year=2009,
    )

    # ------------------------------------------------------------------
    def _placement(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: random.Random
    ) -> tuple[dict[int, int], dict[int, int]] | None:
        """An FU-feasible placement (ignoring routing)."""
        occ = Occupancy(cgra, ii)
        binding: dict[int, int] = {}
        schedule: dict[int, int] = {}
        t0 = asap(dfg, ii)
        for nid in priority_order(dfg, by="height"):
            op = dfg.node(nid).op
            anchors = [
                binding[e.src]
                for e in dfg.in_edges(nid)
                if e.src in binding
            ] + [
                binding[e.dst]
                for e in dfg.out_edges(nid)
                if e.dst in binding and e.dst != nid
            ]
            cells = list(cgra.supporting_cells(op))
            rng.shuffle(cells)
            dist = cgra.distance_table()
            cells.sort(
                key=lambda c: sum(dist[a][c] for a in anchors)
            )
            lb = t0[nid]
            ub = None
            for e in dfg.in_edges(nid):
                if e.src in schedule and not dfg.node(e.src).op.is_pseudo:
                    lb = max(lb, schedule[e.src] + 1 - e.dist * ii)
            for e in dfg.out_edges(nid):
                if (
                    e.dst in schedule
                    and e.dst != nid
                    and not dfg.node(e.dst).op.is_pseudo
                ):
                    cap = schedule[e.dst] + e.dist * ii - 1
                    ub = cap if ub is None else min(ub, cap)
            hi = lb + 4 * ii if ub is None else min(ub, lb + 4 * ii)
            done = False
            for t in range(lb, hi + 1):
                for cell in cells:
                    if occ.can_place_op(cell, t):
                        occ.place_op(nid, cell, t)
                        binding[nid] = cell
                        schedule[nid] = t
                        done = True
                        break
                if done:
                    break
            if not done:
                return None
        return binding, schedule

    def _negotiate(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        binding: dict[int, int],
        schedule: dict[int, int],
    ) -> dict[Edge, list[Step]] | None:
        """Iterated negotiated routing; None when congestion persists."""
        router = Router(cgra)
        edges = [
            e
            for e in dfg.edges()
            if not dfg.node(e.src).op.is_pseudo
            and not dfg.node(e.dst).op.is_pseudo
        ]
        history: dict[tuple, int] = {}
        for rnd in range(NEGOTIATION_ROUNDS):
            occ = Occupancy(cgra, ii)
            for nid, cell in binding.items():
                occ.place_op(nid, cell, schedule[nid])
            routes: dict[Edge, list[Step]] = {}
            overused: Counter = Counter()
            ok = True
            for e in edges:
                req = RouteRequest(
                    value=e.src,
                    src_cell=binding[e.src],
                    t_emit=schedule[e.src],
                    dst_cell=binding[e.dst],
                    t_consume=schedule[e.dst] + e.dist * ii,
                )
                if req.t_consume <= req.t_emit:
                    return None  # timing bug: unfixable by routing
                found = router.find_negotiated(
                    occ, req, history=history, penalty=8 * (rnd + 1)
                )
                if found is None:
                    return None
                steps, _cost = found
                # Commit, tracking overuse for the history update.
                prev_cell = req.src_cell
                for step in steps:
                    key = (step.cell, occ.slot(step.time), step.kind)
                    if step.kind == HOLD:
                        if not occ.can_hold(req.value, step.cell, step.time):
                            overused[key] += 1
                            ok = False
                        occ.add_hold(req.value, step.cell, step.time)
                    else:
                        if not occ.can_route(req.value, step.cell, step.time):
                            overused[key] += 1
                            ok = False
                        if step.cell != prev_cell:
                            occ.add_link(
                                req.value, prev_cell, step.cell, step.time
                            )
                        occ.add_route(req.value, step.cell, step.time)
                    prev_cell = step.cell
                last_kind = steps[-1].kind if steps else "route"
                if last_kind != HOLD and prev_cell != req.dst_cell:
                    occ.add_link(
                        req.value, prev_cell, req.dst_cell, req.t_consume
                    )
                routes[e] = steps
            if ok:
                return routes
            for key, n in overused.items():
                history[key] = history.get(key, 0) + n
        return None

    # ------------------------------------------------------------------
    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)

        def tries(ii_try: int) -> Iterator[Mapping | None]:
            for _ in range(PERTURBATIONS):
                placed = self._placement(dfg, cgra, ii_try, rng)
                if placed is None:
                    yield None
                    return  # FU capacity: only more II helps
                binding, schedule = placed
                routes = self._negotiate(
                    dfg, cgra, ii_try, binding, schedule
                )
                yield None if routes is None else Mapping(
                    dfg, cgra, kind="modulo",
                    binding=binding, schedule=schedule,
                    routes=routes, ii=ii_try,
                )

        return self.search(
            dfg, cgra, ii, tries,
            f"negotiation never converged on {cgra.name}",
        )
