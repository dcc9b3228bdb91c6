"""DRESC-style simulated-annealing modulo mapper.

Mei et al.'s DRESC [22] — the compiler behind ADRES, and the reference
point of two decades of temporal mapping — couples modulo scheduling
with simulated annealing: operations move between ``(cell, cycle)``
slots, their edges are ripped up and rerouted, and infeasible
intermediate states are allowed but penalised, so the walk can tunnel
through congestion that defeats constructive methods.  The II search
starts at MII and grows on failure, as in the original.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState
from repro.mappers.schedule import asap, priority_order
from repro.obs.tracer import BACKTRACKS, CANDIDATES_EXPLORED, get_tracer

__all__ = ["DRESCMapper"]

UNROUTED_PENALTY = 50.0
#: annealing schedule: the temperature falls geometrically by
#: ``COOLING`` from ``T_START`` until it drops to ``T_END``
T_START = 20.0
T_END = 0.2
COOLING = 0.9


@register
@dataclass(eq=False, kw_only=True)
class DRESCMapper(Mapper):
    """Simulated annealing over modulo placements with rip-up/reroute."""

    info = MapperInfo(
        name="dresc",
        family="metaheuristic",
        subfamily="SA",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[22]",
        year=2002,
    )

    moves_per_temp: int = 80

    # ------------------------------------------------------------------
    def _cost(self, state: PlacementState) -> float:
        return (
            UNROUTED_PENALTY * len(state.pending)
            + state.occ.pressure() * 0.01
            + state.route_len
        )

    def _initial(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: random.Random
    ) -> PlacementState | None:
        """Loose initial placement near the ASAP schedule."""
        state = PlacementState(dfg, cgra, ii)
        t0 = asap(dfg, ii)
        order = priority_order(dfg, by="height")
        for nid in order:
            op = dfg.node(nid).op
            anchors = state.neighbor_cells(nid)
            cells = list(cgra.supporting_cells(op))
            rng.shuffle(cells)
            dist = cgra.distance_table()
            cells.sort(
                key=lambda c: sum(dist[a][c] for a in anchors)
            )
            lb, ub = state.time_bounds(nid, 4 * ii)
            lb = max(lb, t0[nid])
            if ub < lb:
                ub = lb + 4 * ii
            placed = False
            for t in range(lb, ub + 1):
                for cell in cells:
                    if state.place_loose(nid, cell, t):
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                return None
        return state

    def _move(
        self, state: PlacementState, nid: int, rng: random.Random,
        window: int,
    ) -> tuple[int, int] | None:
        """Relocate ``nid`` to a random free slot; returns old (cell, t).

        On failure the state is left ripped up — the caller rolls back
        through the undo journal.
        """
        old = (state.binding[nid], state.schedule[nid])
        state.unplace(nid)
        op = state.dfg.node(nid).op
        cells = state.cgra.supporting_cells(op)
        lb, ub = state.time_bounds(nid, window)
        if ub < lb:
            # The op's own window is empty (neighbours must move first);
            # keep exploring around lb so the walk stays alive.
            ub = lb + window
        for _ in range(12):
            cell = rng.choice(cells)
            t = rng.randint(lb, ub)
            if state.place_loose(nid, cell, t):
                return old
        return None

    def _anneal(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: random.Random
    ) -> Mapping | None:
        tracer = get_tracer()
        state = self._initial(dfg, cgra, ii, rng)
        if state is None:
            return None
        window = 2 * ii + 2
        nodes = list(state.binding)
        cost = self._cost(state)
        best = cost
        tracer.progress("dresc.best_cost", best)
        temp = T_START
        # Rejected moves roll back through the delta-undo journal —
        # rerouted edges may claim the vacated slot, so "move back" is
        # not always possible, but replaying the inverse log is exact
        # and costs a few operations instead of a full state copy.
        state.begin_undo()
        while temp > T_END:
            for _ in range(self.moves_per_temp):
                if cost == 0 or not state.pending:
                    mapping = state.to_mapping()
                    if not mapping.validate(raise_on_error=False):
                        return mapping
                tracer.count(CANDIDATES_EXPLORED)
                nid = rng.choice(nodes)
                start = state.mark()
                old = self._move(state, nid, rng, window)
                if old is None:
                    state.undo_to(start)
                    continue
                # Opportunistically retry previously stuck edges
                # (try_route itself counts the routing attempts).
                for e in state.unrouted_edges():
                    state.try_route(e)
                new_cost = self._cost(state)
                delta = new_cost - cost
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    cost = new_cost
                    state.commit()
                    if cost < best:
                        best = cost
                        tracer.progress("dresc.best_cost", best)
                else:
                    tracer.count(BACKTRACKS)
                    state.undo_to(start)
            temp *= COOLING
        if state.pending:
            return None
        return state.to_mapping()

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [self._anneal(dfg, cgra, ii_try, rng)],
            f"annealing found no feasible II for {dfg.name} on {cgra.name}",
        )
