"""Edge-centric modulo scheduling (EMS).

Park et al. [37] inverted the classic op-centric loop: the scarce
resource is routing, so placement decisions should be driven by route
cost, not slot availability.  Here, each operation probes its candidate
slots by *actually routing* its edges there (transactionally, via
``PlacementState.place``) and keeps the slot whose committed routes are
cheapest — routing decides, placement follows.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState
from repro.mappers.schedule import priority_order

__all__ = ["EdgeCentricMapper"]


@register
class EdgeCentricMapper(Mapper):
    """Route-cost-driven placement (EMS-style)."""

    info = MapperInfo(
        name="edge_centric",
        family="heuristic",
        subfamily="edge-centric MS",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[37]",
        year=2008,
    )

    def __init__(self, seed: int = 0, *, probe_limit: int = 24) -> None:
        super().__init__(seed)
        self.probe_limit = probe_limit

    def _attempt(self, dfg: DFG, cgra: CGRA, ii: int) -> Mapping | None:
        state = PlacementState(dfg, cgra, ii)
        window = 2 * ii + 2
        for nid in priority_order(dfg, by="height"):
            lb, ub = state.time_bounds(nid, window)
            if lb > ub:
                return None
            op = dfg.node(nid).op
            anchors = state.neighbor_cells(nid)
            cells = [c.cid for c in cgra.cells if c.supports(op)]
            cells.sort(
                key=lambda c: sum(cgra.distance(a, c) for a in anchors)
            )
            # Probe slots: place, measure committed route cost, unplace.
            # place routes only nid's edges and unplace drops them, so
            # a probe's route cost is its growth of route_len over base.
            base = state.route_len
            best: tuple[float, int, int] | None = None
            probes = 0
            for t in range(lb, ub + 1):
                for cell in cells:
                    if probes >= self.probe_limit and best is not None:
                        break
                    if not state.place(nid, cell, t):
                        continue
                    probes += 1
                    cost = state.route_len - base + 0.1 * (t - lb)
                    state.unplace(nid)
                    if best is None or cost < best[0]:
                        best = (cost, cell, t)
                    if cost == 0:
                        break
                if best is not None and (
                    best[0] == 0 or probes >= self.probe_limit
                ):
                    break
            if best is None:
                return None
            placed = state.place(nid, best[1], best[2])
            assert placed, "probed slot must remain placeable"
        return state.to_mapping(self.info.name)

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [self._attempt(dfg, cgra, ii_try)],
            f"no feasible II for {dfg.name} on {cgra.name}",
        )
