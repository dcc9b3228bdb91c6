"""Ultra-fast single-pass scheduler.

Lee & Carlson [16] target *compilation speed* — mapping at run time —
with a single greedy pass and no search: each op takes the first free
compatible slot in a precomputed cell scan order, the time window is
clamped to the II, and failure immediately escalates the II rather
than backtracking.  Quality is traded for orders of magnitude in
mapping time; the Table I companion benchmark shows exactly that
trade, which is the point of including it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState, greedy_construct
from repro.mappers.schedule import priority_order

__all__ = ["UltraFastMapper"]


@register
@dataclass(eq=False, kw_only=True)
class UltraFastMapper(Mapper):
    """First-fit, no-backtracking, II-escalating scheduler."""

    info = MapperInfo(
        name="ultrafast",
        family="heuristic",
        subfamily="greedy list",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[16]",
        year=2021,
    )

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        order = priority_order(dfg, by="topo")

        def candidates(state: PlacementState, nid, lb, ub):
            # Static first-fit scan order: row-major, no per-op sorting.
            cells = state.cgra.supporting_cells(state.dfg.node(nid).op)
            for t in range(lb, ub + 1):
                for c in cells:
                    yield (c, t)

        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [
                greedy_construct(
                    dfg, cgra, ii_try, order,
                    candidates=candidates,
                    window=max(ii_try, 2),
                )
            ],
            f"no feasible II for {dfg.name} on {cgra.name}",
        )
