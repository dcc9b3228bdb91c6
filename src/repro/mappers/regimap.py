"""REGIMap-style register-aware mapping.

REGIMap [46] is EPIMap's successor: instead of burning PEs to keep
values alive, it allocates the cells' *register files* for routing in
time, freeing functional units for computation.  Here that is the
constructive engine with holds enabled and a placement preference that
keeps consumers on (or next to) their producers' cells so values
travel through registers, not through the fabric:

* candidate cells are ordered producer-cell-first,
* candidate times prefer the earliest legal cycle (registers absorb
  any slack cheaply).
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

__all__ = ["RegimapMapper"]


@register
@dataclass(eq=False, kw_only=True)
class RegimapMapper(Mapper):
    """Register-file-first placement (REGIMap-style)."""

    info = MapperInfo(
        name="regimap",
        family="heuristic",
        subfamily="register-aware",
        kinds=("temporal",),
        solves="binding",
        modeled_after="[46]",
        year=2013,
    )

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        order = priority_order(dfg, by="height")

        def candidates(state: PlacementState, nid, lb, ub):
            cgra_ = state.cgra
            op = state.dfg.node(nid).op
            anchors = state.neighbor_cells(nid)
            cells = list(cgra_.supporting_cells(op))
            # Producer cells first (registers!), then by distance.
            anchor_set = set(anchors)

            def key(c: int) -> tuple:
                return (
                    0 if c in anchor_set else 1,
                    sum(cgra_.distance(a, c) for a in anchors),
                )

            cells.sort(key=key)
            for t in range(lb, ub + 1):
                for c in cells:
                    yield (c, t)

        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [
                greedy_construct(
                    dfg, cgra, ii_try, order, candidates=candidates
                )
            ],
            f"no feasible II for {dfg.name} on {cgra.name}",
        )
