"""EPIMap-style mapping via epimorphic graph extension.

Hamzeh et al. [28] map by *extending* the DFG — inserting routing
operations so the extended graph embeds into the time-extended CGRA
with every edge a direct neighbour hop.  In this package's model the
router's pass-through steps occupy functional units exactly like
EPIMap's routing PEs, so the epimorphic extension is realised by
running the constructive engine with **register-file holds disabled**:
every cycle a value stays alive it must occupy a PE, which is EPIMap's
cost model (and why REGIMap later added registers — see
:mod:`repro.mappers.regimap`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import greedy_construct
from repro.mappers.schedule import priority_order

__all__ = ["EpimapMapper"]


@register
@dataclass(eq=False, kw_only=True)
class EpimapMapper(Mapper):
    """Constructive mapping where values live on PEs, never in RFs."""

    info = MapperInfo(
        name="epimap",
        family="heuristic",
        subfamily="graph epimorphism",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[28]",
        year=2012,
    )

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        order = priority_order(dfg, by="height")
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [
                greedy_construct(dfg, cgra, ii_try, order, allow_hold=False)
            ],
            f"no feasible epimorphic extension on {cgra.name}",
        )
