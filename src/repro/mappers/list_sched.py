"""List-scheduling mapper — the classic temporal baseline.

The earliest automated flows (Bondalapati & Prasanna [12]; later
robust-compilation baselines [36]) schedule operations in critical-
path-first order and bind each to the first feasible cell, growing the
II until everything fits.  This is the reference point every other
temporal mapper in the package is measured against.
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

__all__ = ["ListSchedulingMapper"]


@register
@dataclass(eq=False, kw_only=True)
class ListSchedulingMapper(Mapper):
    """Height-priority list scheduling with nearest-cell binding."""

    info = MapperInfo(
        name="list_sched",
        family="heuristic",
        subfamily="list",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[12], [36]",
        year=1998,
    )

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        order = priority_order(dfg, by="height")
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [greedy_construct(dfg, cgra, ii_try, order)],
            f"no feasible II for {dfg.name} on {cgra.name}",
        )
