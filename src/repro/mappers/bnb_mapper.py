"""Branch-and-bound mapper.

The exhaustive counterpart of :mod:`repro.mappers.graph_minor` — a
DNestMap-style [42] depth-first search over the adjacency-placement
model that (a) explores the whole slot space for the given II and
window, so a negative answer *proves* infeasibility within the model,
and (b) keeps searching after the first solution, bounding on makespan
to return a schedule-length-optimal mapping.

It runs the DFS core of :mod:`repro.mappers.adjplace` on the unpruned
domains, cut at ``node_limit`` calls; the search's work counts land
once on its ``bnb_search`` span.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.obs.tracer import get_tracer

__all__ = ["BranchAndBoundMapper"]


@register
@dataclass(eq=False, kw_only=True)
class BranchAndBoundMapper(Mapper):
    """Exhaustive DFS with makespan bounding (exact in-model)."""

    info = MapperInfo(
        name="bnb",
        family="exact",
        subfamily="B&B",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[42]",
        year=2018,
        exact=True,
    )

    node_limit: int = 200_000

    def _solve(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> dict[int, adjplace.Slot] | None:
        domains = adjplace.slot_domains(dfg, cgra, ii)
        with get_tracer().span(
            "bnb_search", ii=ii,
            slots=sum(len(d) for d in domains.values()),
        ) as span:
            best, counts = adjplace.dfs(
                dfg, cgra, ii, domains, node_limit=self.node_limit
            )
            for name, n in counts.items():
                span.count(name, n)
            span.tag(found=best is not None)
        return best

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(
                dfg, cgra,
                lambda r, work, ii_try: self._solve(work, cgra, ii_try),
            ),
            f"search space exhausted on {cgra.name}",
        )
