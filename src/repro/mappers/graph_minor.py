"""Graph-minor mapper (Chen & Mitra style).

Chen & Mitra [27] search for the DFG as a *graph minor* of the
(modulo) time-extended CGRA: candidate slot sets per operation are
pruned by arc consistency over the edges, the most-constrained
operation is embedded first, and the search backtracks on wipe-out.
The survey notes that, for CGRA mapping, all the graph-based methods
are heuristics in practice — accordingly this mapper bounds its
backtracking and falls back to failure rather than exhausting the
space (the exhaustive version is :mod:`repro.mappers.bnb_mapper`).

Both run the search core of :mod:`repro.mappers.adjplace`: AC-3
pruning, then a DFS that stops at the first embedding or after
``max_backtracks`` undone assignments.  One ``graph_minor_search``
span per (II, insertion round) carries its node and backtrack counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.obs.tracer import BACKTRACKS, SOLVER_NODES, get_tracer

__all__ = ["GraphMinorMapper"]


@register
@dataclass(eq=False, kw_only=True)
class GraphMinorMapper(Mapper):
    """Arc-consistent slot embedding with bounded backtracking."""

    info = MapperInfo(
        name="graph_minor",
        family="heuristic",
        subfamily="graph minor",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[27]",
        year=2014,
    )

    max_backtracks: int = 2000

    # ------------------------------------------------------------------
    def _search(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> dict[int, adjplace.Slot] | None:
        domains = adjplace.slot_domains(dfg, cgra, ii)
        with get_tracer().span(
            "graph_minor_search", ii=ii,
            slots=sum(len(d) for d in domains.values()),
        ) as span:
            doms = adjplace.arc_consistent(dfg, cgra, ii, domains)
            best = None
            if doms is not None:
                best, counts = adjplace.dfs(
                    dfg, cgra, ii, doms, first=True,
                    max_backtracks=self.max_backtracks,
                )
                for name in (BACKTRACKS, SOLVER_NODES):
                    span.count(name, counts[name])
            span.tag(found=best is not None)
        return best

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(
                dfg, cgra,
                lambda r, work, ii_try: self._search(work, cgra, ii_try),
                rounds=2,
            ),
            f"no minor embedding found on {cgra.name}",
        )
