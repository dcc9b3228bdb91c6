"""HiMap-style hierarchical mapping.

Wijerathne et al. [26] scale to large arrays by mapping at two levels:
the DFG is clustered, clusters are placed onto sub-array *regions*,
and only then are operations detail-placed inside (or near) their
cluster's region.  Candidate sets shrink from "every cell" to "a
region plus its fringe", which is where the scalability comes from —
the effect the scalability benchmark measures against flat mappers.

HiMap is also the survey's example of termination by construction:
"an iterative algorithm that terminates when a valid mapping is
found"; the region restriction is relaxed progressively until the flat
search is reached, so the hierarchical mapper never does worse than
its flat fallback.
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

__all__ = ["HiMapMapper"]

#: side of the square cell blocks that clusters are assigned to
REGION = 2


@register
@dataclass(eq=False, kw_only=True)
class HiMapMapper(Mapper):
    """Cluster -> region assignment, then region-restricted placement."""

    info = MapperInfo(
        name="himap",
        family="heuristic",
        subfamily="hierarchical",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[26]",
        year=2021,
    )

    # ------------------------------------------------------------------
    def _cluster(self, dfg: DFG, size: int) -> dict[int, int]:
        """Greedy topological clustering into groups of <= size ops."""
        cluster_of: dict[int, int] = {}
        count, cid = 0, 0
        for nid in priority_order(dfg, by="topo"):
            cluster_of[nid] = cid
            count += 1
            if count >= size:
                cid += 1
                count = 0
        return cluster_of

    def _regions(self, cgra: CGRA) -> list[list[int]]:
        """Tile the array into region x region blocks of cell ids."""
        out = []
        r = REGION
        for by in range(0, cgra.height, r):
            for bx in range(0, cgra.width, r):
                block = [
                    cgra.cell_at(x, y).cid
                    for y in range(by, min(by + r, cgra.height))
                    for x in range(bx, min(bx + r, cgra.width))
                ]
                out.append(block)
        return out

    def _attempt(
        self, dfg: DFG, cgra: CGRA, ii: int, fringe: int
    ) -> Mapping | None:
        regions = self._regions(cgra)
        cluster_of = self._cluster(dfg, max(1, REGION ** 2 * ii))
        n_clusters = max(cluster_of.values(), default=0) + 1
        # Clusters walk the regions in snake order: consecutive
        # clusters land in adjacent regions, keeping cut edges short.
        region_of = {
            c: regions[c % len(regions)] for c in range(n_clusters)
        }

        def candidates(state: PlacementState, nid, lb, ub):
            op = state.dfg.node(nid).op
            home = set(region_of[cluster_of[nid]])
            if fringe:
                for cell in list(home):
                    for n in state.cgra.neighbors_out(cell):
                        home.add(n)
            anchors = state.neighbor_cells(nid)
            ordered = sorted(
                state.cgra.supporting_cells(op),
                key=lambda c: (
                    c not in home,
                    sum(state.cgra.distance(a, c) for a in anchors),
                ),
            )
            # Region cells first; the tail keeps completeness.
            for t in range(lb, ub + 1):
                for c in ordered:
                    yield (c, t)

        return greedy_construct(
            dfg, cgra, ii, priority_order(dfg, by="height"),
            candidates=candidates,
        )

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: (
                self._attempt(dfg, cgra, ii_try, fringe) for fringe in (0, 1)
            ),
            f"hierarchical search exhausted on {cgra.name}",
        )
