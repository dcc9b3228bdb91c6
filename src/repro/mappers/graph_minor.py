"""Graph-minor mapper (Chen & Mitra style).

Chen & Mitra [27] search for the DFG as a *graph minor* of the
(modulo) time-extended CGRA: candidate slot sets per operation are
pruned by arc consistency over the edges, the most-constrained
operation is embedded first, and the search backtracks on wipe-out.
The survey notes that, for CGRA mapping, all the graph-based methods
are heuristics in practice — accordingly this mapper bounds its
backtracking and falls back to failure rather than exhausting the
space (the exhaustive version is :mod:`repro.mappers.bnb_mapper`).
"""

from __future__ import annotations

from typing import Iterator

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.mappers.regraph import split_dist0_edges

__all__ = ["GraphMinorMapper"]


@register
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

    def __init__(
        self, seed: int = 0, *, max_backtracks: int = 2000,
        max_route_rounds: int = 2,
    ) -> None:
        super().__init__(seed)
        self.max_backtracks = max_backtracks
        self.max_route_rounds = max_route_rounds

    # ------------------------------------------------------------------
    def _search(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> dict[int, adjplace.Slot] | None:
        domains = adjplace.slot_domains(dfg, cgra, ii)
        edges = adjplace.real_edges(dfg)
        lat = {
            nid: dfg.node(nid).op.latency for nid in domains
        }
        by_node: dict[int, list] = {n: [] for n in domains}
        for e in edges:
            by_node[e.src].append(e)
            by_node[e.dst].append(e)

        def revise(doms) -> bool:
            """One pass of arc consistency; False on wipe-out."""
            changed = True
            while changed:
                changed = False
                for e in edges:
                    keep_u = [
                        su
                        for su in doms[e.src]
                        if any(
                            adjplace.compatible(
                                cgra, ii, e, lat[e.src], su, sv
                            )
                            for sv in doms[e.dst]
                        )
                    ]
                    if len(keep_u) != len(doms[e.src]):
                        doms[e.src] = keep_u
                        changed = True
                        if not keep_u:
                            return False
                    keep_v = [
                        sv
                        for sv in doms[e.dst]
                        if any(
                            adjplace.compatible(
                                cgra, ii, e, lat[e.src], su, sv
                            )
                            for su in doms[e.src]
                        )
                    ]
                    if len(keep_v) != len(doms[e.dst]):
                        doms[e.dst] = keep_v
                        changed = True
                        if not keep_v:
                            return False
            return True

        doms = {n: list(d) for n, d in domains.items()}
        if not revise(doms):
            return None

        assign: dict[int, adjplace.Slot] = {}
        budget = [self.max_backtracks]

        def slot_free(nid: int, slot: adjplace.Slot) -> bool:
            c, t = slot
            return all(
                not (s[0] == c and s[1] % ii == t % ii)
                for s in assign.values()
            )

        def ok_with_assigned(nid: int, slot: adjplace.Slot) -> bool:
            for e in by_node[nid]:
                other = e.dst if e.src == nid else e.src
                if other not in assign:
                    continue
                su = slot if e.src == nid else assign[e.src]
                sv = assign[e.dst] if e.src == nid else slot
                if not adjplace.compatible(cgra, ii, e, lat[e.src], su, sv):
                    return False
            return True

        def backtrack() -> bool:
            if len(assign) == len(doms):
                return True
            nid = min(
                (n for n in doms if n not in assign),
                key=lambda n: len(doms[n]),
            )
            for slot in doms[nid]:
                if not slot_free(nid, slot):
                    continue
                if not ok_with_assigned(nid, slot):
                    continue
                assign[nid] = slot
                if backtrack():
                    return True
                del assign[nid]
                budget[0] -= 1
                if budget[0] <= 0:
                    return False
            return False

        return dict(assign) if backtrack() else None

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        def tries(ii_try: int) -> Iterator[Mapping | None]:
            for rounds in range(self.max_route_rounds + 1):
                work = (
                    dfg if rounds == 0 else split_dist0_edges(dfg, rounds)
                )
                assign = self._search(work, cgra, ii_try)
                yield None if assign is None else adjplace.build_mapping(
                    work, cgra, ii_try, assign, self.info.name
                )

        return self.search(
            dfg, cgra, ii, tries, f"no minor embedding found on {cgra.name}"
        )
