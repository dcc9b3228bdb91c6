"""Branch-and-bound mapper.

The exhaustive counterpart of :mod:`repro.mappers.graph_minor` — a
DNestMap-style [42] depth-first search over the adjacency-placement
model that (a) explores the whole slot space for the given II and
window, so a negative answer *proves* infeasibility within the model,
and (b) keeps searching after the first solution, bounding on makespan
to return a schedule-length-optimal mapping.
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
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    SOLVER_NODES,
    get_tracer,
)

__all__ = ["BranchAndBoundMapper"]


@register
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

    def __init__(
        self,
        seed: int = 0,
        *,
        node_limit: int = 200_000,
        max_route_rounds: int = 1,
        window: int | None = None,
    ) -> None:
        super().__init__(seed)
        self.node_limit = node_limit
        self.max_route_rounds = max_route_rounds
        self.window = window

    def _solve(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> dict[int, adjplace.Slot] | None:
        tracer = get_tracer()
        domains = adjplace.slot_domains(
            dfg, cgra, ii, window=self.window
        )
        edges = adjplace.real_edges(dfg)
        lat = {nid: dfg.node(nid).op.latency for nid in domains}
        by_node: dict[int, list] = {n: [] for n in domains}
        for e in edges:
            by_node[e.src].append(e)
            by_node[e.dst].append(e)

        order = sorted(domains, key=lambda n: len(domains[n]))
        best: dict[int, adjplace.Slot] | None = None
        best_makespan = [float("inf")]
        nodes_seen = [0]

        assign: dict[int, adjplace.Slot] = {}
        used: set[tuple[int, int]] = set()  # (cell, slot mod ii)

        def feasible(nid: int, slot: adjplace.Slot) -> bool:
            for e in by_node[nid]:
                other = e.dst if e.src == nid else e.src
                if other not in assign:
                    continue
                su = slot if e.src == nid else assign[e.src]
                sv = assign[e.dst] if e.src == nid else slot
                if not adjplace.compatible(cgra, ii, e, lat[e.src], su, sv):
                    return False
            return True

        def dfs(idx: int, makespan: int) -> None:
            nonlocal best
            nodes_seen[0] += 1
            if nodes_seen[0] > self.node_limit:
                return
            if makespan >= best_makespan[0]:
                return  # bound: cannot improve the incumbent
            if idx == len(order):
                best = dict(assign)
                best_makespan[0] = makespan
                return
            nid = order[idx]
            for slot in domains[nid]:
                tracer.count(CANDIDATES_EXPLORED)
                key = (slot[0], slot[1] % ii)
                if key in used:
                    continue
                if not feasible(nid, slot):
                    continue
                assign[nid] = slot
                used.add(key)
                dfs(idx + 1, max(makespan, slot[1] + 1))
                tracer.count(BACKTRACKS)
                del assign[nid]
                used.discard(key)

        with tracer.span(
            "bnb_search", ii=ii,
            slots=sum(len(d) for d in domains.values()),
        ) as span:
            dfs(0, 0)
            span.count(SOLVER_NODES, nodes_seen[0])
            span.tag(found=best is not None)
        return best

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        def tries(ii_try: int) -> Iterator[Mapping | None]:
            for rounds in range(self.max_route_rounds + 1):
                work = (
                    dfg if rounds == 0 else split_dist0_edges(dfg, rounds)
                )
                assign = self._solve(work, cgra, ii_try)
                yield None if assign is None else adjplace.build_mapping(
                    work, cgra, ii_try, assign, self.info.name
                )

        return self.search(
            dfg, cgra, ii, tries, f"search space exhausted on {cgra.name}"
        )
