"""CRIMSON-style randomised iterative modulo scheduling.

Balasubramanian & Shrivastava [52] showed that *randomising the
scheduling order* and restarting beats careful priority functions on
hard instances: a deterministic order fails the same way every time,
while random restarts explore qualitatively different schedules at the
same II before paying for a larger one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import greedy_construct
from repro.mappers.schedule import priority_order

__all__ = ["CrimsonMapper"]


@register
@dataclass(eq=False, kw_only=True)
class CrimsonMapper(Mapper):
    """Random-priority restarts at each II before escalating."""

    info = MapperInfo(
        name="crimson",
        family="heuristic",
        subfamily="randomised MS",
        kinds=("temporal",),
        solves="scheduling",
        modeled_after="[52]",
        year=2020,
    )

    restarts: int = 8

    @staticmethod
    def _random_topo_order(
        dfg: DFG, rng: random.Random
    ) -> list[int]:
        """A random linear extension of the dist-0 partial order."""
        indeg = {nid: 0 for nid in dfg}
        for e in dfg.edges():
            if e.dist == 0:
                indeg[e.dst] += 1
        ready = [n for n, d in indeg.items() if d == 0]
        order = []
        while ready:
            nid = ready.pop(rng.randrange(len(ready)))
            if not dfg.node(nid).op.is_pseudo:
                order.append(nid)
            for e in dfg.out_edges(nid):
                if e.dist == 0:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        ready.append(e.dst)
        return order

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)

        def tries(ii_try: int) -> Iterator[Mapping | None]:
            for r in range(self.restarts):
                if r == 0:
                    order = priority_order(dfg, by="height")
                else:
                    order = self._random_topo_order(dfg, rng)
                yield greedy_construct(dfg, cgra, ii_try, order, rng=rng)

        return self.search(
            dfg, cgra, ii, tries,
            f"no feasible II after randomised restarts on {cgra.name}",
        )
