"""Simulated-annealing spatial mapper.

The binding discipline of the recent spatial-dataflow generators
(DSAGEN [32], SNAFU [33]): start from a random injective binding,
propose moves (relocate an op to a free cell, or swap two ops), accept
by the Metropolis criterion on the wirelength objective, cool
geometrically, and route at the end (with a few restarts).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.spatial_common import (
    candidate_cells,
    finalize,
    incident_edges,
    random_binding,
    spatial_cost,
)
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    ROUTING_ATTEMPTS,
    get_tracer,
)

__all__ = ["SimulatedAnnealingSpatialMapper"]

#: annealing schedule: geometric cooling from T_START down to T_END
T_START = 4.0
T_END = 0.05
COOLING = 0.92
MOVES_PER_TEMP = 60
RESTARTS = 4


@register
@dataclass(eq=False, kw_only=True)
class SimulatedAnnealingSpatialMapper(Mapper):
    """SA over injective bindings, wirelength objective."""

    info = MapperInfo(
        name="sa_spatial",
        family="metaheuristic",
        subfamily="SA",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[32], [33]",
        year=2020,
    )

    def _anneal(
        self, dfg: DFG, cgra: CGRA, rng: random.Random
    ) -> dict[int, int] | None:
        tracer = get_tracer()
        binding = random_binding(dfg, cgra, rng)
        if binding is None:
            return None
        nodes = list(binding)
        cost = spatial_cost(dfg, cgra, binding)
        # Delta evaluation: a move changes only the cost terms of the
        # edges incident to the moved ops, and the occupied-cell set is
        # maintained across moves instead of being rebuilt per move.
        inc = incident_edges(dfg)
        dist = cgra.distance

        def local_cost(moved: tuple[int, ...]) -> float:
            seen: set = set()
            total = 0.0
            for n in moved:
                for e in inc.get(n, ()):
                    if e in seen:
                        continue
                    seen.add(e)
                    src, dst = binding[e.src], binding[e.dst]
                    if src != dst:
                        total += max(0, dist(src, dst) - 1)
            return total

        used = set(binding.values())
        best = cost
        tracer.progress("sa_spatial.best_cost", best)
        temp = T_START
        while temp > T_END:
            for _ in range(MOVES_PER_TEMP):
                tracer.count(CANDIDATES_EXPLORED)
                nid = rng.choice(nodes)
                old_cell = binding[nid]
                options = candidate_cells(dfg, cgra, nid)
                target = rng.choice(options)
                swap_with = None
                if target in used and target != old_cell:
                    # Swap if the resident op may live on our old cell.
                    swap_with = next(
                        n for n, c in binding.items() if c == target
                    )
                    if old_cell not in candidate_cells(dfg, cgra, swap_with):
                        continue
                moved = (nid,) if swap_with is None else (nid, swap_with)
                before = local_cost(moved)
                if swap_with is not None:
                    binding[swap_with] = old_cell
                binding[nid] = target
                delta = local_cost(moved) - before
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    cost += delta
                    if swap_with is None:
                        used.discard(old_cell)
                        used.add(target)
                    if cost < best:
                        best = cost
                        tracer.progress("sa_spatial.best_cost", best)
                else:  # revert
                    tracer.count(BACKTRACKS)
                    binding[nid] = old_cell
                    if swap_with is not None:
                        binding[swap_with] = target
            temp *= COOLING
        return binding

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)
        return self.first_valid(
            (self._restart(dfg, cgra, rng, r) for r in range(RESTARTS)),
            f"routing failed after {RESTARTS} annealing restarts",
        )

    def _restart(
        self, dfg: DFG, cgra: CGRA, rng: random.Random, r: int
    ) -> Mapping | None:
        """Restart ``r``: anneal a fresh binding and route it."""
        tracer = get_tracer()
        with tracer.span("restart", n=r):
            binding = self._anneal(dfg, cgra, rng)
            if binding is None:
                raise self.fail(
                    f"{dfg.name} does not fit spatially on {cgra.name}",
                    attempts=r + 1,
                )
            tracer.count(ROUTING_ATTEMPTS)
            return finalize(dfg, cgra, binding)
