"""GenMap-style genetic-algorithm spatial mapper.

Kojima et al.'s GenMap [19] optimises spatial bindings with a genetic
algorithm.  This implementation keeps the published structure —
population of injective bindings, tournament selection, position-wise
crossover with duplicate repair, relocation/swap mutation, elitism —
with a wirelength-plus-routability fitness.
"""

from __future__ import annotations

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
    random_binding,
    route_spatial,
    spatial_cost,
)

__all__ = ["GenMapMapper"]

#: the GA's parameters: population size, generations, tournament size,
#: per-child mutation probability and elite carried over unchanged
POPULATION = 24
GENERATIONS = 40
TOURNAMENT = 3
MUTATION_RATE = 0.25
ELITE = 2


@register
@dataclass(eq=False, kw_only=True)
class GenMapMapper(Mapper):
    """GA over spatial bindings (GenMap-style)."""

    info = MapperInfo(
        name="genmap",
        family="metaheuristic",
        subfamily="GA",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[19]",
        year=2020,
    )

    # ------------------------------------------------------------------
    def _fitness(self, dfg: DFG, cgra: CGRA, b: dict[int, int]) -> float:
        cost = spatial_cost(dfg, cgra, b)
        if cost == 0:
            return 0.0
        # Unroutable bindings get a large penalty on top of wirelength.
        if route_spatial(dfg, cgra, b) is None:
            cost += 100.0
        return cost

    def _repair(
        self, dfg: DFG, cgra: CGRA, b: dict[int, int], rng: random.Random
    ) -> dict[int, int] | None:
        """Resolve duplicate cells after crossover."""
        seen: set[int] = set()
        clashes = []
        for nid, cell in b.items():
            if cell in seen:
                clashes.append(nid)
            else:
                seen.add(cell)
        for nid in clashes:
            options = [
                c for c in candidate_cells(dfg, cgra, nid) if c not in seen
            ]
            if not options:
                return None
            cell = rng.choice(options)
            b[nid] = cell
            seen.add(cell)
        return b

    def _crossover(
        self,
        dfg: DFG,
        cgra: CGRA,
        a: dict[int, int],
        b: dict[int, int],
        rng: random.Random,
    ) -> dict[int, int] | None:
        child = {
            nid: (a[nid] if rng.random() < 0.5 else b[nid]) for nid in a
        }
        return self._repair(dfg, cgra, child, rng)

    def _mutate(
        self, dfg: DFG, cgra: CGRA, b: dict[int, int], rng: random.Random
    ) -> None:
        if rng.random() >= MUTATION_RATE or not b:
            return
        nid = rng.choice(list(b))
        used = set(b.values())
        options = [
            c
            for c in candidate_cells(dfg, cgra, nid)
            if c not in used or c == b[nid]
        ]
        if options:
            b[nid] = rng.choice(options)

    # ------------------------------------------------------------------
    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)
        pop: list[dict[int, int]] = []
        for _ in range(POPULATION * 3):
            b = random_binding(dfg, cgra, rng)
            if b is not None:
                pop.append(b)
            if len(pop) == POPULATION:
                break
        if not pop:
            raise self.fail(
                f"{dfg.name} does not fit spatially on {cgra.name}"
            )

        def tournament_pick(scored):
            group = rng.sample(scored, min(TOURNAMENT, len(scored)))
            return min(group, key=lambda sb: sb[0])[1]

        best: tuple[float, dict[int, int]] | None = None
        for gen in range(GENERATIONS):
            scored = [
                (self._fitness(dfg, cgra, b), b) for b in pop
            ]
            scored.sort(key=lambda sb: sb[0])
            if best is None or scored[0][0] < best[0]:
                best = (scored[0][0], dict(scored[0][1]))
            if best[0] == 0.0:
                break
            nxt = [dict(b) for _, b in scored[:ELITE]]
            while len(nxt) < POPULATION:
                pa = tournament_pick(scored)
                pb = tournament_pick(scored)
                child = self._crossover(dfg, cgra, dict(pa), pb, rng)
                if child is None:
                    child = dict(pa)
                self._mutate(dfg, cgra, child, rng)
                nxt.append(child)
            pop = nxt

        assert best is not None
        return self.first_valid(
            [finalize(dfg, cgra, best[1])],
            f"best individual (fitness {best[0]:.1f}) is unroutable",
        )
