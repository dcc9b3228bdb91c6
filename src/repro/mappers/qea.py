"""Quantum-inspired evolutionary algorithm (QEA) binding mapper.

Lee, Choi & Dutt [48] bind multi-domain applications with a QEA: each
op/cell pair carries a probability amplitude; individuals are sampled
from the amplitudes, evaluated, and the amplitudes are rotated toward
the best individual observed.  This implementation keeps the QEA loop
(probabilistic genome, observation, rotation toward the elite) on the
spatial binding problem.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.spatial_common import (
    candidate_cells,
    finalize,
    route_spatial,
    spatial_cost,
)
from repro.obs.tracer import get_tracer

__all__ = ["QEAMapper"]

#: bindings observed per generation, and the rotation step that moves
#: each qubit's probability toward the best binding seen
OBSERVATIONS = 12
GENERATIONS = 40
ROTATION = 0.25


@register
@dataclass(eq=False, kw_only=True)
class QEAMapper(Mapper):
    """Quantum-inspired EA over spatial bindings."""

    info = MapperInfo(
        name="qea",
        family="metaheuristic",
        subfamily="QEA",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[48]",
        year=2011,
    )

    def _observe(
        self,
        probs: dict[int, np.ndarray],
        cands: dict[int, list[int]],
        rng: np.random.Generator,
    ) -> dict[int, int] | None:
        """Sample one injective binding from the amplitude table."""
        binding: dict[int, int] = {}
        used: set[int] = set()
        # Most-constrained first keeps repair rates low.
        for nid in sorted(cands, key=lambda n: len(cands[n])):
            p = probs[nid].copy()
            for i, c in enumerate(cands[nid]):
                if c in used:
                    p[i] = 0.0
            total = p.sum()
            if total <= 0:
                free = [c for c in cands[nid] if c not in used]
                if not free:
                    return None
                cell = free[int(rng.integers(len(free)))]
            else:
                cell = cands[nid][int(rng.choice(len(p), p=p / total))]
            binding[nid] = cell
            used.add(cell)
        return binding

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = np.random.default_rng(self.seed)
        nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
        cands = {nid: candidate_cells(dfg, cgra, nid) for nid in nodes}
        if any(not c for c in cands.values()):
            raise self.fail("some op has no candidate cell")
        if len(nodes) > len(set().union(*map(set, cands.values()))):
            raise self.fail(
                f"{dfg.name} does not fit spatially on {cgra.name}"
            )
        # Uniform superposition start.
        probs = {
            nid: np.full(len(cands[nid]), 1.0 / len(cands[nid]))
            for nid in nodes
        }

        # As the amplitudes converge, observations repeat; memoizing by
        # the (hashable) binding avoids re-running the BFS router on
        # bindings already scored.
        seen: dict[tuple[tuple[int, int], ...], float] = {}

        def fitness(b: dict[int, int]) -> float:
            key = tuple(sorted(b.items()))
            cached = seen.get(key)
            if cached is not None:
                return cached
            cost = spatial_cost(dfg, cgra, b)
            if cost and route_spatial(dfg, cgra, b) is None:
                cost += 100.0
            seen[key] = cost
            return cost

        tracer = get_tracer()
        best: tuple[float, dict[int, int]] | None = None
        for gen in range(GENERATIONS):
            for _ in range(OBSERVATIONS):
                b = self._observe(probs, cands, rng)
                if b is None:
                    continue
                f = fitness(b)
                if best is None or f < best[0]:
                    best = (f, dict(b))
                    tracer.progress("qea.best_fitness", f)
            if best is None:
                continue
            if best[0] == 0.0:
                break
            # Rotate amplitudes toward the elite binding.
            for nid in nodes:
                target = best[1][nid]
                p = probs[nid]
                for i, c in enumerate(cands[nid]):
                    if c == target:
                        p[i] += ROTATION
                    else:
                        p[i] *= 1.0 - ROTATION / max(1, len(p) - 1)
                probs[nid] = p / p.sum()

        if best is None:
            raise self.fail("no injective binding could be observed")
        return self.first_valid(
            [finalize(dfg, cgra, best[1])],
            f"best observation (fitness {best[0]:.1f}) is unroutable",
        )
