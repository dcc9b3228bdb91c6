"""RAMP-style resource-aware remapping.

Dave et al. [38] diagnose *why* a mapping attempt failed and pick the
remapping strategy that addresses the cause, escalating through
progressively more expensive techniques before surrendering II.  This
implementation keeps that escalation ladder:

1. plain constructive pass (cheap),
2. wider time window — exploits register files for routing in time,
3. re-ordered pass placing the *failing* operation's neighbourhood
   first (the failure-driven re-prioritisation),
4. randomised retries,
5. only then II + 1.
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
from repro.mappers.construct import PlacementState, default_candidates
from repro.mappers.schedule import priority_order

__all__ = ["RampMapper"]

#: randomised-order retries per II after the fixed strategies fail
RANDOM_RETRIES = 4


@register
@dataclass(eq=False, kw_only=True)
class RampMapper(Mapper):
    """Failure-diagnosing escalation of remapping strategies."""

    info = MapperInfo(
        name="ramp",
        family="heuristic",
        subfamily="failure-aware",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[38]",
        year=2018,
    )

    def _construct(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        order: list[int],
        window: int,
        rng: random.Random | None = None,
    ) -> tuple[Mapping | None, int | None]:
        """Constructive pass returning (mapping, failing node)."""
        state = PlacementState(dfg, cgra, ii)
        for nid in order:
            lb, ub = state.time_bounds(nid, window)
            if lb > ub:
                return None, nid
            placed = False
            for cell, t in default_candidates(state, nid, lb, ub, rng=rng):
                if state.place(nid, cell, t):
                    placed = True
                    break
            if not placed:
                return None, nid
        return state.to_mapping(), None

    @staticmethod
    def _prioritise_neighbourhood(
        dfg: DFG, order: list[int], focus: int
    ) -> list[int]:
        """Stable re-order: the failing op's connected ops move early.

        Keeps relative (topological) order within both partitions, so
        dependences remain respected.
        """
        hot = {focus}
        for e in dfg.in_edges(focus):
            hot.add(e.src)
        for e in dfg.out_edges(focus):
            hot.add(e.dst)
        return [n for n in order if n in hot] + [
            n for n in order if n not in hot
        ]

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = random.Random(self.seed)
        base_order = priority_order(dfg, by="height")

        def tries(ii_try: int) -> Iterator[Mapping | None]:
            window = 2 * ii_try + 2
            # Strategy 1: plain pass.
            mapping, failed = self._construct(
                dfg, cgra, ii_try, base_order, window
            )
            yield mapping
            # Strategy 2: wider window (more routing-in-time slack).
            mapping, failed2 = self._construct(
                dfg, cgra, ii_try, base_order, 2 * window
            )
            yield mapping
            # Strategy 3: failure-driven re-prioritisation.
            focus = failed if failed is not None else failed2
            if focus is not None:
                order = self._prioritise_neighbourhood(
                    dfg, base_order, focus
                )
                yield self._construct(dfg, cgra, ii_try, order, window)[0]
            # Strategy 4: randomised retries.
            for _ in range(RANDOM_RETRIES):
                yield self._construct(
                    dfg, cgra, ii_try, base_order, window, rng=rng
                )[0]

        return self.search(
            dfg, cgra, ii, tries,
            f"all remapping strategies exhausted on {cgra.name}",
        )
