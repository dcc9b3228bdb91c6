"""Reinforcement-learning mapper — the survey's §IV-A trend, working.

"The methods based on artificial intelligence and machine learning are
clearly interesting trails [74]."  Liu et al. train an agent to place
DFG nodes on a CGRA; this implementation keeps the learning loop in
its simplest honest form — a tabular policy-gradient (REINFORCE)
placement agent:

* an episode walks the operations in priority order and *samples* a
  cell for each from a per-step softmax policy; the scheduler assigns
  the earliest cycle from which the constructive engine can route;
* the reward combines success, route cost, and schedule compactness;
* the policy logits are updated with the advantage against a running
  baseline, so placements that route cheaply become more likely.

No neural network is needed at this problem size — the point
reproduced is the *method family*: mapping quality improving across
episodes from reward feedback rather than from hand-written cost
functions.  Like all stochastic mappers here it is seeded and
deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState
from repro.mappers.schedule import priority_order

__all__ = ["RLMapper"]


@register
class RLMapper(Mapper):
    """Tabular REINFORCE placement agent."""

    info = MapperInfo(
        name="rl",
        family="metaheuristic",
        subfamily="RL",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[74]",
        year=2019,
    )

    def __init__(
        self,
        seed: int = 0,
        *,
        episodes: int = 120,
        lr: float = 0.4,
        explore_temp: float = 1.0,
    ) -> None:
        super().__init__(seed)
        self.episodes = episodes
        self.lr = lr
        self.explore_temp = explore_temp

    # ------------------------------------------------------------------
    def _episode(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        order: list[int],
        cand: dict[int, list[int]],
        logits: dict[int, np.ndarray],
        rng: np.random.Generator,
        *,
        greedy: bool = False,
    ) -> tuple[float, Mapping | None, dict[int, int]]:
        """One placement episode; returns (reward, mapping, actions)."""
        state = PlacementState(dfg, cgra, ii)
        window = 2 * ii + 2
        actions: dict[int, int] = {}
        placed = 0
        for nid in order:
            z = logits[nid] / self.explore_temp
            p = np.exp(z - z.max())
            p /= p.sum()
            if greedy:
                choice_order = np.argsort(-p)
            else:
                choice_order = rng.choice(
                    len(p), size=len(p), replace=False, p=p
                )
            lb, ub = state.time_bounds(nid, window)
            done = False
            if lb <= ub:
                for idx in choice_order:
                    cell = cand[nid][int(idx)]
                    for t in range(lb, ub + 1):
                        if state.place(nid, cell, t):
                            actions[nid] = int(idx)
                            done = True
                            break
                    if done:
                        break
                    if not greedy:
                        break  # sampled cell failed: end of episode
            if not done:
                # Failure reward scales with progress so early episodes
                # still rank partial placements.
                return placed / len(order) - 1.0, None, actions
            placed += 1
        mapping = state.to_mapping(self.info.name)
        if mapping.validate(raise_on_error=False):
            return -0.5, None, actions
        # Success: prefer few route steps and short schedules.
        reward = (
            2.0
            - 0.05 * mapping.route_step_count()
            - 0.02 * mapping.schedule_length
        )
        return reward, mapping, actions

    def _train(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: np.random.Generator
    ) -> Mapping | None:
        order = priority_order(dfg, by="height")
        cand = {
            nid: [
                c.cid for c in cgra.cells
                if c.supports(dfg.node(nid).op)
            ]
            for nid in order
        }
        if any(not cs for cs in cand.values()):
            return None
        logits = {
            nid: np.zeros(len(cand[nid])) for nid in order
        }
        baseline = 0.0
        best: tuple[float, Mapping] | None = None
        for ep in range(self.episodes):
            reward, mapping, actions = self._episode(
                dfg, cgra, ii, order, cand, logits, rng
            )
            if mapping is not None and (
                best is None or reward > best[0]
            ):
                best = (reward, mapping)
                if mapping.route_step_count() == 0:
                    return mapping  # nothing left for learning to win
            advantage = reward - baseline
            baseline += 0.1 * (reward - baseline)
            # REINFORCE update on the sampled actions.
            for nid, idx in actions.items():
                z = logits[nid] / self.explore_temp
                p = np.exp(z - z.max())
                p /= p.sum()
                grad = -p
                grad[idx] += 1.0
                logits[nid] += self.lr * advantage * grad
        # A final greedy rollout of the learned policy.
        _, mapping, _ = self._episode(
            dfg, cgra, ii, order, cand, logits, rng, greedy=True
        )
        if mapping is not None and (best is None or True):
            if best is None or mapping.route_step_count() <= (
                best[1].route_step_count()
            ):
                return mapping
        return best[1] if best else None

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        rng = np.random.default_rng(self.seed)
        return self.search(
            dfg, cgra, ii,
            lambda ii_try: [self._train(dfg, cgra, ii_try, rng)],
            f"policy never learned a feasible placement on {cgra.name}",
        )
