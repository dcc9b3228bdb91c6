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

Sampling copies numpy.  An episode draws each operation's cell with
:func:`weighted_permutation`, a pure-Python copy of
``Generator.choice(n, size=n, replace=False, p=p)``: the same
``rng.random`` draws, the same sequential cumulative sum and the same
right-sided search, so rl's mappings and the generator's state stay
exactly what numpy's call gives.  An episode reads only the first
index of a sampled permutation, but the whole permutation is drawn,
because the draws it takes decide the generator's state.  numpy's call
spends most of its time in array set-up that a few candidate cells do
not repay.  A test compares the copy with numpy, so a numpy release
that changes ``choice`` fails there instead of silently moving rl's
bytes.  The softmax itself stays on numpy (``np.exp`` may differ from
``math.exp`` in the last bit), and the REINFORCE update reuses the
distribution each action was drawn from.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState
from repro.mappers.schedule import priority_order

__all__ = ["RLMapper", "weighted_permutation"]

#: step size of the REINFORCE update on the policy logits
LEARNING_RATE = 0.4

#: numpy's tolerance on ``sum(p) - 1`` (``sqrt`` of float64's epsilon)
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: one REINFORCE step: (operation, sampled candidate index, the softmax
#: it was drawn from)
Step = tuple[int, int, np.ndarray]


def weighted_permutation(
    rng: np.random.Generator, p: list[float]
) -> list[int]:
    """``rng.choice(len(p), size=len(p), replace=False, p=p)``, in pure
    Python, with the same result and the same generator state after.

    numpy's loop: each round draws one uniform per index still
    missing, zeroes the weights of the indices found so far, takes the
    sequential cumulative sum divided by its last entry, finds each
    draw with a right-sided search, and keeps the new indices in the
    order first drawn.  It checks ``p`` as numpy does and raises
    :class:`ValueError` where numpy does.
    """
    n = len(p)
    total = comp = 0.0  # numpy sums p with Kahan's compensation
    for x in p:
        y = x - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if total != total:
        raise ValueError("probabilities contain NaN")
    if min(p) < 0.0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    if 0.0 in p:
        raise ValueError("fewer non-zero entries in p than size")
    weights = list(p)
    found: list[int] = []
    while len(found) < n:
        draws = rng.random(n - len(found)).tolist()
        cdf = list(accumulate(weights))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        for x in draws:
            idx = bisect_right(cdf, x)
            if weights[idx]:  # else drawn earlier in this round
                weights[idx] = 0.0
                found.append(idx)
    return found


@register
@dataclass(eq=False, kw_only=True)
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

    episodes: int = 120

    # ------------------------------------------------------------------
    def _episode(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        order: list[int],
        cand: dict[int, tuple[int, ...]],
        logits: dict[int, np.ndarray],
        rng: np.random.Generator,
        *,
        greedy: bool = False,
    ) -> tuple[float, Mapping | None, list[Step]]:
        """One placement episode; returns (reward, mapping, steps)."""
        state = PlacementState(dfg, cgra, ii)
        window = 2 * ii + 2
        steps: list[Step] = []
        placed = 0
        for nid in order:
            z = logits[nid]
            p = np.exp(z - z.max())
            p /= p.sum()
            if greedy:
                choice_order = np.argsort(-p).tolist()
            else:
                choice_order = weighted_permutation(rng, p.tolist())
            lb, ub = state.time_bounds(nid, window)
            done = False
            if lb <= ub:
                for idx in choice_order:
                    cell = cand[nid][idx]
                    for t in range(lb, ub + 1):
                        if state.place(nid, cell, t):
                            steps.append((nid, idx, p))
                            done = True
                            break
                    if done:
                        break
                    if not greedy:
                        break  # sampled cell failed: end of episode
            if not done:
                # Failure reward scales with progress so early episodes
                # still rank partial placements.
                return placed / len(order) - 1.0, None, steps
            placed += 1
        mapping = state.to_mapping()
        if mapping.validate(raise_on_error=False):
            return -0.5, None, steps
        # Success: prefer few route steps and short schedules.
        reward = (
            2.0
            - 0.05 * mapping.route_step_count()
            - 0.02 * mapping.schedule_length
        )
        return reward, mapping, steps

    def _reinforce(
        self,
        logits: dict[int, np.ndarray],
        steps: list[Step],
        advantage: float,
    ) -> None:
        """REINFORCE update on one episode's sampled actions: the
        softmax gradient of each action's log-probability, taken at the
        distribution the episode drew it from."""
        for nid, idx, p in steps:
            grad = -p
            grad[idx] += 1.0
            logits[nid] += LEARNING_RATE * advantage * grad

    def _train(
        self, dfg: DFG, cgra: CGRA, ii: int, rng: np.random.Generator
    ) -> Mapping | None:
        order = priority_order(dfg, by="height")
        cand = {
            nid: cgra.supporting_cells(dfg.node(nid).op) for nid in order
        }
        if any(not cs for cs in cand.values()):
            return None
        logits = {
            nid: np.zeros(len(cand[nid])) for nid in order
        }
        baseline = 0.0
        best: tuple[float, Mapping] | None = None
        for ep in range(self.episodes):
            reward, mapping, steps = self._episode(
                dfg, cgra, ii, order, cand, logits, rng
            )
            if mapping is not None and (
                best is None or reward > best[0]
            ):
                best = (reward, mapping)
                if mapping.route_step_count() == 0:
                    return mapping  # nothing left for learning to win
            self._reinforce(logits, steps, reward - baseline)
            baseline += 0.1 * (reward - baseline)
        # A final greedy rollout of the learned policy.
        _, mapping, _ = self._episode(
            dfg, cgra, ii, order, cand, logits, rng, greedy=True
        )
        if mapping is not None and (
            best is None
            or mapping.route_step_count() <= best[1].route_step_count()
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
