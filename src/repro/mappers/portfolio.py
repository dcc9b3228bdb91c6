"""Portfolio mapper — race several mappers, keep the winner.

Twenty years of mapping methods (the survey's Table I) left no single
dominant technique: constructive heuristics are fast but brittle,
annealers robust but slow, and which one lands the best II depends on
the kernel.  The standard systems answer is an *algorithm portfolio*:
run several entrants on the same problem and keep the first (or best)
valid result.  With :mod:`repro.parallel` the entrants race on real
cores; losers are cancelled once a winner is decided.

Determinism: the winner is chosen by *entrant order*, not completion
order — policy ``"first"`` takes the lowest-index entrant that
produced a valid mapping, policy ``"best"`` waits for everyone and
takes the lowest II (ties broken by entrant order).  The portfolio
therefore returns the same mapping for a fixed seed whether its
entrants run in-process or on the worker pool.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.cache import get_cache
from repro.core.exceptions import MapFailure
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import create, register
from repro.ir.dfg import DFG
from repro.obs.tracer import get_tracer, tracing
from repro.parallel import PMapResult, pmap, race

__all__ = ["PortfolioMapper"]

_log = logging.getLogger("repro.mappers.portfolio")

#: Default entrants: a fast constructive heuristic, a routing-aware
#: constructive method, and two meta-heuristics with different search
#: shapes — cheap insurance against any single method's blind spots.
DEFAULT_ENTRANTS = ("list_sched", "edge_centric", "spr", "dresc")


def _entrant_task(shared: tuple, payload: tuple) -> Mapping:
    """One entrant's full mapping run (module-level for pickling).

    The problem ``(dfg, cgra)`` is race-constant and ships once per
    batch as the ``shared`` value; the payload is just the entrant's
    identity.
    """
    dfg, cgra = shared
    mname, seed, ii, trace = payload
    if not trace:
        return create(mname, seed=seed).map(dfg, cgra, ii=ii)
    with tracing():
        return create(mname, seed=seed).map(dfg, cgra, ii=ii)


def _lost(res: PMapResult) -> bool:
    """Whether a failed entrant lost the race (a timeout or a
    ``MapFailure``) rather than hit a bug."""
    return res.timed_out or isinstance(res.error, MapFailure)


@register
@dataclass(eq=False, kw_only=True)
class PortfolioMapper(Mapper):
    """Race a set of registered mappers; first/best valid mapping wins.

    Args:
        mappers: entrant registry names, in priority order (None: the
            :data:`DEFAULT_ENTRANTS`).
        policy: ``"first"`` — lowest-priority-index valid mapping
            wins, losers are cancelled; ``"best"`` — all entrants
            finish, lowest II wins (ties by priority order).
        jobs: worker processes; 0 = one per entrant (capped at the
            core count), 1 = run entrants serially in-process.
        timeout: per-entrant wall-clock budget in seconds.
    """

    info = MapperInfo(
        name="portfolio",
        family="metaheuristic",
        subfamily="portfolio",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="§VI (no single dominant method)",
        year=2022,
    )

    mappers: tuple[str, ...] | None = None
    policy: str = "first"
    jobs: int = 0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("first", "best"):
            raise ValueError(f"bad portfolio policy {self.policy!r}")
        self.mappers = (
            tuple(self.mappers) if self.mappers else DEFAULT_ENTRANTS
        )

    # ------------------------------------------------------------------
    def _seed_cache(
        self, dfg: DFG, cgra: CGRA, ii: int | None, winner: Mapping
    ) -> None:
        """Store the winner under its *entrant's* key too.

        A later direct call to the winning mapper (a re-run, a
        narrowed sweep) then hits immediately — the race's result
        seeds the cache for every round after the first.  Matters in
        the parallel path, where the entrant ran in a forked worker
        whose in-memory store died with it.
        """
        cache = get_cache()
        if cache is None or winner.mapper not in self.mappers:
            return
        entrant = create(winner.mapper, seed=self.seed)
        cache.put(cache.key(dfg, cgra, entrant, ii), winner)

    # ------------------------------------------------------------------
    def _effective_jobs(self) -> int:
        if self.jobs > 0:
            return self.jobs
        return min(len(self.mappers), os.cpu_count() or 1)

    def _pick_best(
        self, finished: list[tuple[int, Mapping]]
    ) -> Mapping | None:
        if not finished:
            return None
        return min(
            finished, key=lambda t: (t[1].ii or 10**9, t[0])
        )[1]

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        jobs = self._effective_jobs()
        tracer = get_tracer()
        shared = (dfg, cgra)
        tasks = [
            (mname, self.seed, ii, tracer.enabled)
            for mname in self.mappers
        ]
        if self.policy == "first":
            # A bug (anything but a lost race) also ends the race, so
            # it surfaces without running the entrants behind it.
            results = race(
                _entrant_task, tasks, jobs=jobs,
                timeout=self.timeout, shared=shared,
                accept=lambda r: r.ok or not _lost(r),
            )
        else:
            results = pmap(
                _entrant_task, tasks, jobs=jobs,
                timeout=self.timeout, shared=shared,
            )
        finished = [
            (i, r.value)
            for i, r in enumerate(results)
            if isinstance(r, PMapResult) and r.ok
        ]
        for i, r in enumerate(results):
            if isinstance(r, PMapResult) and not r.ok:
                if not _lost(r):
                    raise r.error  # a bug, not a lost race
                _log.debug(
                    "portfolio: %s lost: %s", self.mappers[i], r.error
                )
        winner = (
            finished[0][1] if self.policy == "first" and finished
            else self._pick_best(finished)
        )
        if winner is None:
            raise self.fail(
                f"all {len(self.mappers)} entrants failed on {dfg.name}",
                attempts=len(self.mappers),
            )
        # Graft the winner's own trace under our root span so
        # --profile sees inside the entrant, wherever it ran.
        if winner.ii is not None:
            tracer.progress("portfolio.best_ii", winner.ii)
        if tracer.enabled:
            tracer.tag(winner=winner.mapper)
            if winner.trace is not None and tracer.current is not None:
                tracer.current.children.append(winner.trace)
        self._seed_cache(dfg, cgra, ii, winner)
        return winner
