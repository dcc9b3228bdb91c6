"""Sweep architecture parameters against a kernel suite.

Each design point instantiates a CGRA (size, topology, register-file
depth, memory-column policy, routing discipline), maps the whole suite
with a chosen mapper, and aggregates:

* **performance** — mean 1/II over the kernels that mapped (failed
  kernels are charged a sequential-execution fallback, so fragile
  architectures do not win by cherry-picking);
* **cost** — a gate-count proxy: cells weighted by their feature set
  (ALU, memory port, RF depth) plus links;
* **success rate** — the fraction of kernels mapped at all.

:func:`pareto_front` then yields the cost/performance frontier — the
artifact the cited exploration frameworks print.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product
from os import PathLike
from typing import Sequence

from repro.arch import presets
from repro.arch.cgra import CGRA
from repro.cache import MappingCache, cache_scope
from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.ir import kernels as kernel_lib
from repro.parallel import pmap

__all__ = ["DesignPoint", "default_space", "explore", "pareto_front"]

_log = logging.getLogger("repro.dse.explorer")

#: Gate-cost weights of the cost proxy (relative units).
COST_ALU = 10.0
COST_MEM_PORT = 6.0
COST_RF_ENTRY = 1.0
COST_LINK = 0.5
COST_BYPASS = 2.0


@dataclass(frozen=True)
class DesignPoint:
    """One explored architecture with its aggregate results."""

    size: int
    topology: str
    rf_size: int
    mem_cells: str
    performance: float
    cost: float
    success_rate: float

    def label(self) -> str:
        return (
            f"{self.size}x{self.size}/{self.topology}"
            f"/rf{self.rf_size}/mem-{self.mem_cells}"
        )


def architecture_cost(cgra: CGRA) -> float:
    """Gate-count proxy for one array."""
    total = 0.0
    for cell in cgra.cells:
        if cell.is_compute:
            total += COST_ALU
        if cell.has_memory_port:
            total += COST_MEM_PORT
        total += COST_RF_ENTRY * cell.rf_size
    total += COST_LINK * len(cgra.links)
    if not cgra.route_shares_fu:
        total += COST_BYPASS * cgra.n_cells
    return total


def default_space() -> list[dict]:
    """A compact sweep: 24 design points."""
    return [
        {
            "size": size,
            "topology": topo,
            "rf_size": rf,
            "mem_cells": mem,
        }
        for size, topo, rf, mem in product(
            (4, 6),
            ("mesh", "diagonal", "one_hop"),
            (2, 8),
            ("left", "all"),
        )
    ]


def _params_key(params: dict) -> tuple:
    return (
        params["size"], params["topology"],
        params["rf_size"], params["mem_cells"],
    )


#: Memoized :func:`architecture_cost` per design point — the cost is a
#: pure function of the parameters, so the fallback path never needs
#: to re-instantiate the preset array just to price it.
_COST_CACHE: dict[tuple, float] = {}


def _point_cost(params: dict) -> float:
    key = _params_key(params)
    cost = _COST_CACHE.get(key)
    if cost is None:
        cost = _COST_CACHE[key] = architecture_cost(
            presets.simple_cgra(
                params["size"],
                params["size"],
                topology=params["topology"],
                rf_size=params["rf_size"],
                mem_cells=params["mem_cells"],
            )
        )
    return cost


def evaluate_point(
    params: dict,
    suite: Sequence[str],
    *,
    mapper: str = "list_sched",
) -> DesignPoint:
    """Map the suite on one architecture; aggregate the outcome."""
    cgra = presets.simple_cgra(
        params["size"],
        params["size"],
        topology=params["topology"],
        rf_size=params["rf_size"],
        mem_cells=params["mem_cells"],
    )
    cost = _COST_CACHE.setdefault(
        _params_key(params), architecture_cost(cgra)
    )
    perfs: list[float] = []
    succeeded = 0
    for kname in suite:
        dfg = kernel_lib.kernel(kname)
        if dfg.memory_ops() and not cgra.memory_cells():
            perfs.append(1.0 / dfg.op_count())
            continue
        try:
            mapping = create(mapper).map(dfg, cgra)
            perfs.append(1.0 / mapping.ii)
            succeeded += 1
        except MapFailure as ex:
            _log.warning(
                "design point %sx%s/%s: %s failed on %s, charging the"
                " sequential fallback (%s)",
                params["size"], params["size"], params["topology"],
                mapper, kname, ex,
            )
            perfs.append(1.0 / dfg.op_count())  # host fallback
    return DesignPoint(
        size=params["size"],
        topology=params["topology"],
        rf_size=params["rf_size"],
        mem_cells=params["mem_cells"],
        performance=sum(perfs) / len(perfs),
        cost=cost,
        success_rate=succeeded / len(suite),
    )


def _fallback_point(params: dict, suite: Sequence[str]) -> DesignPoint:
    """The all-kernels-failed outcome: every kernel charged the host
    sequential fallback, success rate zero — what a design point that
    blew its time budget is worth to the sweep."""
    perfs = [
        1.0 / kernel_lib.kernel(kname).op_count() for kname in suite
    ]
    return DesignPoint(
        size=params["size"],
        topology=params["topology"],
        rf_size=params["rf_size"],
        mem_cells=params["mem_cells"],
        performance=sum(perfs) / len(perfs),
        cost=_point_cost(params),
        success_rate=0.0,
    )


def _point_task(suite: tuple, task: tuple) -> DesignPoint:
    """pmap payload: one design point (module-level for pickling).

    The kernel suite is batch-constant and rides in as the ``shared``
    value.
    """
    params, mapper = task
    return evaluate_point(params, suite, mapper=mapper)


def explore(
    space: Sequence[dict] | None = None,
    suite: Sequence[str] | None = None,
    *,
    mapper: str = "list_sched",
    jobs: int = 1,
    timeout: float | None = None,
    cache: bool | str | PathLike | MappingCache | None = None,
) -> list[DesignPoint]:
    """Evaluate every design point in the space.

    ``jobs > 1`` evaluates points over a process pool; ``timeout``
    bounds one point's wall-clock in seconds, with overruns demoted to
    the sequential-fallback outcome rather than hanging the sweep.
    The returned list is identical for any ``jobs`` value.

    ``cache`` (see :func:`repro.cache.cache_scope`) enables the
    content-addressed mapping cache for the sweep.  Design points that
    share a feasibility-equivalent architecture and kernel re-use each
    other's mappings — across points, across repeated sweeps, and
    (with a path argument) across processes via the shared disk tier.
    """
    kernels = suite or ["dot_product", "fir4", "sobel_x", "if_select"]
    points = list(space if space is not None else default_space())
    tasks = [(params, mapper) for params in points]
    pts: list[DesignPoint] = []
    with cache_scope(cache) as active:
        # Identical (params, mapper) points in one sweep do the same
        # work; with the cache on they dedupe in-batch (the point key
        # is the whole solver-visible identity).
        keys = (
            [f"pt-{_params_key(p)}-{m}" for p, m in tasks]
            if active is not None
            else None
        )
        results = pmap(
            _point_task, tasks, jobs=jobs, timeout=timeout,
            shared=tuple(kernels), keys=keys,
        )
    for res, (params, _mapper) in zip(results, tasks):
        if res.ok:
            pts.append(res.value)
        elif res.timed_out:
            _log.warning(
                "design point %sx%s/%s: %s; charging the"
                " sequential fallback",
                params["size"], params["size"], params["topology"],
                res.error,
            )
            pts.append(_fallback_point(params, kernels))
        else:
            raise res.error
    return sorted(pts, key=lambda p: (p.cost, -p.performance))


def pareto_front(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """Cost/performance non-dominated subset (lower cost, higher perf)."""
    front: list[DesignPoint] = []
    for p in sorted(points, key=lambda p: (p.cost, -p.performance)):
        if not front or p.performance > front[-1].performance + 1e-12:
            front.append(p)
    return front
