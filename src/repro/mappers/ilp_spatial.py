"""Spatial ILP mapper.

Chin & Anderson's architecture-agnostic ILP [34] (and the
constraint-centric spatial scheduler of Nowatzki et al. [35]) bind a
dataflow graph onto cells exactly: ``x[v, c]`` binaries, one cell per
op, one op per cell, and every edge constrained to land on physically
adjacent cells.  Multi-hop communication is recovered by ROUTE-node
insertion rounds (the ROUTE ops occupy cells, exactly like the route
resources of the published formulations); an infeasible verdict at a
round is *proven* by the MILP solver (HiGHS).

The objective minimises total edge distance, which for the adjacency
model means preferring same-cell self-edges and tight clusters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.mappers.regraph import split_dist0_edges
from repro.mappers.spatial_common import candidate_cells, finalize
from repro.obs.tracer import CANDIDATES_EXPLORED, ROUTING_ATTEMPTS, get_tracer
from repro.solvers.ilp import ILP

__all__ = ["ILPSpatialMapper"]

_log = logging.getLogger("repro.mappers.ilp_spatial")

#: ROUTE-insertion rounds tried before the verdict is final
ROUTE_ROUNDS = 2


@register
@dataclass(eq=False, kw_only=True)
class ILPSpatialMapper(Mapper):
    """Exact spatial binding via 0/1 ILP."""

    info = MapperInfo(
        name="ilp_spatial",
        family="exact",
        subfamily="ILP",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[34], [35]",
        year=2018,
        exact=True,
    )

    node_limit: int = 20_000
    time_limit: float = 20.0

    def cache_token(self) -> str:
        # Solver version marker: HiGHS maps differ from those of the
        # hand-rolled branch and bound before it, whose keys must miss.
        return "solver=highs-milp;" + super().cache_token()

    def _solve(self, dfg: DFG, cgra: CGRA) -> dict[int, int] | None:
        nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
        cands = {nid: candidate_cells(dfg, cgra, nid) for nid in nodes}
        if any(not c for c in cands.values()):
            return None
        ilp = ILP(name=f"spatial_{dfg.name}")
        var: dict[tuple[int, int], int] = {}
        for nid in nodes:
            for c in cands[nid]:
                var[(nid, c)] = ilp.add_var(f"x_{nid}_{c}")
            ilp.add_constraint(
                {var[(nid, c)]: 1.0 for c in cands[nid]}, "==", 1.0
            )
        by_cell: dict[int, list[int]] = {}
        for (nid, c), v in var.items():
            by_cell.setdefault(c, []).append(v)
        for vs in by_cell.values():
            if len(vs) > 1:
                ilp.add_constraint({v: 1.0 for v in vs}, "<=", 1.0)

        for e in adjplace.real_edges(dfg):
            if e.src == e.dst:
                continue  # self-edges live on the op's own cell
            for cu in cands[e.src]:
                support = {
                    var[(e.dst, cv)]: 1.0
                    for cv in cands[e.dst]
                    if cv != cu and cgra.has_link(cu, cv)
                }
                coeffs = dict(support)
                coeffs[var[(e.src, cu)]] = -1.0
                ilp.add_constraint(coeffs, ">=", 0.0)

        ilp.set_objective(
            {
                v: float(cgra.coords(c)[0] + cgra.coords(c)[1]) * 0.01
                for (nid, c), v in var.items()
            }
        )
        res = ilp.solve(
            node_limit=self.node_limit, time_limit=self.time_limit
        )
        if not res.ok:
            return None
        binding: dict[int, int] = {}
        for (nid, c), v in var.items():
            if res.x[v] > 0.5:
                binding[nid] = c
        return binding

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.first_valid(
            self._rounds(dfg, cgra),
            f"ILP proved spatial binding infeasible on {cgra.name}"
            f" (within {ROUTE_ROUNDS} route rounds)",
        )

    def _rounds(self, dfg: DFG, cgra: CGRA) -> Iterator[Mapping | None]:
        """One candidate per ROUTE-insertion round."""
        tracer = get_tracer()
        for rounds in range(ROUTE_ROUNDS + 1):
            if rounds:
                _log.warning(
                    "ilp_spatial: adjacency model infeasible for %s,"
                    " inserting route nodes (round %d)",
                    dfg.name, rounds,
                )
            work = dfg if rounds == 0 else split_dist0_edges(dfg, rounds)
            if work.op_count() > len(cgra.compute_cells()):
                # Further insertion cannot fit spatially; the round
                # still counts as an attempt.
                yield None
                return
            mapping = None
            with tracer.span(
                "route_round", round=rounds, ops=work.op_count()
            ):
                tracer.count(CANDIDATES_EXPLORED, work.op_count())
                binding = self._solve(work, cgra)
                if binding is not None:
                    tracer.count(ROUTING_ATTEMPTS)
                    mapping = finalize(work, cgra, binding)
            yield mapping
