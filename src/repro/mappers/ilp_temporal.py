"""Space-time ILP mapper.

The integer-linear-programming line of Table I ([41] Brenner et al.'s
optimal simultaneous scheduling/binding/routing; [15] Guo et al.'s
data-arrival synchronisers): binding and scheduling solved together as
one 0/1 program.  Variables ``x[v, s]`` choose a ``(cell, cycle)``
slot per operation; constraints are assignment, folded FU exclusivity
and edge compatibility (implication form).  The program is solved as
pure feasibility: the II search stops at the first II whose model
admits an integral point, and infeasibility of every lower II is
*proven* by the MILP solver (HiGHS) — the defining feature of the
exact column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.solvers.ilp import ILP

__all__ = ["ILPTemporalMapper"]


@register
@dataclass(eq=False, kw_only=True)
class ILPTemporalMapper(Mapper):
    """0/1 ILP over (cell, cycle) slots, solved exactly by HiGHS."""

    info = MapperInfo(
        name="ilp",
        family="exact",
        subfamily="ILP",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[41], [15], [34]",
        year=2006,
        exact=True,
    )

    node_limit: int = 20_000
    time_limit: float = 20.0

    def cache_token(self) -> str:
        # Solver version marker: HiGHS maps differ from those of the
        # hand-rolled branch and bound before it, whose keys must miss.
        return "solver=highs-milp;" + super().cache_token()

    def _solve(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> dict[int, adjplace.Slot] | None:
        domains = adjplace.slot_domains(dfg, cgra, ii)
        ilp = ILP(name=f"map_{dfg.name}_ii{ii}")
        var: dict[tuple[int, adjplace.Slot], int] = {}
        for nid, dom in domains.items():
            for s in dom:
                var[(nid, s)] = ilp.add_var(f"x_{nid}_{s[0]}_{s[1]}")
            ilp.add_constraint(
                {var[(nid, s)]: 1.0 for s in dom}, "==", 1.0
            )

        by_res: dict[tuple[int, int], list[int]] = {}
        for (nid, (c, t)), v in var.items():
            by_res.setdefault((c, t % ii), []).append(v)
        for vs in by_res.values():
            if len(vs) > 1:
                ilp.add_constraint({v: 1.0 for v in vs}, "<=", 1.0)

        for e, rows in adjplace.edge_supports(dfg, cgra, ii, domains):
            xu = [var[(e.src, s)] for s in domains[e.src]]
            if e.src == e.dst:
                for x, keep in zip(xu, rows):
                    if not keep:
                        ilp.add_constraint({x: 1.0}, "<=", 0.0)
                continue
            xv = [var[(e.dst, s)] for s in domains[e.dst]]
            for x, row in zip(xu, rows):
                # x[u, su] <= sum of compatible x[v, sv]
                coeffs = {xv[j]: 1.0 for j in row}
                coeffs[x] = -1.0
                ilp.add_constraint(coeffs, ">=", 0.0)

        # Pure feasibility: any integral point proves the II, so the
        # first incumbent terminates the search immediately.
        res = ilp.solve(
            node_limit=self.node_limit, time_limit=self.time_limit
        )
        if not res.ok:
            return None
        assign: dict[int, adjplace.Slot] = {}
        for (nid, s), v in var.items():
            if res.x[v] > 0.5:
                assign[nid] = s
        return assign

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(
                dfg, cgra,
                lambda r, work, ii_try: self._solve(work, cgra, ii_try),
            ),
            f"ILP proved the windowed model infeasible on {cgra.name}",
        )
