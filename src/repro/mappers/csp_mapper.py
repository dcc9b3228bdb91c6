"""Constraint-programming mapper.

Raffin et al. [43] model scheduling, binding and routing of their
reconfigurable multimedia architecture as a constraint satisfaction
problem and hand it to a CP solver.  Here the adjacency-placement
model becomes a finite-domain CSP over this package's own solver
(:mod:`repro.solvers.csp`): one variable per operation with
``(cell, cycle)`` domains, one set-lookup constraint per edge read
from :func:`repro.mappers.adjplace.edge_supports`, and folded FU-slot
exclusivity as one all-different keyed on ``(cell, cycle mod II)`` —
AC-3 plus MRV/forward-checking do the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.solvers.csp import CSP, CSPTimeout, CSPUnsat

__all__ = ["CSPMapper"]


@register
@dataclass(eq=False, kw_only=True)
class CSPMapper(Mapper):
    """Finite-domain CSP formulation (CP, Raffin et al. style)."""

    info = MapperInfo(
        name="csp",
        family="exact",
        subfamily="CP",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[43]",
        year=2010,
        exact=True,
    )

    node_limit: int = 150_000

    def _solve(
        self,
        dfg: DFG,
        cgra: CGRA,
        ii: int,
        hint: dict[int, adjplace.Slot] | None = None,
    ) -> dict[int, adjplace.Slot] | None:
        domains = adjplace.slot_domains(dfg, cgra, ii)
        csp = CSP(name=f"map_{dfg.name}_ii{ii}")
        for nid, dom in domains.items():
            csp.add_var(f"n{nid}", dom)

        for e, rows in adjplace.edge_supports(dfg, cgra, ii, domains):
            du = domains[e.src]
            if e.src == e.dst:
                # Self-recurrence: the slot must feed itself.
                keep = {s for s, ok in zip(du, rows) if ok}
                csp.add_constraint((f"n{e.src}",), keep.__contains__)
                continue
            dv = domains[e.dst]
            sup = {su: {dv[j] for j in row} for su, row in zip(du, rows)}
            csp.add_constraint(
                (f"n{e.src}", f"n{e.dst}"),
                lambda su, sv, sup=sup: sv in sup[su],
                name=f"edge{e.src}->{e.dst}",
            )
        csp.add_all_different(
            list(csp.domains), key=lambda s: (s[0], s[1] % ii)
        )

        # Value-ordering warm start: a prior assignment (earlier II or
        # round) is tried first wherever its slots survive in the new
        # domains — completeness is unaffected.
        value_hints = None
        if hint is not None:
            value_hints = {f"n{nid}": s for nid, s in hint.items()}
        try:
            sol = csp.solve(
                node_limit=self.node_limit, value_hints=value_hints
            )
        except (CSPUnsat, CSPTimeout):
            return None
        return {nid: sol[f"n{nid}"] for nid in domains}

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        hints: dict[int, dict[int, adjplace.Slot]] = {}

        def solve(
            r: int, work: DFG, ii_try: int
        ) -> dict[int, adjplace.Slot] | None:
            assign = self._solve(work, cgra, ii_try, hint=hints.get(r))
            if assign is not None:
                hints[r] = assign
            return assign

        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(dfg, cgra, solve),
            f"CSP proved the windowed model infeasible on {cgra.name}",
        )
