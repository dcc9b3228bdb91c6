"""SAT-based mapper.

Miyasaka et al. [17] encode DFG-onto-CGRA mapping as Boolean
satisfiability.  The adjacency-placement model becomes CNF over this
package's CDCL solver (:mod:`repro.solvers.sat`):

* ``x[v, s]`` — operation ``v`` occupies slot ``s = (cell, cycle)``;
  exactly one slot per operation;
* at most one operation per ``(cell, cycle mod II)`` resource slot;
* per edge, each producer slot implies the disjunction of compatible
  consumer slots (and vice versa).

An UNSAT answer proves the windowed model infeasible for that II and
route-insertion round — the defining property of the exact column of
Table I.  A *conflict-limit* overrun, by contrast, leaves the II
**undetermined**: the mapper still escalates, but reports that
infeasibility was not proven.

The II escalation is **incremental** (SAT-MapIt-style): one CDCL
instance per route-insertion round persists across II values.  Slot
variables are shared between IIs (same ``(op, cell, cycle)`` meaning),
each II's constraints are guarded by a fresh selector literal, and the
solve runs under ``assumptions=[selector]`` — so learned clauses,
variable activities, and saved phases carry over instead of being
rebuilt from scratch at every II.  The non-incremental baseline (a
fresh encoding per II decided by chronological DPLL) lives in
``tests/oracles`` for the equivalence suite and the solver benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers import adjplace
from repro.obs.tracer import CANDIDATES_EXPLORED, ROUTING_ATTEMPTS, get_tracer
from repro.solvers.sat import CNF, SatSolver

__all__ = ["SATMapper"]


class _IncrementalModel:
    """One CNF/CDCL pair reused across the II escalation of one DFG.

    Slot variables are allocated once per ``(op, cell, cycle)`` triple;
    the per-II constraints (exactly-one over that II's domain, folded
    resource exclusivity, edge compatibility) are all guarded by a
    per-II selector literal.  Escalating retires the old selector with
    a unit clause and encodes the next II on top of the shared state.
    """

    def __init__(self) -> None:
        self.cnf = CNF()
        self.solver = SatSolver(self.cnf)
        self.slot_var: dict[tuple[int, int, int], int] = {}
        self.op_slots: dict[int, list[tuple[int, int]]] = {}
        self.selector: int | None = None

    def encode_ii(
        self, dfg: DFG, cgra: CGRA, ii: int
    ) -> tuple[int, dict[tuple[int, adjplace.Slot], int]]:
        """Guarded encoding for one II; returns (selector, var map)."""
        cnf = self.cnf
        if self.selector is not None:
            cnf.add(-self.selector)  # retire the previous II permanently
        sel = cnf.new_var()
        self.selector = sel

        domains = adjplace.slot_domains(dfg, cgra, ii)
        var: dict[tuple[int, adjplace.Slot], int] = {}
        for nid, dom in domains.items():
            lits = []
            for s in dom:
                key = (nid, s[0], s[1])
                v = self.slot_var.get(key)
                if v is None:
                    v = cnf.new_var()
                    self.slot_var[key] = v
                    self.op_slots.setdefault(nid, []).append(s)
                var[(nid, s)] = v
                lits.append(v)
            cnf.exactly_one(lits, guard=sel)
            # Slots introduced by earlier IIs but outside this II's
            # domain must be off while this selector is active.
            dom_set = set(dom)
            for s in self.op_slots[nid]:
                if s not in dom_set:
                    cnf.add(-sel, -self.slot_var[(nid, s[0], s[1])])

        # Resource exclusivity per (cell, slot mod II).
        by_res: dict[tuple[int, int], list[int]] = {}
        for (nid, (c, t)), v in var.items():
            by_res.setdefault((c, t % ii), []).append(v)
        for lits in by_res.values():
            if len(lits) > 1:
                cnf.at_most_one(lits, guard=sel)

        # Edge compatibility, implication form in both directions: the
        # consumer side reads the producer rows transposed, which keeps
        # each support list ascending.  No support forbids the slot.
        for e, rows in adjplace.edge_supports(dfg, cgra, ii, domains):
            xu = [var[(e.src, s)] for s in domains[e.src]]
            if e.src == e.dst:
                for x, keep in zip(xu, rows):
                    if not keep:
                        cnf.add(-sel, -x)
                continue
            xv = [var[(e.dst, s)] for s in domains[e.dst]]
            cols: list[list[int]] = [[] for _ in xv]
            for x, row in zip(xu, rows):
                cnf.implies_any(x, [xv[j] for j in row], guard=sel)
                for j in row:
                    cols[j].append(x)
            for y, col in zip(xv, cols):
                cnf.implies_any(y, col, guard=sel)
        return sel, var


@register
@dataclass(eq=False, kw_only=True)
class SATMapper(Mapper):
    """CNF encoding of the adjacency-placement model."""

    info = MapperInfo(
        name="sat",
        family="exact",
        subfamily="SAT",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[17]",
        year=2021,
        exact=True,
    )

    conflict_limit: int = 200_000

    def _solve(
        self, model: _IncrementalModel, dfg: DFG, cgra: CGRA, ii: int
    ) -> tuple[dict[int, adjplace.Slot] | None, bool]:
        """(assignment or None, conflict limit hit?) for one II."""
        sel, var = model.encode_ii(dfg, cgra, ii)
        res = model.solver.solve(
            assumptions=[sel], conflict_limit=self.conflict_limit
        )
        if not res.sat:
            return None, res.limit_reached
        assign: dict[int, adjplace.Slot] = {}
        for (nid, s), v in var.items():
            if res.assignment[v]:
                assign[nid] = s
        return assign, False

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        tracer = get_tracer()
        undetermined = False
        models: dict[int, _IncrementalModel] = {}

        def solve(
            r: int, work: DFG, ii_try: int
        ) -> dict[int, adjplace.Slot] | None:
            nonlocal undetermined
            with tracer.span("route_round", round=r):
                tracer.count(CANDIDATES_EXPLORED, work.op_count())
                model = models.get(r)
                if model is None:
                    model = models[r] = _IncrementalModel()
                assign, limited = self._solve(model, work, cgra, ii_try)
                undetermined = undetermined or limited
                if assign is not None:
                    tracer.count(ROUTING_ATTEMPTS)
            return assign

        def failure() -> str:
            if undetermined:
                return (
                    "undetermined: the conflict limit was reached before"
                    f" infeasibility could be proven on {cgra.name}"
                    " (raise conflict_limit to get a proof)"
                )
            return f"UNSAT for every windowed model on {cgra.name}"

        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(dfg, cgra, solve),
            failure,
        )
