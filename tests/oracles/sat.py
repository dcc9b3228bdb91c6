"""Reference SAT engine: chronological DPLL, and the SAT mapper on it.

:class:`DPLLSolver` is the pre-CDCL engine — same :class:`~repro
.solvers.sat.CNF` in, same :class:`~repro.solvers.sat.SatResult` out —
so every formula can be replayed against it: the fuzz suite
(``tests/solvers/test_sat_fuzz.py``) checks the CDCL engine's sat/unsat
verdicts against it on seeded random CNFs.

:class:`DPLLSATMapper` is :class:`~repro.mappers.sat_mapper.SATMapper`
with the per-II solve swapped for the non-incremental baseline: a
fresh CNF encoding of the windowed model at every II, decided by
:class:`DPLLSolver`.  The exact-agreement suite compares the incremental CDCL mapper
against it: the same best II, with at most half the decisions.
"""

from __future__ import annotations

from oracles.adjplace import compatible
from repro.mappers import adjplace
from repro.mappers.sat_mapper import SATMapper
from repro.obs.metrics import SAT_CONFLICTS, get_metrics
from repro.obs.tracer import (
    SOLVER_CLAUSES,
    SOLVER_CONFLICTS,
    SOLVER_DECISIONS,
    get_tracer,
)
from repro.solvers.sat import CNF, SatResult

__all__ = ["DPLLSATMapper", "DPLLSolver"]


class DPLLSolver:
    """Chronological DPLL over a :class:`CNF` (the retained reference).

    Two-watched-literal unit propagation and activity-bumped branching,
    no clause learning.
    """

    def __init__(self, cnf: CNF) -> None:
        self.cnf = cnf
        self.n = cnf.n_vars

    def solve(self, *, conflict_limit: int | None = None) -> SatResult:
        """Run DPLL; returns a :class:`SatResult`."""
        tracer = get_tracer()
        if not tracer.enabled:
            result = self._solve_impl(conflict_limit=conflict_limit)
            get_metrics().histogram(SAT_CONFLICTS).observe(result.conflicts)
            return result
        with tracer.span(
            "sat_solve", vars=self.n, clauses=len(self.cnf.clauses)
        ) as span:
            result = self._solve_impl(conflict_limit=conflict_limit)
            span.count(SOLVER_CLAUSES, len(self.cnf.clauses))
            span.count(SOLVER_CONFLICTS, result.conflicts)
            span.count(SOLVER_DECISIONS, result.decisions)
            span.tag(sat=result.sat, limit_reached=result.limit_reached)
            get_metrics().histogram(SAT_CONFLICTS).observe(result.conflicts)
            return result

    def _solve_impl(self, *, conflict_limit: int | None = None) -> SatResult:
        n = self.n
        clauses = [list(c) for c in self.cnf.clauses]
        # assignment[v] in {None, True, False}; trail for backtracking.
        assign: list[bool | None] = [None] * (n + 1)
        trail: list[int] = []  # literals in assignment order
        trail_lim: list[int] = []  # trail length at each decision level
        activity = [0.0] * (n + 1)
        # Explicit propagation state: index of the next trail literal
        # to propagate (everything before it is fully propagated).
        prop_head = 0

        # Two-watched-literal scheme.
        watches: dict[int, list[int]] = {}  # literal -> clause indices
        for ci, cl in enumerate(clauses):
            if len(cl) == 1:
                continue
            for lit in cl[:2]:
                watches.setdefault(lit, []).append(ci)

        def value(lit: int) -> bool | None:
            v = assign[abs(lit)]
            if v is None:
                return None
            return v if lit > 0 else not v

        def enqueue(lit: int) -> bool:
            v = abs(lit)
            val = lit > 0
            if assign[v] is not None:
                return assign[v] == val
            assign[v] = val
            trail.append(lit)
            return True

        conflicts = 0
        decisions = 0

        def propagate() -> bool:
            """Unit propagation from ``prop_head``; False on conflict."""
            nonlocal prop_head
            while prop_head < len(trail):
                lit = trail[prop_head]
                prop_head += 1
                neg = -lit
                wl = watches.get(neg, [])
                j = 0
                while j < len(wl):
                    ci = wl[j]
                    cl = clauses[ci]
                    # Ensure neg is cl[1] (watch the other as cl[0]).
                    if cl[0] == neg:
                        cl[0], cl[1] = cl[1], cl[0]
                    if value(cl[0]) is True:
                        j += 1
                        continue
                    # Find a new literal to watch.
                    moved = False
                    for k in range(2, len(cl)):
                        if value(cl[k]) is not False:
                            cl[1], cl[k] = cl[k], cl[1]
                            watches.setdefault(cl[1], []).append(ci)
                            wl[j] = wl[-1]
                            wl.pop()
                            moved = True
                            break
                    if moved:
                        continue
                    # Clause is unit or conflicting on cl[0].
                    if value(cl[0]) is False:
                        prop_head = len(trail)
                        for l in cl:
                            activity[abs(l)] += 1.0
                        return False
                    enqueue(cl[0])
                    j += 1
            return True

        # Assert unit clauses at level 0.
        for cl in clauses:
            if len(cl) == 1:
                if not enqueue(cl[0]):
                    return SatResult(False, conflicts=0)
        if not propagate():
            return SatResult(False, conflicts=1)

        level = 0
        while True:
            # Pick an unassigned variable with max activity.
            pick = 0
            best = -1.0
            for v in range(1, n + 1):
                if assign[v] is None and activity[v] >= best:
                    best = activity[v]
                    pick = v
            if pick == 0:
                model = {v: bool(assign[v]) for v in range(1, n + 1)}
                return SatResult(True, model, conflicts, decisions)

            decisions += 1
            level += 1
            trail_lim.append(len(trail))
            enqueue(pick)  # try True first

            while not propagate():
                conflicts += 1
                if conflict_limit is not None and conflicts > conflict_limit:
                    return SatResult(
                        False, None, conflicts, decisions, limit_reached=True
                    )
                # Backtrack to the most recent level whose decision
                # literal still has its flip untried.  We encode "flip
                # tried" by the sign of the stored decision literal.
                while True:
                    if level == 0:
                        return SatResult(False, None, conflicts, decisions)
                    # Undo to the start of this level.
                    limit = trail_lim[-1]
                    decision_lit = trail[limit]
                    for l in trail[limit:]:
                        assign[abs(l)] = None
                    del trail[limit:]
                    trail_lim.pop()
                    level -= 1
                    prop_head = len(trail)
                    if decision_lit > 0:
                        # Flip to False at the parent level.
                        level += 1
                        trail_lim.append(len(trail))
                        enqueue(-decision_lit)
                        break
                    # Both polarities failed: keep unwinding.


class DPLLSATMapper(SATMapper):
    """:class:`SATMapper` with a fresh encode + DPLL solve at every II.

    Overrides only the per-II solve; the II escalation, route-insertion
    rounds, validation and failure reporting are the production
    mapper's.  The incremental model the base class hands in is unused.
    """

    def cache_token(self) -> str:
        # Never alias the production mapper's cache entries.
        return "oracle=dpll;" + super().cache_token()

    def _solve(self, model, dfg, cgra, ii):
        domains = adjplace.slot_domains(dfg, cgra, ii)
        cnf = CNF()
        var: dict[tuple[int, adjplace.Slot], int] = {}
        for nid, dom in domains.items():
            lits = []
            for s in dom:
                v = cnf.new_var()
                var[(nid, s)] = v
                lits.append(v)
            cnf.exactly_one(lits)

        by_res: dict[tuple[int, int], list[int]] = {}
        for (nid, (c, t)), v in var.items():
            by_res.setdefault((c, t % ii), []).append(v)
        for lits in by_res.values():
            if len(lits) > 1:
                cnf.at_most_one(lits)

        for e in adjplace.real_edges(dfg):
            lat = dfg.node(e.src).op.latency
            if e.src == e.dst:
                for s in domains[e.src]:
                    if not compatible(cgra, ii, e, lat, s, s):
                        cnf.add(-var[(e.src, s)])
                continue
            for su in domains[e.src]:
                support = [
                    var[(e.dst, sv)]
                    for sv in domains[e.dst]
                    if compatible(cgra, ii, e, lat, su, sv)
                ]
                if support:
                    cnf.implies_any(var[(e.src, su)], support)
                else:
                    cnf.add(-var[(e.src, su)])
            for sv in domains[e.dst]:
                support = [
                    var[(e.src, su)]
                    for su in domains[e.src]
                    if compatible(cgra, ii, e, lat, su, sv)
                ]
                if support:
                    cnf.implies_any(var[(e.dst, sv)], support)
                else:
                    cnf.add(-var[(e.dst, sv)])

        res = DPLLSolver(cnf).solve(conflict_limit=self.conflict_limit)
        if not res.sat:
            return None, res.limit_reached
        assign: dict[int, adjplace.Slot] = {}
        for (nid, s), v in var.items():
            if res.assignment[v]:
                assign[nid] = s
        return assign, False
