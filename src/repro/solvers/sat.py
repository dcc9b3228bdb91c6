"""SAT solver backing the exact mappers.

:class:`SatSolver` is a **CDCL** core (conflict-driven clause
learning): 1-UIP conflict analysis with non-chronological
backjumping, VSIDS branching with decay (heap-based pick), phase
saving, and Luby restarts.  It is *incremental*: learned clauses,
activities, and saved phases survive across calls, clauses appended
to the underlying :class:`CNF` between calls are picked up, and
``solve(assumptions=[...])`` solves under temporary unit assumptions —
the machinery the II-escalation loops of the exact mappers use to
avoid re-encoding (SAT-MapIt-style incremental modulo scheduling).
The fuzz suite checks its sat/unsat verdicts against a chronological
DPLL reference kept in ``tests/oracles``.

Literals are non-zero integers in DIMACS convention: ``+v`` is the
positive literal of variable ``v`` (1-based), ``-v`` its negation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

from repro.obs.metrics import SAT_CONFLICTS, get_metrics
from repro.obs.tracer import (
    SOLVER_CLAUSES,
    SOLVER_CONFLICTS,
    SOLVER_DECISIONS,
    SOLVER_RESTARTS,
    get_tracer,
)

__all__ = ["CNF", "SatSolver", "SatResult"]

#: Largest group still encoded pairwise by :meth:`CNF.at_most_one`.
#: Pairwise needs n(n-1)/2 clauses and no auxiliaries; the sequential
#: (ladder) encoding needs ~3n clauses and n-1 auxiliaries.  They cross
#: near n = 7; staying pairwise a little past that avoids auxiliaries
#: on the many small groups the mapping encodings emit.
AMO_PAIRWISE_MAX = 8

#: Luby restart base interval (conflicts).
_LUBY_UNIT = 64


@dataclass
class SatResult:
    sat: bool
    assignment: dict[int, bool] | None = None  #: var -> value when sat
    conflicts: int = 0
    decisions: int = 0
    #: True when the search stopped on ``conflict_limit`` — the
    #: formula's status is then *undetermined*, not proven UNSAT.
    limit_reached: bool = False
    restarts: int = 0


class CNF:
    """A CNF formula builder with the standard mapping-encoding helpers."""

    def __init__(self) -> None:
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self._names: dict[str, int] = {}

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable (returns its 1-based index)."""
        self.n_vars += 1
        if name is not None:
            if name in self._names:
                raise ValueError(f"duplicate variable name {name!r}")
            self._names[name] = self.n_vars
        return self.n_vars

    def var(self, name: str) -> int:
        return self._names[name]

    def add(self, *lits: int) -> None:
        """Add one clause (a disjunction of literals)."""
        if not lits:
            raise ValueError("empty clause makes the formula trivially unsat")
        for l in lits:
            if l == 0 or abs(l) > self.n_vars:
                raise ValueError(f"literal {l} out of range")
        self.clauses.append(list(lits))

    def at_most_one(self, lits: list[int], *, guard: int | None = None) -> None:
        """At-most-one over ``lits``.

        Small groups (<= :data:`AMO_PAIRWISE_MAX`) use the pairwise
        encoding; larger ones the sequential (ladder/Sinz) encoding,
        which is linear in clauses at the price of ``len(lits) - 1``
        auxiliary variables.  ``guard`` (a literal) conditions every
        emitted clause: the constraint only binds when ``guard`` is
        true — the hook the II-parameterised incremental encodings use.
        """
        g = () if guard is None else (-guard,)
        if len(lits) <= AMO_PAIRWISE_MAX:
            for a, b in combinations(lits, 2):
                self.add(*g, -a, -b)
            return
        # Sequential: s_i == "some x_j with j <= i is true".
        s_prev: int | None = None
        for i, x in enumerate(lits):
            last = i == len(lits) - 1
            s = None if last else self.new_var()
            if s is not None:
                self.add(*g, -x, s)
                if s_prev is not None:
                    self.add(*g, -s_prev, s)
            if s_prev is not None:
                self.add(*g, -x, -s_prev)
            s_prev = s

    def exactly_one(self, lits: list[int], *, guard: int | None = None) -> None:
        if guard is None:
            self.add(*lits)
        else:
            self.add(-guard, *lits)
        self.at_most_one(lits, guard=guard)

    def implies(self, a: int, b: int) -> None:
        """a -> b."""
        self.add(-a, b)

    def implies_any(self, a: int, bs: list[int], *, guard: int | None = None) -> None:
        """a -> (b1 | b2 | ...)."""
        if guard is None:
            self.add(-a, *bs)
        else:
            self.add(-guard, -a, *bs)


def _luby(x: int) -> int:
    """The x-th term (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,…"""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """Incremental CDCL over a :class:`CNF`.

    The solver keeps its clause database (problem + learned), variable
    activities, and saved phases between :meth:`solve` calls.  Clauses
    and variables added to the wrapped :class:`CNF` after construction
    are synced in on the next call, so the pattern::

        solver = SatSolver(cnf)
        solver.solve(assumptions=[a1])
        cnf.add(...); cnf.new_var()
        solver.solve(assumptions=[a2])

    reuses everything learned so far.
    """

    def __init__(self, cnf: CNF) -> None:
        self.cnf = cnf
        self.n = 0
        # Clause database: problem clauses then learned clauses.
        self._clauses: list[list[int]] = []
        self._n_problem = 0
        self._watches: dict[int, list[int]] = {}
        # Per-variable state (index 0 unused).
        self._assign: list[bool | None] = [None]
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._seen = bytearray(1)
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        # Trail.
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._unsat = False  # proven UNSAT without assumptions
        self._pending_units: list[int] = []
        self._sync()

    # -- database ------------------------------------------------------
    def _grow(self, n: int) -> None:
        add = n - self.n
        if add <= 0:
            return
        self._assign.extend([None] * add)
        self._level.extend([0] * add)
        self._reason.extend([-1] * add)
        self._activity.extend([0.0] * add)
        self._phase.extend([False] * add)
        self._seen.extend(bytes(add))
        for v in range(self.n + 1, n + 1):
            heapq.heappush(self._heap, (0.0, v))
        self.n = n

    def add_clause(self, lits: list[int]) -> None:
        """Attach one problem clause.

        Must be called with the trail at level 0 (the solver itself
        only syncs between solves).  The clause is simplified against
        the permanent level-0 assignment: satisfied clauses are
        dropped, falsified literals cannot be watched, and a clause
        that is unit under the root assignment is queued for root
        propagation on the next solve.
        """
        unfalse = []
        for l in lits:
            v = self._value(l)
            if v is True:
                return  # satisfied at level 0 forever
            if v is None:
                unfalse.append(l)
        if not unfalse:
            self._unsat = True
            return
        if len(unfalse) == 1:
            self._pending_units.append(unfalse[0])
            return
        ci = len(self._clauses)
        # Watch two non-false literals so future falsifications of
        # either are guaranteed to visit this clause.
        cl = unfalse[:2] + [l for l in lits if l not in unfalse[:2]]
        self._clauses.append(cl)
        for lit in cl[:2]:
            self._watches.setdefault(lit, []).append(ci)

    def _sync(self) -> None:
        """Pull new variables and clauses from the wrapped CNF."""
        self._grow(self.cnf.n_vars)
        for cl in self.cnf.clauses[self._n_problem:]:
            self.add_clause(cl)
        self._n_problem = len(self.cnf.clauses)

    # -- assignment ----------------------------------------------------
    def _value(self, lit: int) -> bool | None:
        v = self._assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = abs(lit)
        val = lit > 0
        if self._assign[v] is not None:
            return self._assign[v] == val
        self._assign[v] = val
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)
        return True

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign, phase = self._assign, self._phase
        heap, activity = self._heap, self._activity
        for lit in self._trail[limit:]:
            v = abs(lit)
            phase[v] = assign[v]  # phase saving
            assign[v] = None
            heapq.heappush(heap, (-activity[v], v))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._prop_head = len(self._trail)

    # -- VSIDS ---------------------------------------------------------
    def _bump(self, v: int) -> None:
        act = self._activity[v] + self._var_inc
        self._activity[v] = act
        if act > 1e100:
            inv = 1e-100
            self._activity = [a * inv for a in self._activity]
            self._var_inc *= inv
            self._heap = [
                (-self._activity[u], u)
                for u in range(1, self.n + 1)
                if self._assign[u] is None
            ]
            heapq.heapify(self._heap)
            return
        heapq.heappush(self._heap, (-act, v))

    def _pick(self) -> int:
        heap, assign = self._heap, self._assign
        while heap:
            _, v = heapq.heappop(heap)
            if assign[v] is None:
                return v
        # Heap exhausted by lazy deletion; rebuild from scratch.
        for v in range(1, self.n + 1):
            if assign[v] is None:
                heapq.heappush(heap, (-self._activity[v], v))
                return v
        return 0

    # -- propagation ---------------------------------------------------
    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        clauses, watches = self._clauses, self._watches
        trail = self._trail
        value = self._value
        while self._prop_head < len(trail):
            lit = trail[self._prop_head]
            self._prop_head += 1
            neg = -lit
            wl = watches.get(neg)
            if not wl:
                continue
            j = 0
            while j < len(wl):
                ci = wl[j]
                cl = clauses[ci]
                if cl[0] == neg:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if value(first) is True:
                    j += 1
                    continue
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
                if value(first) is False:
                    return ci  # conflict
                self._enqueue(first, ci)
                j += 1
        return -1

    # -- conflict analysis ---------------------------------------------
    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """1-UIP learned clause and its backjump level."""
        learnt: list[int] = [0]  # slot 0: the asserting literal
        seen = self._seen
        to_clear: list[int] = []
        level = len(self._trail_lim)
        counter = 0
        p = 0
        idx = len(self._trail) - 1
        levels, reasons = self._level, self._reason
        while True:
            cl = self._clauses[confl]
            for q in cl:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    to_clear.append(v)
                    self._bump(v)
                    if levels[v] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            p = self._trail[idx]
            pv = abs(p)
            seen[pv] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            confl = reasons[pv]
        learnt[0] = -p
        for v in to_clear:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        # Second-highest decision level in the clause = backjump target;
        # keep that literal in slot 1 so it is watched.
        max_i = 1
        for i in range(2, len(learnt)):
            if levels[abs(learnt[i])] > levels[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, levels[abs(learnt[1])]

    def _record(self, learnt: list[int]) -> int:
        ci = len(self._clauses)
        self._clauses.append(learnt)
        for lit in learnt[:2]:
            self._watches.setdefault(lit, []).append(ci)
        return ci

    # -- main loop -----------------------------------------------------
    def solve(
        self,
        *,
        assumptions: list[int] | None = None,
        conflict_limit: int | None = None,
    ) -> SatResult:
        """Run CDCL; returns a :class:`SatResult`.

        ``assumptions`` are literals temporarily asserted as the first
        decisions; an UNSAT answer then means "UNSAT under these
        assumptions" (learned clauses remain valid unconditionally).
        ``conflict_limit`` bounds the search: on overrun the result has
        ``sat=False`` **and** ``limit_reached=True`` — callers must
        treat that as *undetermined*, not as a proof of infeasibility.

        With tracing enabled the run is wrapped in a ``sat_solve``
        span tagged with the formula size, counting
        ``solver_clauses`` / ``solver_conflicts`` /
        ``solver_decisions`` / ``solver_restarts``.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            result = self._solve_impl(assumptions, conflict_limit)
            get_metrics().histogram(SAT_CONFLICTS).observe(result.conflicts)
            return result
        with tracer.span(
            "sat_solve", vars=self.cnf.n_vars, clauses=len(self.cnf.clauses)
        ) as span:
            result = self._solve_impl(assumptions, conflict_limit)
            span.count(SOLVER_CLAUSES, len(self.cnf.clauses))
            span.count(SOLVER_CONFLICTS, result.conflicts)
            span.count(SOLVER_DECISIONS, result.decisions)
            span.count(SOLVER_RESTARTS, result.restarts)
            span.tag(sat=result.sat, limit_reached=result.limit_reached)
            # Close the conflict curve on the final tally — a run that
            # never restarts still gets a (single-point) series.
            tracer.progress("sat.conflicts", result.conflicts)
            get_metrics().histogram(SAT_CONFLICTS).observe(result.conflicts)
            return result

    def _solve_impl(
        self,
        assumptions: list[int] | None,
        conflict_limit: int | None,
    ) -> SatResult:
        self._cancel_until(0)
        self._sync()
        if self._unsat:
            return SatResult(False)
        # Root-level units (initial + appended since the last call).
        while self._pending_units:
            lit = self._pending_units.pop()
            if not self._enqueue(lit, -1):
                self._unsat = True
                return SatResult(False)
        if self._propagate() != -1:
            self._unsat = True
            return SatResult(False, conflicts=1)

        assume = list(assumptions or [])
        for lit in assume:
            if lit == 0 or abs(lit) > self.n:
                raise ValueError(f"assumption literal {lit} out of range")
        tracer = get_tracer()
        db0 = len(self._clauses)  # learned-clause baseline for telemetry
        conflicts = decisions = restarts = 0
        conflict_budget = _LUBY_UNIT * _luby(0)
        since_restart = 0
        n_assumed = len(assume)

        while True:
            level = len(self._trail_lim)
            if level < n_assumed:
                # Re-assert the next assumption as a decision.
                lit = assume[level]
                val = self._value(lit)
                self._trail_lim.append(len(self._trail))
                if val is False:
                    self._cancel_until(0)
                    return SatResult(
                        False, conflicts=conflicts, decisions=decisions,
                        restarts=restarts,
                    )
                if val is None:
                    self._enqueue(lit, -1)
            else:
                v = self._pick()
                if v == 0:
                    model = {
                        u: bool(self._assign[u]) for u in range(1, self.n + 1)
                    }
                    self._cancel_until(0)
                    return SatResult(
                        True, model, conflicts, decisions, restarts=restarts
                    )
                decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(v if self._phase[v] else -v, -1)

            while True:
                confl = self._propagate()
                if confl == -1:
                    break
                conflicts += 1
                since_restart += 1
                if len(self._trail_lim) <= n_assumed:
                    # Conflict with only assumptions on the trail:
                    # UNSAT under the assumptions (or outright when
                    # there are none).
                    self._cancel_until(0)
                    if n_assumed == 0:
                        self._unsat = True
                    return SatResult(
                        False, conflicts=conflicts, decisions=decisions,
                        restarts=restarts,
                    )
                if conflict_limit is not None and conflicts > conflict_limit:
                    self._cancel_until(0)
                    return SatResult(
                        False, None, conflicts, decisions,
                        limit_reached=True, restarts=restarts,
                    )
                learnt, bt = self._analyze(confl)
                self._var_inc *= self._var_decay
                bt = max(bt, n_assumed)
                self._cancel_until(bt)
                if len(learnt) == 1:
                    # A learned unit is assumption-independent; queue it
                    # so it survives restarts and later solves even when
                    # asserted above level 0 (under assumptions).
                    if bt > 0:
                        self._pending_units.append(learnt[0])
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._record(learnt)
                    self._enqueue(learnt[0], ci)
            if since_restart >= conflict_budget:
                restarts += 1
                since_restart = 0
                conflict_budget = _LUBY_UNIT * _luby(restarts)
                self._cancel_until(0)
                # Restart boundaries are the natural sampling points
                # for the conflict/learning curves: Luby-spaced, so the
                # series stays sparse even on hard formulas.
                tracer.progress("sat.conflicts", conflicts)
                tracer.progress(
                    "sat.learned_clauses", len(self._clauses) - db0
                )
