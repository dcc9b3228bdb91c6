"""SMT-based mapper (lazy DPLL(T)).

Donovick et al. [44] map CGRAs with restricted routing networks via
satisfiability modulo theories.  This implementation runs the classic
*lazy* SMT loop on the adjacency-placement model:

1. the Boolean skeleton — one ``x[v, c]`` literal per op/cell pair,
   exactly-one per op, op-support and spatial-degree constraints — is
   solved by the package's incremental CDCL SAT solver
   (:class:`repro.solvers.sat.SatSolver`);
2. each Boolean model (a complete binding) goes to the **theory
   solver**: scheduling as difference logic.  Adjacent producer/
   consumer pairs pin exact time offsets (``t_v = t_u + 1`` modulo the
   iteration distance), same-cell pairs allow register-file slack
   (``t_v >= t_u + 1``), anything else is a theory conflict.  Equality
   components collapse to single integer offsets; the residual
   offset/fold problem is finite-domain and solved exactly;
3. a theory conflict adds a blocking clause over the binding literals
   and the loop resumes — until a model schedules or the skeleton is
   exhausted (UNSAT: infeasibility proven within the model).

Like the other exact mappers, ROUTE-insertion rounds recover multi-hop
communication before the II escalates.

The Boolean skeleton is **II-independent**, so the escalation loop
keeps one incremental CDCL instance per route-insertion round: theory
conflicts that do not depend on the II (unreachable cell pairs) become
permanent blocking clauses, II-dependent ones are guarded by a per-II
selector literal, and each II solves under ``assumptions=[selector]``
— learned clauses and branching state carry across the whole
escalation instead of being rebuilt per II.

Caveat: the loop enumerates at most ``max_models`` Boolean models per
(II, round); when that budget is exhausted the mapper escalates even
though an unexplored binding might have scheduled, so infeasibility is
*proven* only when the skeleton itself goes UNSAT within the budget.
On larger kernels this can yield a higher II than the eager ILP/SAT
encodings (which explore bindings and schedules jointly) — the classic
lazy-SMT trade-off.
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
from repro.solvers.sat import CNF, SatSolver

__all__ = ["SMTMapper"]


class _Skeleton:
    """The II-independent Boolean binding skeleton, solved incrementally.

    One CNF + CDCL pair per route-insertion round; II escalation adds a
    fresh selector literal per II (retiring the previous one) and new
    blocking clauses, never re-encoding the skeleton.
    """

    def __init__(self, dfg: DFG, cgra: CGRA) -> None:
        self.ok = True
        self.var: dict[tuple[int, int], int] = {}
        self.cnf = CNF()
        nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
        cells = {
            nid: cgra.supporting_cells(dfg.node(nid).op) for nid in nodes
        }
        if any(not cs for cs in cells.values()):
            self.ok = False
            self.solver = None
            return
        for nid in nodes:
            lits = []
            for c in cells[nid]:
                v = self.cnf.new_var()
                self.var[(nid, c)] = v
                lits.append(v)
            self.cnf.exactly_one(lits)
        # Boolean-level pruning: endpoints of an edge must share a cell
        # or be linked (the theory would reject anything else anyway).
        for e in adjplace.real_edges(dfg):
            if e.src == e.dst:
                continue
            for cu in cells[e.src]:
                support = [
                    self.var[(e.dst, cv)]
                    for cv in cells[e.dst]
                    if cv == cu or cgra.has_link(cu, cv)
                ]
                if support:
                    self.cnf.implies_any(self.var[(e.src, cu)], support)
                else:
                    self.cnf.add(-self.var[(e.src, cu)])
        self.solver = SatSolver(self.cnf)
        self.selector: int | None = None

    def new_ii(self) -> int:
        """Retire the previous II's guarded clauses; return a fresh guard."""
        if self.selector is not None:
            self.cnf.add(-self.selector)
        self.selector = self.cnf.new_var()
        return self.selector


@register
@dataclass(eq=False, kw_only=True)
class SMTMapper(Mapper):
    """Lazy SMT: SAT binding skeleton + difference-logic scheduling."""

    info = MapperInfo(
        name="smt",
        family="exact",
        subfamily="SMT",
        kinds=("temporal",),
        solves="binding+scheduling",
        modeled_after="[44]",
        year=2019,
        exact=True,
    )

    max_models: int = 200

    # ------------------------------------------------------------------
    def _theory_schedule(
        self, dfg: DFG, cgra: CGRA, ii: int, binding: dict[int, int]
    ) -> tuple[dict[int, int] | None, bool, set[int] | None]:
        """Difference-logic scheduling for a fixed binding.

        Returns ``(issue cycles, False, None)`` on success, or
        ``(None, ii_dependent, core)`` on a theory conflict:
        ``ii_dependent`` is False only for conflicts that hold at
        *every* II (the caller may block them permanently), and
        ``core`` names the ops whose cells alone force the conflict
        (None when the whole binding is implicated) — blocking just
        the core prunes every binding that repeats it.
        """
        nodes = list(binding)
        edges = adjplace.real_edges(dfg)

        # Union-find over equality constraints (adjacent placements fix
        # the relative offset of the endpoints exactly).
        parent = {n: n for n in nodes}
        delta = {n: 0 for n in nodes}  # t(n) - t(root)

        def find(n):
            if parent[n] == n:
                return n, 0
            root, off = find(parent[n])
            parent[n] = root
            delta[n] += off
            return root, delta[n]

        def union(a, b, diff):
            """Impose t(b) - t(a) == diff; False on contradiction."""
            ra, da = find(a)
            rb, db = find(b)
            if ra == rb:
                return (db - da) == diff
            parent[rb] = ra
            delta[rb] = da + diff - db
            return True

        def component(root: int) -> set[int]:
            return {n for n in nodes if find(n)[0] == root}

        ineqs: list[tuple[int, int, int]] = []  # t(b) - t(a) >= w
        for e in edges:
            lat = dfg.node(e.src).op.latency
            cu, cv = binding[e.src], binding[e.dst]
            w = lat - e.dist * ii
            if cu == cv:
                if e.src == e.dst:
                    if w > 0:
                        # Recurrence tighter than the II: holds for
                        # every binding, so the core is empty — the
                        # II itself is infeasible.
                        return None, True, set()
                    continue
                ineqs.append((e.src, e.dst, w))
            elif cgra.has_link(cu, cv):
                if not union(e.src, e.dst, w):
                    return None, True, component(find(e.src)[0])
            else:
                # Not reachable in the adjacency model at any II.
                return None, False, {e.src, e.dst}

        # Components: offset variables over a finite window.
        comps: dict[int, list[int]] = {}
        for n in nodes:
            root, _ = find(n)
            comps.setdefault(root, []).append(n)
        window = 2 * ii + len(nodes)
        # Member time = comp offset + rel, and must be >= 0: the
        # component's domain starts where all members are non-negative.
        rel = {n: find(n)[1] for n in nodes}
        csp = CSP(name="smt_theory")
        for root, members in comps.items():
            lo = max(-rel[m] for m in members)
            csp.add_var(f"c{root}", range(lo, lo + window + 1))

        for a, b, w in ineqs:
            ra, rb = find(a)[0], find(b)[0]
            if ra == rb:
                if rel[b] - rel[a] < w:
                    return None, True, component(ra)
                continue
            csp.add_constraint(
                (f"c{ra}", f"c{rb}"),
                lambda ta, tb, w=w, da=rel[a], db=rel[b]: (
                    tb + db - ta - da >= w
                ),
            )

        # Folded FU exclusivity between ops sharing a cell.
        by_cell: dict[int, list[int]] = {}
        for n in nodes:
            by_cell.setdefault(binding[n], []).append(n)
        for cell, members in by_cell.items():
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    ra, rb = find(a)[0], find(b)[0]
                    if ra == rb:
                        if (rel[a] - rel[b]) % ii == 0:
                            return None, True, component(ra) | {a, b}
                        continue
                    csp.add_constraint(
                        (f"c{ra}", f"c{rb}"),
                        lambda ta, tb, da=rel[a], db=rel[b], ii=ii: (
                            (ta + da - tb - db) % ii != 0
                        ),
                    )
        try:
            sol = csp.solve(node_limit=20_000)
        except (CSPUnsat, CSPTimeout):
            return None, True, None
        return {
            n: sol[f"c{find(n)[0]}"] + rel[n] for n in nodes
        }, False, None

    # ------------------------------------------------------------------
    def _solve(
        self, skeleton: _Skeleton, dfg: DFG, cgra: CGRA, ii: int
    ) -> tuple[dict[int, int], dict[int, int]] | None:
        sel = skeleton.new_ii()
        var = skeleton.var
        cnf = skeleton.cnf
        for _ in range(self.max_models):
            res = skeleton.solver.solve(assumptions=[sel])
            if not res.sat:
                return None
            binding = {
                nid: c
                for (nid, c), v in var.items()
                if res.assignment[v]
            }
            schedule, ii_dependent, core = self._theory_schedule(
                dfg, cgra, ii, binding
            )
            if schedule is not None:
                return binding, schedule
            # Theory conflict: block the conflict core (the whole
            # binding when no core was isolated) — permanently when
            # the conflict holds at every II, else under this II's
            # guard.
            ops = binding if core is None else core
            block = [-var[(nid, binding[nid])] for nid in ops]
            if ii_dependent:
                cnf.add(-sel, *block)
            else:
                cnf.add(*block)
        return None

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        skeletons: dict[int, _Skeleton] = {}

        def solve(
            r: int, work: DFG, ii_try: int
        ) -> dict[int, adjplace.Slot] | None:
            skeleton = skeletons.get(r)
            if skeleton is None:
                skeleton = skeletons[r] = _Skeleton(work, cgra)
            solved = (
                self._solve(skeleton, work, cgra, ii_try)
                if skeleton.ok
                else None
            )
            if solved is None:
                return None
            binding, schedule = solved
            return {nid: (binding[nid], schedule[nid]) for nid in binding}

        return self.search(
            dfg, cgra, ii,
            adjplace.insertion_tries(dfg, cgra, solve),
            f"SMT skeleton exhausted on {cgra.name}",
        )
