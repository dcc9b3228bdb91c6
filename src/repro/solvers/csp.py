"""A finite-domain constraint satisfaction solver.

Backs the CP mapper (Table I "CSP -> CP", Raffin et al.).  Variables
have explicit finite domains; constraints are predicates over variable
scopes, plus all-different groups.  The solver runs:

* **AC-3** arc consistency as a preprocessing step (binary
  constraints and all-different groups),
* backtracking search with **MRV** (minimum remaining values) variable
  ordering, values in domain order (a hinted value first), and
  **forward checking** of binary constraints and all-different groups
  against the unassigned variables; other constraints are checked once
  their scope is assigned.

All-different groups get dedicated pruning instead of pairwise
predicates.  A group may carry a ``key``: its variables then take
values with pairwise distinct keys (the CP mapper keys slots by
``(cell, cycle mod II)`` to state folded FU exclusivity once).  AC-3
lets a variable whose domain holds a single key remove that key from
its peers; forward checking, after the binary constraints, removes an
assigned value's key from the peers' domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

from repro.obs.tracer import SOLVER_NODES, get_tracer

__all__ = ["CSP", "CSPUnsat", "CSPTimeout"]

Value = Hashable


class CSPUnsat(Exception):
    """The constraint problem has no solution."""


class CSPTimeout(Exception):
    """Search exceeded its budget before finding a solution."""


@dataclass
class _Constraint:
    scope: tuple[str, ...]
    pred: Callable[..., bool]
    name: str = ""


class CSP:
    """A finite-domain CSP.

    Example::

        csp = CSP()
        csp.add_var("x", range(4))
        csp.add_var("y", range(4))
        csp.add_constraint(("x", "y"), lambda x, y: x < y)
        sol = csp.solve()
    """

    def __init__(self, name: str = "csp") -> None:
        self.name = name
        self.domains: dict[str, list[Value]] = {}
        self.constraints: list[_Constraint] = []
        # (scope, every domain value's key) per all-different group
        self._alldiff_groups: list[tuple[list[str], dict]] = []
        self.stats_nodes = 0

    # ------------------------------------------------------------------
    def add_var(self, name: str, domain: Iterable[Value]) -> None:
        if name in self.domains:
            raise ValueError(f"duplicate variable {name!r}")
        dom = list(domain)
        if not dom:
            raise CSPUnsat(f"variable {name!r} has an empty domain")
        self.domains[name] = dom

    def add_constraint(
        self,
        scope: Sequence[str],
        pred: Callable[..., bool],
        name: str = "",
    ) -> None:
        """``pred(*values)`` must hold for the variables in ``scope``."""
        for v in scope:
            if v not in self.domains:
                raise KeyError(f"unknown variable {v!r}")
        self.constraints.append(_Constraint(tuple(scope), pred, name))

    def add_all_different(
        self,
        scope: Sequence[str],
        key: Callable[[Value], Hashable] | None = None,
    ) -> None:
        """All variables in ``scope`` take pairwise distinct values, or
        values with pairwise distinct ``key(value)`` when given."""
        for v in scope:
            if v not in self.domains:
                raise KeyError(f"unknown variable {v!r}")
        keyof = {
            v: v if key is None else key(v)
            for u in scope for v in self.domains[u]
        }
        self._alldiff_groups.append((list(scope), keyof))

    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        node_limit: int = 1_000_000,
        value_hints: dict[str, Value] | None = None,
    ) -> dict[str, Value]:
        """Find one solution; raises :class:`CSPUnsat` / :class:`CSPTimeout`.

        ``value_hints`` maps variables to preferred values (e.g. the
        previous II's assignment): a hinted value still in the domain
        is tried first, warm-starting the search without affecting
        completeness.

        With tracing enabled the search runs under a ``csp_solve``
        span tagged with the model size, counting ``solver_nodes``
        (search nodes, recorded even when the search fails).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_impl(node_limit, value_hints)
        with tracer.span(
            "csp_solve",
            model=self.name,
            vars=len(self.domains),
            constraints=len(self.constraints),
        ) as span:
            try:
                solution = self._solve_impl(node_limit, value_hints)
            except CSPUnsat:
                span.tag(status="unsat")
                raise
            except CSPTimeout:
                span.tag(status="timeout")
                raise
            else:
                span.tag(status="sat")
                return solution
            finally:
                span.count(SOLVER_NODES, self.stats_nodes)

    def _solve_impl(
        self, node_limit: int, value_hints: dict[str, Value] | None
    ) -> dict[str, Value]:
        self.stats_nodes = 0
        # Per variable: binary constraints as (other, pred, is this
        # variable pred's first argument), all-different groups as
        # (peers, key table), and the constraints check() tests.
        pairs: dict[str, list] = {v: [] for v in self.domains}
        groups: dict[str, list] = {v: [] for v in self.domains}
        others: dict[str, list] = {v: [] for v in self.domains}
        for c in self.constraints:
            if len(c.scope) == 2 and c.scope[0] != c.scope[1]:
                x, y = c.scope
                pairs[x].append((y, c.pred, True))
                pairs[y].append((x, c.pred, False))
            else:
                for v in dict.fromkeys(c.scope):
                    others[v].append(c)
        for scope, keyof in self._alldiff_groups:
            for v in scope:
                groups[v].append(([u for u in scope if u != v], keyof))
        domains = {v: list(d) for v, d in self.domains.items()}
        if not _ac3(domains, pairs, groups):
            raise CSPUnsat(f"{self.name}: AC-3 wiped out a domain")
        assignment: dict[str, Value] = {}

        def check(var: str, val: Value) -> bool:
            """The constraints not forward-checked, once all assigned."""
            for c in others[var]:
                if all(u == var or u in assignment for u in c.scope):
                    vals = [val if u == var else assignment[u] for u in c.scope]
                    if not c.pred(*vals):
                        return False
            return True

        def prune(pruned, u: str, bad: list[Value]) -> bool:
            """Add ``bad`` to ``u``'s pruned values (in domain order,
            first pruning first); False if that wipes ``u`` out."""
            removed = pruned.get(u)
            if removed is None:
                pruned[u] = removed = bad
            else:
                removed += [v for v in bad if v not in removed]
            return len(removed) < len(domains[u])

        def forward(var: str, val: Value) -> dict[str, list[Value]] | None:
            """Prune future domains; None on wipe-out."""
            pruned: dict[str, list[Value]] = {}
            for other, pred, first in pairs[var]:
                if other in assignment:
                    continue
                if first:
                    bad = [vo for vo in domains[other] if not pred(val, vo)]
                else:
                    bad = [vo for vo in domains[other] if not pred(vo, val)]
                if bad and not prune(pruned, other, bad):
                    return None
            # All-different after the binary constraints: undo restores
            # pruned values in pruning order, which orders later searches.
            for peers, keyof in groups[var]:
                k = keyof[val]
                for peer in peers:
                    if peer in assignment:
                        continue
                    bad = [vo for vo in domains[peer] if keyof[vo] == k]
                    if bad and not prune(pruned, peer, bad):
                        return None
            for u, removed in pruned.items():
                gone = set(removed)
                domains[u] = [v for v in domains[u] if v not in gone]
            return pruned

        def undo(pruned: dict[str, list[Value]]) -> None:
            for u, removed in pruned.items():
                domains[u].extend(removed)

        def select_var() -> str | None:
            """The first unassigned variable of smallest domain."""
            return min(
                (v for v in domains if v not in assignment),
                key=lambda v: len(domains[v]), default=None,
            )

        def backtrack() -> bool:
            self.stats_nodes += 1
            if self.stats_nodes > node_limit:
                raise CSPTimeout(f"{self.name}: node limit")
            var = select_var()
            if var is None:
                return True
            vals = list(domains[var])
            if value_hints is not None:
                hint = value_hints.get(var)
                if hint is not None and hint in vals:
                    vals.remove(hint)
                    vals.insert(0, hint)
            for val in vals:
                if not check(var, val):
                    continue
                assignment[var] = val
                pruned = forward(var, val)
                if pruned is not None:
                    if backtrack():
                        return True
                    undo(pruned)
                del assignment[var]
            return False

        if backtrack():
            return dict(assignment)
        raise CSPUnsat(f"{self.name}: exhausted search space")


def _ac3(domains, pairs, groups) -> bool:
    """Revise ``domains`` in place to the arc-consistent closure of the
    binary constraints and all-different groups (a peer left with one
    key takes it from the others); False if a domain is wiped out.
    Revision only filters, so the closure is unique and keeps each
    domain's order, whatever the revision order."""
    queue = dict.fromkeys(domains)  # an ordered set
    while queue:
        x, _ = queue.popitem()
        keep = [
            vx for vx in domains[x]
            if all(
                any(pred(vx, vy) if first else pred(vy, vx)
                    for vy in domains[y])
                for y, pred, first in pairs[x]
            )
        ]
        for peers, keyof in groups[x]:
            for y in peers:
                keys = {keyof[v] for v in domains[y]}
                if len(keys) == 1:
                    k = keys.pop()
                    keep = [v for v in keep if keyof[v] != k]
        if len(keep) == len(domains[x]):
            continue
        if not keep:
            return False
        domains[x] = keep
        queue.update(dict.fromkeys(y for y, _, _ in pairs[x]))
        for peers, keyof in groups[x]:
            if len({keyof[v] for v in keep}) == 1:  # x now holds one key
                queue.update(dict.fromkeys(peers))
    return True
