"""Delta-debugging shrinker for failing conformance cases.

Given a DFG on which some predicate holds ("this graph still makes
mapper X fail the oracle chain"), :func:`shrink_dfg` greedily applies
structure-reducing mutations and keeps each one that preserves the
failure, until no mutation applies or the evaluation budget runs out.
The mutations, tried smallest-first in deterministic (sorted node id)
order each round:

* **drop an OUTPUT** — when the graph observes more than one value,
  try observing fewer;
* **bypass a compute node** — rewire its consumers to its port-0
  operand's source and delete it (plus any nodes that become dead),
  shrinking both node and edge counts at once; loop-carried merge
  nodes disappear the same way, which is how recurrences get dropped;
* **shrink a constant** — move CONST values toward 0 through the
  candidate ladder ``0, 1, -1, v // 2``.

Every candidate is structurally re-checked (``DFG.check``) before the
predicate runs, so the predicate only ever sees well-formed graphs.
The result is deterministic for a deterministic predicate: no
randomness is involved anywhere.

:func:`shrink_inputs` then minimizes the input series the same way
(sample values toward 0), and :func:`shrink_iters` trims the number of
observed iterations.
"""

from __future__ import annotations

from typing import Callable

from repro.ir.dfg import DFG, Op
from repro.obs.tracer import SHRINK_ROUNDS, get_tracer

__all__ = ["ShrinkBudget", "shrink_dfg", "shrink_inputs", "shrink_iters"]

Predicate = Callable[[DFG], bool]


class ShrinkBudget:
    """Caps predicate evaluations so shrinking stays interactive."""

    def __init__(self, max_checks: int = 400) -> None:
        self.max_checks = max_checks
        self.checks = 0

    def spent(self) -> bool:
        return self.checks >= self.max_checks

    def check(self, predicate: Predicate, dfg: DFG) -> bool:
        if self.spent():
            return False
        self.checks += 1
        try:
            return bool(predicate(dfg))
        except Exception:
            # A predicate crash means "not the failure we are chasing".
            return False


# ---------------------------------------------------------------------------
# Mutation builders: each returns a well-formed candidate or None.
# ---------------------------------------------------------------------------
def _gc_dead(g: DFG) -> None:
    """Drop non-OUTPUT nodes with no consumers, transitively."""
    changed = True
    while changed:
        changed = False
        for nid in sorted(g.node_ids()):
            node = g.node(nid)
            if node.op is Op.OUTPUT:
                continue
            if not g.out_edges(nid):
                g.remove_node(nid)
                changed = True


def _drop_output(dfg: DFG, nid: int) -> DFG | None:
    outputs = [n.nid for n in dfg.nodes() if n.op is Op.OUTPUT]
    if len(outputs) < 2 or nid not in outputs:
        return None
    g = dfg.copy()
    g.remove_node(nid)
    _gc_dead(g)
    try:
        g.check()
    except Exception:
        return None
    return g


def _bypass_node(dfg: DFG, nid: int) -> DFG | None:
    node = dfg.node(nid)
    if node.op in (Op.CONST, Op.INPUT, Op.OUTPUT):
        return None
    g = dfg.copy()
    e = g.operand(nid, 0)
    if e is None:
        return None
    replacement = e.src
    if replacement == nid:
        return None
    g.rewire(nid, replacement)
    g.remove_node(nid)
    _gc_dead(g)
    if not any(n.op is Op.OUTPUT for n in g.nodes()):
        return None
    try:
        g.check()
    except Exception:
        return None
    return g


def _shrink_const(dfg: DFG, nid: int, value: int) -> DFG | None:
    node = dfg.node(nid)
    if node.op is not Op.CONST or node.value == value:
        return None
    g = dfg.copy()
    g.set_label(nid, value=value)
    try:
        g.check()
    except Exception:
        return None
    return g


def _simpler(a: int, b: int) -> bool:
    """Strict simplicity order: closer to 0 wins, positive breaks ties.

    The ladder must only ever propose strictly simpler values —
    otherwise the greedy fixpoint loop can oscillate (0 -> 1 -> 0 ...)
    and burn the whole budget without converging.
    """
    return (abs(a), a < 0) < (abs(b), b < 0)


def _const_ladder(value: int) -> list[int]:
    candidates = [0, 1, -1, value // 2]
    return [c for c in dict.fromkeys(candidates) if _simpler(c, value)]


# ---------------------------------------------------------------------------
def shrink_dfg(
    dfg: DFG,
    predicate: Predicate,
    *,
    budget: ShrinkBudget | None = None,
) -> DFG:
    """Greedy fixpoint shrink of a failing graph.

    ``predicate(dfg)`` must be True for the input graph; the returned
    graph is the smallest one reached for which it stayed True.
    """
    budget = budget or ShrinkBudget()
    tracer = get_tracer()
    current = dfg
    improved = True
    while improved and not budget.spent():
        improved = False
        # 1. Fewer observed values.
        for nid in sorted(current.node_ids()):
            if nid not in current:
                continue
            candidate = _drop_output(current, nid)
            if candidate is not None and budget.check(predicate, candidate):
                current = candidate
                tracer.count(SHRINK_ROUNDS)
                improved = True
        # 2. Fewer compute nodes.
        for nid in sorted(current.node_ids()):
            if nid not in current:
                continue
            candidate = _bypass_node(current, nid)
            if candidate is not None and budget.check(predicate, candidate):
                current = candidate
                tracer.count(SHRINK_ROUNDS)
                improved = True
        # 3. Smaller constants.
        for nid in sorted(current.node_ids()):
            if nid not in current:
                continue
            node = current.node(nid)
            if node.op is not Op.CONST:
                continue
            for value in _const_ladder(node.value or 0):
                candidate = _shrink_const(current, nid, value)
                if candidate is not None and budget.check(
                    predicate, candidate
                ):
                    current = candidate
                    tracer.count(SHRINK_ROUNDS)
                    improved = True
                    break
    return current


def shrink_inputs(
    dfg: DFG,
    inputs: dict[str, list[int]],
    predicate: Callable[[dict[str, list[int]]], bool],
    *,
    budget: ShrinkBudget | None = None,
) -> dict[str, list[int]]:
    """Move input samples toward 0 while the failure persists."""
    budget = budget or ShrinkBudget(max_checks=200)
    current = {k: list(v) for k, v in inputs.items()}
    improved = True
    while improved and not budget.spent():
        improved = False
        for name in sorted(current):
            for i, value in enumerate(current[name]):
                for cand in _const_ladder(value):
                    if budget.spent():
                        return current
                    trial = {k: list(v) for k, v in current.items()}
                    trial[name][i] = cand
                    budget.checks += 1
                    try:
                        keep = bool(predicate(trial))
                    except Exception:
                        keep = False
                    if keep:
                        current = trial
                        improved = True
                        break
    return current


def shrink_iters(
    n_iters: int,
    predicate: Callable[[int], bool],
) -> int:
    """Smallest iteration count (>= 1) that still reproduces."""
    current = n_iters
    for n in range(1, n_iters):
        try:
            if predicate(n):
                return n
        except Exception:
            continue
    return current
