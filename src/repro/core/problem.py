"""The mapping problem and its lower bounds.

§II-C extracts one general formulation from twenty years of papers:
given an application DFG and a CGRA model, *bind in place and schedule
in time*.  :class:`MappingProblem` packages the two inputs and computes
the classic initiation-interval lower bounds every modulo scheduler
starts from:

* **ResMII** — resource-constrained minimum II: enough slots must
  exist for every operation (compute ops over compute cells, memory
  ops over memory-port cells);
* **RecMII** — recurrence-constrained minimum II: every dependence
  cycle must fit within ``II x distance`` cycles.

``MII = max(ResMII, RecMII)`` is where II search begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG

__all__ = ["MappingProblem"]


@dataclass(frozen=True)
class MappingProblem:
    """An instance of the CGRA mapping problem."""

    dfg: DFG
    cgra: CGRA

    @cached_property
    def n_ops(self) -> int:
        return self.dfg.op_count()

    @cached_property
    def res_mii(self) -> int:
        """Resource-constrained minimum II."""
        compute_cells = len(self.cgra.compute_cells())
        if compute_cells == 0:
            raise ValueError(f"{self.cgra.name} has no compute cells")
        bound = math.ceil(self.n_ops / compute_cells) if self.n_ops else 1
        mem_ops = len(self.dfg.memory_ops())
        if mem_ops:
            mem_cells = len(self.cgra.memory_cells())
            if mem_cells == 0:
                raise ValueError(
                    f"{self.dfg.name} has memory ops but {self.cgra.name}"
                    " has no memory cells"
                )
            bound = max(bound, math.ceil(mem_ops / mem_cells))
        return max(1, bound)

    @cached_property
    def rec_mii(self) -> int:
        """Recurrence-constrained minimum II.

        ``max over cycles of ceil(sum(latency) / sum(distance))``, at
        least 1.  Parallel edges between the same node pair are
        collapsed to the minimum distance, which is the binding variant
        for the bound.

        No cycle is enumerated (a DFG can have exponentially many).
        For ``D > 0``, ``ceil(L / D) <= II`` holds exactly when
        ``L - II * D <= 0``, so RecMII is the least ``II >= 1`` at which
        no cycle has positive weight under the edge weights
        ``latency(src) - II * dist``.  Feasibility only grows with II,
        so each strongly connected component bisects for its own bound
        with a Bellman-Ford positive-cycle test.
        """
        dist: dict[tuple[int, int], int] = {}
        for e in self.dfg.edges():
            key = (e.src, e.dst)
            if key not in dist or e.dist < dist[key]:
                dist[key] = e.dist
        succ: dict[int, list[int]] = {nid: [] for nid in self.dfg}
        for src, dst in dist:
            succ[src].append(dst)
        latency = {nid: self.dfg.node(nid).op.latency for nid in self.dfg}

        best = 1
        for comp in _cyclic_components(succ):
            edges = [
                (src, dst, latency[src], dist[src, dst])
                for src in comp for dst in succ[src] if dst in comp
            ]
            zero = {n: [] for n in comp}
            for src, dst, _lat, d in edges:
                if d == 0:
                    zero[src].append(dst)
            if _cyclic_components(zero):
                # Impossible: dist-0 cycles are rejected by DFG.check().
                raise ValueError("zero-distance dependence cycle")
            if not _positive_cycle(comp, edges, best):
                continue
            # Every cycle has D >= 1 and L <= the component's latency
            # sum, so that II is always feasible.
            lo, hi = best, max(best + 1, sum(latency[n] for n in comp))
            while hi - lo > 1:  # infeasible at lo, feasible at hi
                mid = (lo + hi) // 2
                if _positive_cycle(comp, edges, mid):
                    lo = mid
                else:
                    hi = mid
            best = hi
        return best

    @cached_property
    def mii(self) -> int:
        """The minimum initiation interval (start of every II search)."""
        return max(self.res_mii, self.rec_mii)

    def fits_spatially(self) -> bool:
        """Necessary condition for spatial mapping: one cell per op."""
        return self.n_ops <= len(self.cgra.compute_cells())

    def describe(self) -> str:
        return (
            f"{self.dfg.name} ({self.n_ops} ops,"
            f" {self.dfg.num_edges()} deps) on {self.cgra.name}"
            f" ({self.cgra.n_cells} cells):"
            f" ResMII={self.res_mii}, RecMII={self.rec_mii},"
            f" MII={self.mii}"
        )


def _cyclic_components(succ: dict[int, list[int]]) -> list[set[int]]:
    """The strongly connected components of ``succ`` that hold a cycle:
    two or more nodes, or one node with a self-loop.

    Iterative Tarjan, so deep graphs do not hit the recursion limit.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    found: list[set[int]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp.add(member)
                        if member == node:
                            break
                    if len(comp) > 1 or node in succ[node]:
                        found.append(comp)
    return found


def _positive_cycle(
    nodes: set[int], edges: list[tuple[int, int, int, int]], ii: int
) -> bool:
    """True when some cycle of ``edges`` (``(src, dst, latency(src),
    dist)``) has ``sum(latency) - ii * sum(dist) > 0``.

    Bellman-Ford for longest paths from a virtual source joined to
    every node: without a positive cycle the distances settle within
    ``len(nodes) - 1`` passes after the start, so a relaxation in pass
    ``len(nodes)`` proves one.
    """
    best = dict.fromkeys(nodes, 0)
    for _ in range(len(nodes)):
        changed = False
        for src, dst, lat, dist in edges:
            reach = best[src] + lat - ii * dist
            if reach > best[dst]:
                best[dst] = reach
                changed = True
        if not changed:
            return False
    return True
