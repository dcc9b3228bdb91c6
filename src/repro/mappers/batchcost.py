"""Delta-cost evaluation for spatial placement walks.

The annealing placers score a move by re-summing the wirelength terms
of the edges incident to the moved ops (:func:`repro.mappers
.spatial_common.spatial_cost` is per-edge, so everything else cancels).
At 16x16/32x32 the walk proposes a *batch* of candidate cells per move,
so :meth:`DeltaCost.move_deltas` scores the whole batch against one
precomputed per-node incidence list.

Costs are plain python integers (hop distances and edge weights are
integers), so the walk's control decisions never depend on float
rounding.  Plain loops over the few edges of one node beat array code
here: at this size numpy's per-call overhead outweighs the work.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG, Edge

__all__ = ["DeltaCost"]

#: constant cost added per stretched (non-adjacent) edge — see
#: :class:`DeltaCost`
STRETCH_PENALTY = 2


class DeltaCost:
    """Node indexing, per-node incidence and the weighted cost model.

    The cost model is the spatial wirelength objective with integer
    per-edge weights, plus a constant penalty per *stretched* edge::

        term(d) = 0           if d <= 1
                  d - 1 + P   otherwise        (P = STRETCH_PENALTY)
        cost(cells) = sum over edges e of  w[e] * term(dist(src_cell, dst_cell))

    The wirelength part is :func:`repro.mappers.spatial_common
    .spatial_cost`; the penalty is new: every non-adjacent edge claims
    at least one dedicated route cell, and on a near-full fabric free
    cells — not hops — are the scarce resource, so the placer must
    prefer *zero* stretched edges over many slightly-short ones.

    Weights start at 1; the routing-repair loop raises the weight of
    edges the router could not realise, so the next refinement round
    pulls exactly those endpoints together.
    """

    def __init__(self, dfg: DFG, cgra: CGRA) -> None:
        self.dfg = dfg
        self.cgra = cgra
        self.nodes: list[int] = sorted(
            n.nid for n in dfg.nodes() if not n.op.is_pseudo
        )
        self.index: dict[int, int] = {
            nid: i for i, nid in enumerate(self.nodes)
        }
        self.edges: list[Edge] = [
            e
            for e in dfg.edges()
            if e.src != e.dst
            and e.src in self.index
            and e.dst in self.index
        ]
        self.edge_id: dict[Edge, int] = {
            e: i for i, e in enumerate(self.edges)
        }
        # Per node: edge ids where the node is the source / the dest,
        # and the *other* endpoint's node index, aligned.
        n = len(self.nodes)
        self._src_eids: list[list[int]] = [[] for _ in range(n)]
        self._src_oth: list[list[int]] = [[] for _ in range(n)]
        self._dst_eids: list[list[int]] = [[] for _ in range(n)]
        self._dst_oth: list[list[int]] = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            si, di = self.index[e.src], self.index[e.dst]
            self._src_eids[si].append(eid)
            self._src_oth[si].append(di)
            self._dst_eids[di].append(eid)
            self._dst_oth[di].append(si)
        #: per node index: the node indices it shares an edge with
        #: (sorted, deduped) — the walk's locality anchors
        self.neighbors: list[list[int]] = [
            sorted(set(so) | set(do))
            for so, do in zip(self._src_oth, self._dst_oth)
        ]
        self._dist = cgra.distance_table()
        self._w = [1] * len(self.edges)
        self._all_eids = [
            sorted(set(se) | set(de))
            for se, de in zip(self._src_eids, self._dst_eids)
        ]

    def new_cells(self, binding: dict[int, int]) -> list[int]:
        """The binding as a flat node-indexed cell list."""
        return [binding[nid] for nid in self.nodes]

    def total(self, cells: list[int]) -> int:
        """Full weighted wirelength of ``cells``."""
        return self.edges_cost(cells, range(len(self.edges)))

    def edges_cost(self, cells: list[int], eids) -> int:
        """Weighted wirelength restricted to the given edge ids."""
        dist, w, idx = self._dist, self._w, self.index
        total = 0
        for eid in eids:
            e = self.edges[eid]
            d = dist[cells[idx[e.src]]][cells[idx[e.dst]]]
            if d > 1:
                total += w[eid] * (d - 1 + STRETCH_PENALTY)
        return total

    def move_deltas(
        self, cells: list[int], i: int, cands: list[int]
    ) -> list[int]:
        """Cost deltas for relocating node index ``i`` to each
        candidate cell, aligned with ``cands``."""
        dist, w = self._dist, self._w
        old = cells[i]
        src_pairs = [
            (w[eid], cells[o])
            for eid, o in zip(self._src_eids[i], self._src_oth[i])
        ]
        dst_pairs = [
            (w[eid], cells[o])
            for eid, o in zip(self._dst_eids[i], self._dst_oth[i])
        ]
        P = STRETCH_PENALTY
        old_sum = sum(
            wt * (d - 1 + P)
            for wt, oc in src_pairs
            if (d := dist[old][oc]) > 1
        ) + sum(
            wt * (d - 1 + P)
            for wt, sc in dst_pairs
            if (d := dist[sc][old]) > 1
        )
        out = []
        for c in cands:
            new_sum = sum(
                wt * (d - 1 + P)
                for wt, oc in src_pairs
                if (d := dist[c][oc]) > 1
            ) + sum(
                wt * (d - 1 + P)
                for wt, sc in dst_pairs
                if (d := dist[sc][c]) > 1
            )
            out.append(new_sum - old_sum)
        return out

    def union_eids(self, i: int, j: int) -> list[int]:
        """Sorted distinct edge ids incident to node indices i or j."""
        return sorted(set(self._all_eids[i]) | set(self._all_eids[j]))

    def bump_weight(self, eid: int, add: int = 1) -> None:
        """Raise one edge's weight (routing-repair escalation)."""
        self._w[eid] += add
