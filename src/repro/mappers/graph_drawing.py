"""Graph-drawing-based spatial mapper.

Yoon et al. [23] observed that spatial mapping is a graph-drawing
problem: draw the DFG in the plane so edges are short, then legalise
the drawing onto the grid.  This implementation uses a force-directed
layout (networkx spring embedding, deterministic seed), scales it to
the array, snaps each op to the nearest free compatible cell in
drawing order, and finishes with a greedy local-improvement pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.arch.cgra import CGRA
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG
from repro.mappers.spatial_common import (
    candidate_cells,
    finalize,
    spatial_cost,
)

__all__ = ["GraphDrawingMapper"]

#: pairwise-swap passes over the legalised drawing
IMPROVE_PASSES = 3


@register
@dataclass(eq=False, kw_only=True)
class GraphDrawingMapper(Mapper):
    """Force-directed drawing + grid legalisation (Yoon et al. style)."""

    info = MapperInfo(
        name="graph_drawing",
        family="heuristic",
        subfamily="graph drawing",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[23]",
        year=2009,
    )

    def _layout(self, dfg: DFG, seed: int) -> dict[int, tuple[float, float]]:
        # networkx only here, so importing the mapper stack stays lean.
        import networkx as nx

        g = nx.Graph()
        nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
        g.add_nodes_from(nodes)
        for e in dfg.edges():
            if e.src in g and e.dst in g and e.src != e.dst:
                g.add_edge(e.src, e.dst)
        if len(nodes) == 1:
            return {nodes[0]: (0.5, 0.5)}
        pos = nx.spring_layout(g, seed=seed, iterations=120)
        xs = [p[0] for p in pos.values()]
        ys = [p[1] for p in pos.values()]
        w = max(xs) - min(xs) or 1.0
        h = max(ys) - min(ys) or 1.0
        return {
            nid: ((p[0] - min(xs)) / w, (p[1] - min(ys)) / h)
            for nid, p in pos.items()
        }

    def _snap(
        self, dfg: DFG, cgra: CGRA, pos: dict[int, tuple[float, float]]
    ) -> dict[int, int] | None:
        """Assign each op to the nearest free compatible cell."""
        binding: dict[int, int] = {}
        used: set[int] = set()
        # Most-constrained ops first, then drawing order.
        order = sorted(
            pos, key=lambda n: (len(candidate_cells(dfg, cgra, n)), n)
        )
        for nid in order:
            fx = pos[nid][0] * (cgra.width - 1)
            fy = pos[nid][1] * (cgra.height - 1)
            options = [
                c for c in candidate_cells(dfg, cgra, nid) if c not in used
            ]
            if not options:
                return None
            cell = min(
                options,
                key=lambda c: (cgra.coords(c)[0] - fx) ** 2
                + (cgra.coords(c)[1] - fy) ** 2,
            )
            binding[nid] = cell
            used.add(cell)
        return binding

    def _improve(
        self, dfg: DFG, cgra: CGRA, binding: dict[int, int]
    ) -> None:
        """Greedy pairwise-swap improvement on wirelength."""
        nodes = list(binding)
        for _ in range(IMPROVE_PASSES):
            improved = False
            base = spatial_cost(dfg, cgra, binding)
            for i, a in enumerate(nodes):
                for b in nodes[i + 1 :]:
                    ca, cb = binding[a], binding[b]
                    if cb not in candidate_cells(dfg, cgra, a):
                        continue
                    if ca not in candidate_cells(dfg, cgra, b):
                        continue
                    binding[a], binding[b] = cb, ca
                    cost = spatial_cost(dfg, cgra, binding)
                    if cost < base:
                        base = cost
                        improved = True
                    else:
                        binding[a], binding[b] = ca, cb
            if not improved:
                break

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        return self.first_valid(
            self._drawings(dfg, cgra), "legalised drawing is unroutable"
        )

    def _drawings(self, dfg: DFG, cgra: CGRA) -> Iterator[Mapping | None]:
        """The drawing at ``self.seed``, then one jittered retry that
        re-seeds the embedding (``self.seed + 1``)."""
        binding = self._snap(dfg, cgra, self._layout(dfg, self.seed))
        if binding is None:
            raise self.fail(
                f"{dfg.name} does not fit spatially on {cgra.name}"
            )
        yield self._finish(dfg, cgra, binding)
        binding = self._snap(dfg, cgra, self._layout(dfg, self.seed + 1))
        yield None if binding is None else self._finish(dfg, cgra, binding)

    def _finish(
        self, dfg: DFG, cgra: CGRA, binding: dict[int, int]
    ) -> Mapping | None:
        """Improve the snapped binding, then route it."""
        self._improve(dfg, cgra, binding)
        return finalize(dfg, cgra, binding)
