"""Reference RecMII: the bound read off every simple cycle."""

from __future__ import annotations

import math

import networkx as nx

from repro.ir.dfg import DFG


def rec_mii_reference(dfg: DFG) -> int:
    """``max over simple cycles of ceil(sum(latency) / sum(distance))``,
    at least 1, with parallel edges collapsed to their minimum distance.

    Enumerates the cycles with networkx's ``simple_cycles``, so it is
    exponential in the worst case; the production
    :attr:`repro.core.problem.MappingProblem.rec_mii` bisects with a
    positive-cycle test instead.
    """
    g = nx.DiGraph()
    for nid in dfg:
        g.add_node(nid)
    for e in dfg.edges():
        if g.has_edge(e.src, e.dst):
            g[e.src][e.dst]["dist"] = min(g[e.src][e.dst]["dist"], e.dist)
        else:
            g.add_edge(e.src, e.dst, dist=e.dist)

    best = 1
    for cycle in nx.simple_cycles(g):
        lat = sum(dfg.node(n).op.latency for n in cycle)
        dist = sum(
            g[cycle[i]][cycle[(i + 1) % len(cycle)]]["dist"]
            for i in range(len(cycle))
        )
        if dist == 0:
            raise ValueError("zero-distance dependence cycle")
        best = max(best, math.ceil(lat / dist))
    return best
