"""The adjacency-model search core shared by ``graph_minor`` and ``bnb``.

Pinned here, on three budget-bound kernels on simple4x4 (each fails
low IIs in every insertion round before it maps):

* a digest of ``mapping_to_doc`` for both mappers;
* ``bnb``'s candidate, backtrack and search-node totals, which count
  the same DFS whatever makes it faster.

The AC-3 pruning is checked against the AC-1 sweep it replaced
(:func:`oracles.revise_ac1`) on seeded random graphs, and every
solution the DFS returns is checked against :func:`oracles.compatible`.
The digests are independent of ``PYTHONHASHSEED``; CI runs this file
under two hash seeds to keep it that way.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from oracles import compatible, revise_ac1
from repro.arch import presets
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels, randdfg
from repro.mappers import adjplace
from repro.mappers.regraph import split_dist0_edges
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    SOLVER_NODES,
    tracing,
)

KERNELS = ("sad", "stencil1d_mem", "iir_biquad")

DIGESTS = {
    "graph_minor": "9296856dbef85042",
    "bnb": "74070debad3a53f7",
}

BNB_TOTALS = {
    CANDIDATES_EXPLORED: 29_943_136,
    BACKTRACKS: 600_637,
    SOLVER_NODES: 600_640,
}

ARCHS = ("simple4x4", "adres4x4", "hetero4x4")


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _graphs():
    """Seeded random graphs, with and without loop-carried edges, plus
    their ROUTE-split forms; and two survey kernels with recurrences."""
    for seed in range(6):
        g = randdfg.layered(4 + seed % 4, seed=seed)
        if seed % 2:
            g = randdfg.with_recurrences(g, count=2, seed=seed)
        yield g
        yield split_dist0_edges(g, 1)
    yield kernels.kernel("accumulate")
    yield kernels.kernel("iir_biquad")


@pytest.fixture(scope="module")
def cgra():
    return presets.by_name("simple4x4")


@pytest.mark.parametrize("mname", sorted(DIGESTS))
def test_budget_bound_mappings_pinned(cgra, mname):
    with tracing() as tr:
        docs = [
            mapping_to_doc(create(mname).map(kernels.kernel(k), cgra))
            for k in KERNELS
        ]
    assert _digest(docs) == DIGESTS[mname]
    if mname == "bnb":
        totals = {c: sum(r.total(c) for r in tr.roots) for c in BNB_TOTALS}
        assert totals == BNB_TOTALS


def test_graph_minor_reports_search_work(cgra):
    with tracing() as tr:
        create("graph_minor").map(kernels.kernel("sad"), cgra)
    spans = tr.root.find("graph_minor_search")
    # II 1 and 2 fail in all three insertion rounds, II 3 maps.
    assert [s.tags["ii"] for s in spans] == [1, 1, 1, 2, 2, 2, 3]
    assert [s.tags["found"] for s in spans] == [False] * 6 + [True]
    assert all(s.counters[BACKTRACKS] == 2000 for s in spans[:6])
    assert all(s.counters[SOLVER_NODES] > 0 for s in spans)


@pytest.mark.parametrize("arch", ARCHS)
def test_ac3_matches_ac1(arch):
    cgra = presets.by_name(arch)
    for dfg in _graphs():
        for ii in (1, 2, 3):
            domains = adjplace.slot_domains(dfg, cgra, ii)
            assert adjplace.arc_consistent(
                dfg, cgra, ii, domains
            ) == revise_ac1(dfg, cgra, ii, domains), (dfg.name, ii)


@pytest.mark.parametrize("first", [True, False])
def test_dfs_solutions_satisfy_the_model(cgra, first):
    for dfg in _graphs():
        for ii in (1, 2, 3):
            domains = adjplace.slot_domains(dfg, cgra, ii)
            assign, _ = adjplace.dfs(
                dfg, cgra, ii, domains, first=first,
                max_backtracks=500, node_limit=5000,
            )
            if assign is None:
                continue
            assert set(assign) == set(domains)
            assert all(assign[n] in domains[n] for n in assign)
            taken = [(c, t % ii) for c, t in assign.values()]
            assert len(set(taken)) == len(taken)
            for e in adjplace.real_edges(dfg):
                if e.src == e.dst:
                    continue  # a self-loop is left to validation
                lat = dfg.node(e.src).op.latency
                assert compatible(
                    cgra, ii, e, lat, assign[e.src], assign[e.dst]
                ), (dfg.name, ii, e)
