"""The exact encodings read one edge relation: ``adjplace.edge_supports``.

sat, ilp and csp each turn the adjacency model's edge rule into their
own constraint form.  The pins below fix what each produces:

* csp's mappings and search-node totals.  The search depends on the
  value order of every domain, including the order in which forward
  checking restores pruned values, so any drift in the edge relation
  or in the FU-slot exclusion moves a digest or the node count.
* sat's CNF clause list and ilp's constraint rows, in order: clause
  order steers CDCL, and row order steers HiGHS.

``edge_supports`` itself is checked against the rule it tabulates,
:func:`oracles.compatible`, slot pair by slot pair.
The values are independent of ``PYTHONHASHSEED``; CI runs this file
under two hash seeds to keep it that way.
"""

import hashlib
import json
import random

import pytest

from oracles import compatible
from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.core.problem import MappingProblem
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels
from repro.ir.randdfg import layered
from repro.mappers import adjplace
from repro.mappers.ilp_temporal import ILPTemporalMapper
from repro.mappers.regraph import split_dist0_edges
from repro.mappers.sat_mapper import _IncrementalModel
from repro.obs.tracer import SOLVER_NODES, tracing
from repro.solvers.ilp import ILP, ILPResult, ILPStatus

SWEEP = ("fir4", "sobel_x", "sad", "iir_biquad", "stencil1d_mem", "if_select")
CSP_KERNELS = ("dot_product", "accumulate", *SWEEP)

#: preset -> digest of csp's ``mapping_to_doc`` over CSP_KERNELS
CSP_DIGESTS = {
    "simple4x4": "90e8c17f1a78f610",
    "adres4x4": "810ec71e305b5aaf",
    "hetero4x4": "aac2394c6198ec3d",
}

#: preset -> csp's SOLVER_NODES total over CSP_KERNELS
CSP_NODES = {
    "simple4x4": 60,
    "adres4x4": 8_865,
    "hetero4x4": 28_791,
}

#: (encoder, preset) -> digest over SWEEP x MII..MII+2 x rounds 0, 1
ENCODING_DIGESTS = {
    ("sat", "simple4x4"): "df8f98e0023cbc45",
    ("sat", "hetero4x4"): "ec3b134008ec32d3",
    ("ilp", "simple4x4"): "b4a8e8a36a012ad9",
    ("ilp", "hetero4x4"): "d03bd4f717b20e86",
}


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()[:16]


def _csp_run(arch: str) -> tuple[str, int]:
    cgra = presets.by_name(arch)
    docs = []
    with tracing() as tr:
        for k in CSP_KERNELS:
            try:
                docs.append(
                    mapping_to_doc(create("csp").map(kernels.kernel(k), cgra))
                )
            except MapFailure as exc:
                docs.append({"failure": str(exc)})
    nodes = sum(r.total(SOLVER_NODES) for r in tr.roots)
    return _digest(docs), nodes


@pytest.mark.parametrize("arch", sorted(CSP_DIGESTS))
def test_csp_mappings_and_nodes_pinned(arch):
    assert _csp_run(arch) == (CSP_DIGESTS[arch], CSP_NODES[arch])


def _problems(arch: str):
    """(dfg, cgra, ii) for SWEEP x MII..MII+2 x insertion rounds 0, 1,
    grouped by round so sat's incremental model sees IIs ascending."""
    cgra = presets.by_name(arch)
    for k in SWEEP:
        dfg = kernels.kernel(k)
        mii = MappingProblem(dfg, cgra).mii
        for r in (0, 1):
            work = dfg if r == 0 else split_dist0_edges(dfg, r)
            yield [(work, cgra, ii) for ii in range(mii, mii + 3)]


def _sat_clauses(arch: str):
    for group in _problems(arch):
        model = _IncrementalModel()
        for dfg, cgra, ii in group:
            model.encode_ii(dfg, cgra, ii)
        yield model.cnf.clauses


def _ilp_rows(arch: str, monkeypatch):
    rows = []

    def capture(self, **_):
        rows.append(
            [[list(c.items()), s, b] for c, s, b in self._cons]
        )
        return ILPResult(ILPStatus.INFEASIBLE)

    monkeypatch.setattr(ILP, "solve", capture)
    mapper = ILPTemporalMapper()
    for group in _problems(arch):
        for dfg, cgra, ii in group:
            assert mapper._solve(dfg, cgra, ii) is None
    return rows


@pytest.mark.parametrize("arch", ["simple4x4", "hetero4x4"])
def test_sat_clauses_pinned(arch):
    assert _digest(_sat_clauses(arch)) == ENCODING_DIGESTS["sat", arch]


@pytest.mark.parametrize("arch", ["simple4x4", "hetero4x4"])
def test_ilp_rows_pinned(arch, monkeypatch):
    rows = _ilp_rows(arch, monkeypatch)
    assert _digest(rows) == ENCODING_DIGESTS["ilp", arch]


def _random_graph(seed: int, loops: bool):
    """A seeded layered DFG; ``loops`` adds loop-carried and self edges."""
    rng = random.Random(seed)
    dfg = layered(rng.randint(4, 9), width=rng.randint(2, 3), seed=seed)
    if loops:
        ops = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
        for _ in range(3):
            a, b = rng.choice(ops), rng.choice(ops)
            dfg.connect(a, b, dist=rng.randint(1, 2))
        nid = rng.choice(ops)
        dfg.connect(nid, nid, dist=rng.randint(1, 3))
    return dfg


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_edge_supports_match_compatible(seed, loops):
    dfg = _random_graph(seed, loops)
    cgra = presets.by_name(("simple4x4", "adres4x4", "hetero4x4")[seed % 3])
    for ii in (1, 2, 3):
        domains = adjplace.slot_domains(dfg, cgra, ii)
        tables = adjplace.edge_supports(dfg, cgra, ii, domains)
        edges = adjplace.real_edges(dfg)
        assert [e for e, _ in tables] == edges
        for e, table in tables:
            lat = dfg.node(e.src).op.latency
            du, dv = domains[e.src], domains[e.dst]
            if e.src == e.dst:
                assert table == [
                    compatible(cgra, ii, e, lat, s, s) for s in du
                ]
                continue
            assert table == [
                [j for j, sv in enumerate(dv)
                 if compatible(cgra, ii, e, lat, su, sv)]
                for su in du
            ]
