"""Clustered two-phase placer: partitioning, equivalence, quality.

Three angles on :mod:`repro.mappers.cluster`:

* the FM partitioner's contract (exact cover, capacity, determinism,
  linear-arrangement order on chains);
* the seeded refinement walk, pinned through its move journal;
* end-to-end placement quality: validate()-clean on every 4x4 preset
  and never worse than the flat annealer where both succeed, plus the
  scaling case the mapper exists for (a 200-op chain on 16x16).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels, randdfg
from repro.mappers.batchcost import DeltaCost
from repro.mappers.cluster import (
    ClusteredSpatialMapper,
    channel_columns,
    dataflow_depth,
    snake_cells,
)
from repro.mappers.partition import build_adjacency, partition
from repro.mappers.spatial_common import spatial_cost

PRESETS_4X4 = ["simple4x4", "adres4x4", "hycube4x4", "hetero4x4"]
EASY = ["vector_add", "dot_product", "if_select"]


# -- partitioning ------------------------------------------------------


def test_partition_exact_cover_and_capacity():
    dfg = kernels.kernel("sobel_x")
    compute = {n.nid for n in dfg.nodes() if not n.op.is_pseudo}
    clusters = partition(dfg, 4)
    seen = [nid for c in clusters for nid in c]
    assert sorted(seen) == sorted(compute)
    assert all(1 <= len(c) <= 4 for c in clusters)


def test_partition_deterministic():
    dfg = randdfg.layered(30, seed=7, width=3)
    assert partition(dfg, 8) == partition(dfg, 8)


def test_partition_chain_is_linear_arrangement():
    """On a pure chain the concatenated clusters must be the chain
    itself — consecutive clusters connectivity-adjacent — because the
    snake seed relies on that order."""
    dfg = randdfg.layered(
        24, seed=1, width=1, max_skip=1, ops=randdfg._UNOPS
    )
    adj = build_adjacency(dfg)
    clusters = partition(dfg, 6, adj=adj)
    flat = [nid for c in clusters for nid in c]
    breaks = sum(
        1
        for a, b in zip(flat, flat[1:])
        if b not in adj[a]
    )
    # Chain order may start from either end per bisection, but there
    # must be no interior discontinuities.
    assert breaks == 0


def test_partition_capacity_one_and_bad_capacity():
    dfg = kernels.kernel("vector_add")
    singletons = partition(dfg, 1)
    assert all(len(c) == 1 for c in singletons)
    with pytest.raises(ValueError):
        partition(dfg, 0)


# -- geometry helpers --------------------------------------------------


def test_snake_cells_covers_grid_and_stays_tight():
    cgra = presets.by_name("simple8x8")
    order = snake_cells(cgra)
    assert sorted(order) == list(range(cgra.n_cells))
    # Mesh-adjacent within bands; band seams may be two hops.
    seams = 0
    for a, b in zip(order, order[1:]):
        d = cgra.distance(a, b)
        assert d <= 2, (a, b)
        seams += d == 2
    assert seams <= cgra.height // 2


def test_channel_columns_budget_and_small_fabric():
    big = presets.by_name("simple16x16")
    chans = channel_columns(big, 200)
    # 56 spare cells on 256: at most 3 full columns fit.
    assert 0 < len(chans) <= 3
    assert 200 <= big.n_cells - len(chans) * big.height
    # Narrow fabrics reserve nothing — compactness wins there.
    assert channel_columns(presets.by_name("simple4x4"), 8) == frozenset()


def test_dataflow_depth_monotone_along_edges():
    dfg = kernels.kernel("fir4")
    depth = dataflow_depth(dfg)
    for e in dfg.edges():
        if e.dist == 0 and e.src in depth and e.dst in depth:
            assert depth[e.dst] >= depth[e.src] + 1


# -- pinned refinement walk --------------------------------------------

#: (kernel, seed) -> digest of refine's (node, target, delta, accepted)
#: journal plus the final cells, from the seeded partition seed
REFINE_WALKS = {
    ("dot_product", 0): "2ba317a0747bcf5b",
    ("dot_product", 1): "f6f4fcd4fba31705",
    ("dot_product", 2): "7dc68e6fa6c7539e",
    ("mac4", 0): "e938a049149ac06a",
    ("mac4", 1): "4e6dd6ec6768ab50",
    ("mac4", 2): "1a761a6f31c68b96",
    ("fir4", 0): "158138601dd57959",
    ("fir4", 1): "e42bcb36680fa71a",
    ("fir4", 2): "e89db0947e763a25",
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("kname", ["dot_product", "mac4", "fir4"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_refine_walk_pinned(kname, seed):
    """The whole seeded anneal -- every proposal, delta and
    accept/reject, not just the final cells -- is held fixed."""
    dfg = kernels.kernel(kname)
    cgra = presets.by_name("simple4x4")
    m = ClusteredSpatialMapper(seed=seed)
    ev = DeltaCost(dfg, cgra)
    binding = m.seed_binding(
        dfg, cgra, partition(dfg, m.region * m.region)
    )
    assert binding is not None
    cells = ev.new_cells(binding)
    journal: list = []
    m.refine(ev, cells, random.Random(seed), journal=journal)
    assert len(journal) == 1440
    assert _digest([journal, cells]) == REFINE_WALKS[(kname, seed)]


def test_mapper_output_pinned():
    dfg = kernels.kernel("fir4")
    cgra = presets.by_name("simple4x4")
    doc = mapping_to_doc(ClusteredSpatialMapper(seed=3).map(dfg, cgra))
    assert _digest([doc["binding"], doc["routes"]]) == "413e01dd0fdee698"


# -- end-to-end quality ------------------------------------------------


@pytest.mark.parametrize("pname", PRESETS_4X4)
@pytest.mark.parametrize("kname", EASY)
def test_valid_and_no_worse_than_flat_annealer(pname, kname):
    dfg = kernels.kernel(kname)
    cgra = presets.by_name(pname)
    ours = create("cluster", seed=0).map(dfg, cgra)
    assert ours.validate() == []
    assert ours.kind == "spatial"
    assert len(set(ours.binding.values())) == len(ours.binding)
    theirs = create("sa_spatial", seed=0).map(dfg, cgra)
    assert spatial_cost(dfg, cgra, ours.binding) <= spatial_cost(
        dfg, cgra, theirs.binding
    )


def test_capacity_failure_reported():
    dfg = kernels.kernel("conv3x3")
    cgra = presets.simple_cgra(2, 2)
    with pytest.raises(MapFailure) as ei:
        create("cluster").map(dfg, cgra)
    assert ei.value.mapper == "cluster"


def test_scales_to_200_op_chain_on_16x16():
    """The tentpole case: a 200-op dataflow chain on simple16x16 —
    beyond the flat annealer's horizon — maps cleanly."""
    dfg = randdfg.layered(
        200, seed=1, width=1, max_skip=1, ops=randdfg._UNOPS
    )
    cgra = presets.by_name("simple16x16")
    m = create("cluster", seed=0).map(dfg, cgra)
    assert m.validate() == []
    n_ops = sum(1 for n in dfg.nodes() if not n.op.is_pseudo)
    assert len(m.binding) == n_ops


def test_cluster_races_in_portfolio():
    """The two-phase placer slots into the portfolio as an entrant."""
    dfg = kernels.kernel("dot_product")
    cgra = presets.by_name("simple4x4")
    m = create(
        "portfolio", mappers=("cluster", "sa_spatial"), jobs=1
    ).map(dfg, cgra)
    assert m.validate() == []
    assert m.mapper == "portfolio"
