"""Flat routing core tests (repro.mappers.routecore).

Four layers of assurance for the flat-array engine:

* structure — the CSR graph mirrors the CGRA's adjacency exactly;
* unit — CellClaims refcounting and the DialQueue/heapq order contract;
* identity — negotiated spatial routing and the temporal searches are
  byte-identical to the reference engines in ``tests/oracles`` (same
  routes, same costs, same dict key order), and the pruned searches'
  explored-candidate totals are pinned;
* legality — incremental negotiation may pick different routes, but
  they are always legal and it succeeds whenever the full-schedule
  reference does.
"""

import heapq
import random

import pytest

from repro.arch import presets
from repro.arch.presets import by_name
from repro.arch.tec import HOLD, ROUTE
from repro.core.resources import Occupancy
from repro.ir import kernels
from repro.mappers import spatial_common as sc
from repro.mappers.routecore import (
    CellClaims,
    DialQueue,
    flat_graph,
    negotiate_spatial,
)
from repro.mappers.routing import RouteRequest, Router
from repro.obs.tracer import CANDIDATES_EXPLORED, tracing

from oracles import ReferenceRouter, negotiate_reference

SMALL_ARCHS = ["simple4x4", "adres4x4", "hycube4x4", "hetero4x4"]
# hetero4x4's op classes are too tight for injective random spatial
# bindings of the layered kernels (nearly every draw fails), so the
# spatial corpus uses the homogeneous 4x4s; hetero4x4 still runs the
# structure and temporal-router suites.
SPATIAL_ARCHS = ["simple4x4", "adres4x4", "hycube4x4"]


# -- structure --------------------------------------------------------------
@pytest.mark.parametrize("arch", SMALL_ARCHS + ["simple16x16"])
def test_flat_graph_mirrors_cgra_adjacency(arch):
    cgra = by_name(arch)
    fg = flat_graph(cgra)
    assert fg.n == cgra.n_cells
    for c in range(fg.n):
        out = list(cgra.neighbors_out(c))
        assert fg.out_rows[c] == out
        assert fg.out_nbr[fg.out_ptr[c] : fg.out_ptr[c + 1]] == out
        inn = list(cgra.neighbors_in(c))
        assert fg.in_rows[c] == inn
        assert fg.in_nbr[fg.in_ptr[c] : fg.in_ptr[c + 1]] == inn
        for k in range(fg.out_ptr[c], fg.out_ptr[c + 1]):
            assert fg.out_link[k] == cgra.link_table[(c, fg.out_nbr[k])]
    assert fg.dist is cgra.distance_table()
    assert fg.rf_size == [cell.rf_size for cell in cgra.cells]


def test_flat_graph_reach_mirrors_reach_lists():
    cgra = by_name("simple4x4")
    fg = flat_graph(cgra)
    for c, row in enumerate(cgra.reach_lists()):
        lo, hi = fg.reach_ptr[c], fg.reach_ptr[c + 1]
        assert fg.reach[lo:hi] == list(row)
        for k in range(lo, hi):
            d = fg.reach[k]
            expect = -1 if d == c else cgra.link_table[(c, d)]
            assert fg.reach_link[k] == expect


def test_flat_graph_shared_across_equal_arrays():
    a, b = by_name("simple4x4"), by_name("simple4x4")
    assert a is not b
    assert flat_graph(a) is flat_graph(b)  # fingerprint LRU hit
    assert flat_graph(a) is flat_graph(a)  # instance memo


def test_links_into_matches_in_adjacency():
    cgra = by_name("hetero4x4")
    fg = flat_graph(cgra)
    for dst in range(fg.n):
        into = fg.links_into(dst)
        assert set(into) == set(cgra.neighbors_in(dst))
        for src, lid in into.items():
            assert lid == cgra.link_table[(src, dst)]


# -- CellClaims -------------------------------------------------------------
def test_cell_claims_overused_boundary():
    claims = CellClaims(4)
    claims.claim(1, 10)
    assert not claims.overused
    claims.claim(1, 11)
    assert claims.overused == {1}
    claims.release(1, 10)
    assert not claims.overused
    assert claims.exclusive(1, 11)
    assert not claims.exclusive(1, 10)
    assert claims.exclusive(0, 10)  # untouched cell is free


def test_cell_claims_fanout_refcounts():
    claims = CellClaims(4)
    # Two edges of the same fan-out share cell 2.
    claims.claim_path([1, 2], 7)
    claims.claim_path([3, 2], 7)
    assert claims.n_here(2) == 1  # one distinct value
    claims.release_path([1, 2], 7)
    # The sibling's claim must survive the rip-up.
    assert claims.exclusive(2, 7)
    assert not claims.exclusive(2, 8)
    claims.release_path([3, 2], 7)
    assert claims.exclusive(2, 8)


def test_cell_claims_n_others():
    claims = CellClaims(2)
    claims.claim(0, 1)
    claims.claim(0, 2)
    claims.claim(0, 2)
    assert claims.n_here(0) == 2
    assert claims.n_others(0, 1) == 1
    assert claims.n_others(0, 3) == 2
    assert claims.n_others(1, 3) == 0


# -- DialQueue vs heapq -----------------------------------------------------
def test_dial_queue_matches_heapq_on_monotone_pushes():
    rng = random.Random(1234)
    for _ in range(50):
        dial, heap = DialQueue(), []
        popped_dial, popped_heap = [], []
        floor = 0  # pushes never go below the current drain point
        for _ in range(rng.randrange(5, 60)):
            if heap and rng.random() < 0.4:
                popped_dial.append(dial.pop())
                pri, payload = heapq.heappop(heap)
                popped_heap.append((pri, payload))
                floor = popped_heap[-1][0]
            else:
                # Deliberately many ties in both priority and payload
                # head so the in-bucket heap order is exercised.
                pri = floor + rng.randrange(0, 4)
                payload = (rng.randrange(0, 3), rng.randrange(100))
                dial.push(pri, payload)
                heapq.heappush(heap, (pri, payload))
        while heap:
            popped_dial.append(dial.pop())
            popped_heap.append(heapq.heappop(heap))
        assert popped_dial == popped_heap
        assert len(dial) == 0


def test_dial_queue_empty_pop_raises():
    q = DialQueue()
    with pytest.raises(IndexError):
        q.pop()
    q.push(3, "x")
    assert q.pop() == (3, "x")
    with pytest.raises(IndexError):
        q.pop()


# -- negotiated spatial routing: flat vs reference --------------------------
def _corpus(arch, n_ops, seed):
    cgra = by_name(arch)
    dfg = kernels.kernel(f"layered:{n_ops}:2:{seed}")
    # random_binding is allowed to fail on a tight fabric; retry a few
    # deterministic draws so the corpus rarely loses a case to it.
    binding = None
    for attempt in range(8):
        rng = random.Random(seed * 7919 + n_ops * 131 + attempt)
        binding = sc.random_binding(dfg, cgra, rng)
        if binding is not None:
            break
    return cgra, dfg, binding


@pytest.mark.parametrize("arch", SPATIAL_ARCHS)
@pytest.mark.parametrize("seed", range(8))
def test_negotiate_flat_full_matches_scalar_small(arch, seed):
    cgra, dfg, binding = _corpus(arch, 10 + 2 * (seed % 2), seed)
    if binding is None:
        pytest.skip("no injective binding for this seed")
    nets = sc.negotiation_nets(dfg, cgra, binding)
    r_flat = negotiate_spatial(cgra, binding, nets, incremental=False)
    r_ref = negotiate_reference(cgra, binding, nets)
    assert (r_flat is None) == (r_ref is None)
    if r_flat is not None:
        assert r_flat == r_ref
        # Byte-identical includes dict insertion order.
        assert list(r_flat) == list(r_ref)


@pytest.mark.parametrize("seed", range(4))
def test_negotiate_flat_full_matches_scalar_16x16(seed):
    cgra, dfg, binding = _corpus("simple16x16", 24, seed)
    assert binding is not None
    nets = sc.negotiation_nets(dfg, cgra, binding)
    r_flat = negotiate_spatial(cgra, binding, nets, incremental=False)
    r_ref = negotiate_reference(cgra, binding, nets)
    assert (r_flat is None) == (r_ref is None)
    if r_flat is not None:
        assert r_flat == r_ref and list(r_flat) == list(r_ref)


def _assert_legal_spatial_routes(cgra, binding, routes):
    """The legality `route_spatial` enforces: route cells are op-free
    and carry one value each (fan-out sharing within a value ok)."""
    op_cells = set(binding.values())
    claims = CellClaims(cgra.n_cells)
    for e, steps in routes.items():
        chain = [s.cell for s in steps]
        for c in chain:
            assert c not in op_cells
        claims.claim_path(chain, e.src)
        # The chain must be a connected src -> dst walk.
        prev = binding[e.src]
        for c in chain:
            assert cgra.has_link(prev, c)
            prev = c
        assert cgra.has_link(prev, binding[e.dst])
    assert not claims.overused


@pytest.mark.parametrize("arch", SPATIAL_ARCHS + ["simple16x16"])
@pytest.mark.parametrize("seed", range(5))
def test_incremental_negotiation_legal_and_no_worse(arch, seed):
    n_ops = 24 if arch == "simple16x16" else 12
    cgra, dfg, binding = _corpus(arch, n_ops, seed + 100)
    if binding is None:
        pytest.skip("no injective binding for this seed")
    r_ref = negotiate_reference(
        cgra, binding, sc.negotiation_nets(dfg, cgra, binding)
    )
    r_inc = sc.route_negotiated(dfg, cgra, binding)
    # Success parity: incremental succeeds whenever the full schedule
    # does (its exhaustion path falls back to that schedule).
    if r_ref is not None:
        assert r_inc is not None
    if r_inc is not None:
        assert set(r_inc) == set(r_ref or r_inc)
        _assert_legal_spatial_routes(cgra, binding, r_inc)


def test_negotiate_adjacent_chain_short_circuits():
    cgra = by_name("simple4x4")
    # A pure chain (width=1 draws from the unary pool) placed along a
    # row: every edge is cell-adjacent, so nothing needs negotiation.
    dfg = kernels.kernel("layered:4:1:0")
    nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
    # Serpentine cell order keeps consecutive cells grid-adjacent
    # (0..3 along row 0, then 7 directly below 3).
    cells = [0, 1, 2, 3, 7, 6, 5, 4]
    binding = {nid: cells[i] for i, nid in enumerate(nodes)}
    assert sc.negotiation_nets(dfg, cgra, binding) == []
    assert sc.route_negotiated(dfg, cgra, binding) == {}


# -- temporal searches: Router vs ReferenceRouter ---------------------------
def _random_occ(cgra, rng, ii=8):
    occ = Occupancy(cgra, ii=ii)
    n = cgra.n_cells
    for _ in range(n // 2):
        occ.place_op(rng.randrange(100), rng.randrange(n), rng.randrange(ii))
    for _ in range(n // 2):
        occ.add_route(
            rng.randrange(5), rng.randrange(n), rng.randrange(ii)
        )
    for _ in range(n // 4):
        src = rng.randrange(n)
        outs = list(cgra.neighbors_out(src))
        if outs:
            occ.add_link(
                rng.randrange(5), src, rng.choice(outs), rng.randrange(ii)
            )
    return occ


def _route_corpus(cgra, seed, n_cases, *, with_history=False):
    """Seeded ``(occ, req, history)`` cases over random occupancies;
    odd cases carry congestion history when ``with_history``."""
    rng = random.Random(seed)
    n = cgra.n_cells
    for case in range(n_cases):
        occ = _random_occ(cgra, rng)
        req = RouteRequest(
            rng.randrange(5),
            src_cell=rng.randrange(n),
            t_emit=rng.randrange(4),
            dst_cell=rng.randrange(n),
            t_consume=rng.randrange(1, 8),
        )
        history = {}
        if with_history and case % 2:
            for _ in range(6):
                key = (
                    rng.randrange(n),
                    rng.randrange(8),
                    HOLD if rng.random() < 0.5 else ROUTE,
                )
                history[key] = rng.randrange(1, 4)
        yield occ, req, history


# allow_hold=False exercises the engine's no-hold expansion branch.
@pytest.mark.parametrize("arch", ["simple4x4", "hetero4x4"])
@pytest.mark.parametrize("allow_hold", [False, True])
def test_router_find_flat_matches_scalar(arch, allow_hold):
    cgra = by_name(arch)
    flat = Router(cgra, allow_hold=allow_hold)
    ref = ReferenceRouter(cgra, allow_hold=allow_hold)
    for occ, req, _ in _route_corpus(cgra, 42, 40):
        assert flat.find(occ, req) == ref.find(occ, req)


@pytest.mark.parametrize("arch", ["simple4x4", "hetero4x4"])
def test_router_find_negotiated_flat_matches_scalar(arch):
    cgra = by_name(arch)
    flat = Router(cgra)
    ref = ReferenceRouter(cgra)
    for occ, req, history in _route_corpus(
        cgra, 4242, 30, with_history=True
    ):
        a = flat.find_negotiated(occ, req, history=history, penalty=10)
        b = ref.find_negotiated(occ, req, history=history, penalty=10)
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0]
            assert a[1] == pytest.approx(b[1], abs=1e-12)


#: Router's CANDIDATES_EXPLORED totals over the corpora above:
#: (find, find_negotiated at penalty 10).
EXPLORED_TOTALS = {
    "simple4x4": (1517, 382),
    "adres4x4": (1625, 479),
    "hycube4x4": (1985, 617),
    "hetero4x4": (1517, 382),
}


def _explored(router, cases, penalty=None):
    """CANDIDATES_EXPLORED over ``cases``: ``find`` when ``penalty`` is
    None, else ``find_negotiated`` at that penalty."""
    with tracing() as tr:
        for occ, req, history in cases:
            if penalty is None:
                router.find(occ, req)
            else:
                router.find_negotiated(
                    occ, req, history=history, penalty=penalty
                )
    return tr.counters.get(CANDIDATES_EXPLORED, 0)


@pytest.mark.parametrize("arch", SMALL_ARCHS)
def test_router_explored_totals_pinned(arch):
    """The pruned searches' work is a regression gate: a change that
    keeps every route but explores more states fails here."""
    cgra = by_name(arch)
    router = Router(cgra)
    find_cases = list(_route_corpus(cgra, 42, 40))
    nego_cases = list(_route_corpus(cgra, 4242, 30, with_history=True))
    got = (
        _explored(router, find_cases),
        _explored(router, nego_cases, penalty=10),
    )
    assert got == EXPLORED_TOTALS[arch]
    # Pruning only ever removes states from the reference's BFS.
    assert got[0] <= _explored(ReferenceRouter(cgra), find_cases)
