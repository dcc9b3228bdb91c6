"""PlacementState delta-undo journal: rollback must equal a snapshot.

The annealing mappers replaced their per-move deep copies with the
inverse-operation journal, so the journal's one obligation is
exactness: after any mutation sequence, ``undo_to(mark)`` restores
occupancy, binding, schedule, routes, and the derived pending-edge set
and route length to the marked state.  The derived values are also
checked against a full scan (``oracles.placement``) after every step
of every walk and after every rollback.
"""

import random

import pytest

from oracles import route_len_scan, unrouted_edges_scan
from repro.arch import presets
from repro.api import map_dfg
from repro.controlflow.dual_issue import DISEState, dual_issue
from repro.frontend import compile_to_cdfg
from repro.ir import kernels
from repro.mappers.construct import PlacementState

KERNELS = ["dot_product", "fir4", "sobel_x", "accumulate", "iir_biquad"]


def _occ_signature(occ):
    """Occupancy as comparable data (empty dicts normalise to None)."""
    norm = lambda rows: [dict(d) if d else None for d in rows]
    return (
        occ.fu[:],
        norm(occ.routed),
        norm(occ.rf),
        norm(occ.link),
        occ._used_fu,
        occ._used_routed,
        occ._used_rf,
        occ._used_link,
    )


def _snapshot(state):
    return (
        _occ_signature(state.occ),
        dict(state.binding),
        dict(state.schedule),
        {e: list(s) for e, s in state.routes.items()},
        set(state.pending),
        state.route_len,
    )


def _check_derived(state):
    """The incremental pending set and route length equal a full scan."""
    assert state.unrouted_edges() == unrouted_edges_scan(state)
    assert state.route_len == route_len_scan(state)


def _random_walk(state, rng, steps):
    """Random place_loose / place / unplace / try_route mutations."""
    dfg, cgra = state.dfg, state.cgra
    nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
    for _ in range(steps):
        action = rng.random()
        placed = [n for n in nodes if n in state.binding]
        if action < 0.45 or not placed:
            nid = rng.choice(nodes)
            if nid in state.binding:
                continue
            cell = rng.randrange(cgra.n_cells)
            t = rng.randint(0, 2 * state.ii + 3)
            if action < 0.3:
                state.place_loose(nid, cell, t)
            else:
                state.place(nid, cell, t)
        elif action < 0.75:
            state.unplace(rng.choice(placed))
        else:
            for e in state.unrouted_edges():
                state.try_route(e)
        _check_derived(state)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("kernel", KERNELS)
def test_undo_restores_marked_state(seed, kernel):
    dfg = kernels.kernel(kernel)
    cgra = presets.simple_cgra(3, 3)
    rng = random.Random(seed)
    state = PlacementState(dfg, cgra, ii=2)
    state.begin_undo()
    # Build up some arbitrary prefix state, then accept it.
    _random_walk(state, rng, 10)
    state.commit()
    reference = _snapshot(state)
    mark = state.mark()
    _random_walk(state, rng, 25)
    state.undo_to(mark)
    _check_derived(state)
    assert _snapshot(state) == reference


@pytest.mark.parametrize("seed", range(6))
def test_nested_marks_unwind_in_order(seed):
    cgra = presets.simple_cgra(3, 3)
    for kernel in ("fir4", "accumulate"):
        dfg = kernels.kernel(kernel)
        rng = random.Random(seed)
        state = PlacementState(dfg, cgra, ii=2)
        state.begin_undo()
        snaps, marks = [], []
        for _ in range(4):
            snaps.append(_snapshot(state))
            marks.append(state.mark())
            _random_walk(state, rng, 8)
        for mark, snap in zip(reversed(marks), reversed(snaps)):
            state.undo_to(mark)
            _check_derived(state)
            assert _snapshot(state) == snap


DISE_SOURCE = """
kernel absdiff {
    c = a > b;
    if (c) { d = a - b; y = d * k; } else { d = b - a; y = d + k; }
    out y;
}
"""


def test_dise_shared_slots_keep_derived_state():
    """DISEState's slot-sharing place keeps pending and route_len."""
    dfg, pairs = dual_issue(compile_to_cdfg(DISE_SOURCE))
    partner = {}
    for a, b in map(tuple, pairs):
        partner[a], partner[b] = b, a
    cgra = presets.simple_cgra(3, 3)
    nodes = [n.nid for n in dfg.nodes() if not n.op.is_pseudo]
    shared = 0
    for seed in range(12):
        rng = random.Random(seed)
        state = DISEState(dfg, cgra, 2, partner)
        for _ in range(40):
            nid = rng.choice(nodes)
            if nid in state.binding:
                continue
            mate = partner.get(nid)
            cell = rng.randrange(cgra.n_cells)
            t = rng.randint(0, 5)
            if mate in state.binding:
                cell, t = state.binding[mate], state.schedule[mate]
                shared += state.place(nid, cell, t)
            elif rng.random() < 0.5:
                state.place(nid, cell, t)
            else:
                state.place_loose(nid, cell, t)
            _check_derived(state)
        for e in state.unrouted_edges():
            state.try_route(e)
        _check_derived(state)
    assert shared > 0


def test_dresc_fixed_seed_still_maps():
    """End to end: the journal-based annealer produces valid mappings."""
    cgra = presets.simple_cgra(3, 3)
    for kernel in ("dot_product", "fir4", "iir_biquad"):
        m = map_dfg(kernels.kernel(kernel), cgra, mapper="dresc", seed=1)
        assert m.validate() == []
