"""PlacementState / constructive engine tests."""

import pytest

from repro.arch import presets
from repro.ir.dfg import DFG, Op
from repro.ir import kernels
from repro.mappers.construct import PlacementState, greedy_construct
from repro.mappers.schedule import priority_order


@pytest.fixture
def cgra():
    return presets.simple_cgra(3, 3)


def chain():
    g = DFG()
    x = g.input("x")
    a = g.add(Op.NEG, x)
    b = g.add(Op.ABS, a)
    g.output(b, "y")
    return g, a, b


def test_place_routes_incident_edges(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=4)
    assert st.place(a, 0, 0)
    assert st.place(b, 1, 1)
    assert st.unrouted_edges() == []
    m = st.to_mapping()
    assert m.validate() == []


def test_place_rejects_unroutable_slot(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=4)
    assert st.place(a, 0, 0)
    # Cell 8 is 4 hops away: consumer at t=1 cannot be reached.
    assert not st.place(b, 8, 1)
    # State unchanged: b absent, occupancy clean.
    assert b not in st.binding
    assert st.occ.can_place_op(8, 1)


def test_place_rejects_occupied_fu(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=2)
    assert st.place(a, 0, 0)
    assert not st.place(b, 0, 2)  # folds onto slot 0


def test_unplace_restores_everything(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=8)
    st.place(a, 0, 0)
    st.place(b, 2, 2)  # needs a route step via cell 1
    assert sum(len(p) for p in st.routes.values()) == 1
    st.unplace(b)
    assert not st.routes
    assert st.occ.can_route(99, 1, 1)
    assert st.occ.can_place_op(2, 2)


def test_place_loose_tolerates_unroutable(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=4)
    st.place_loose(a, 0, 0)
    assert st.place_loose(b, 8, 1)  # placed despite no route
    assert len(st.unrouted_edges()) == 1


def test_try_route_after_timing_fix(cgra):
    g, a, b = chain()
    st = PlacementState(g, cgra, ii=8)
    st.place_loose(a, 0, 0)
    st.place_loose(b, 8, 1)
    e = st.unrouted_edges()[0]
    assert not st.try_route(e)
    st.unplace(b)
    st.place_loose(b, 8, 5)  # now 4 hops in 4 cycles: routable
    assert st.unrouted_edges() == []


def test_time_bounds_from_carried_successor(cgra):
    g = kernels.iir_biquad()
    ii = 3
    st = PlacementState(g, cgra, ii)
    # Find the y (SUB named 'y') node and one feedback consumer.
    y = next(n.nid for n in g.nodes() if n.name == "y")
    fb1 = next(n.nid for n in g.nodes() if n.name == "a1*y1")
    assert st.place(fb1, 0, 0)
    lb, ub = st.time_bounds(y, window=20)
    # y -> fb1 has dist 1: t_y <= t_fb1 + ii - 1 = 2.
    assert ub == 2


def test_greedy_construct_full_kernel(cgra):
    g = kernels.sobel_x()
    order = priority_order(g, by="height")
    m = greedy_construct(g, cgra, 2, order)
    assert m is not None
    assert m.validate() == []
    assert m.ii == 2


def test_greedy_construct_returns_none_when_infeasible(cgra):
    g = kernels.iir_biquad()  # RecMII 3
    order = priority_order(g, by="height")
    assert greedy_construct(g, cgra, 1, order) is None


def test_greedy_construct_no_hold_mode(cgra):
    g = kernels.dot_product()
    order = priority_order(g, by="height")
    m = greedy_construct(g, cgra, 1, order, allow_hold=False)
    assert m is not None
    from repro.arch.tec import HOLD

    assert all(
        s.kind != HOLD for path in m.routes.values() for s in path
    )
