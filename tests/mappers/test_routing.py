"""Router unit tests."""

import pytest

from repro.arch import presets
from repro.arch.tec import HOLD, ROUTE
from repro.core.resources import Occupancy
from repro.mappers.routing import (
    RouteRequest,
    Router,
    commit_route,
    release_route,
)

from oracles import ReferenceRouter


@pytest.fixture
def cgra():
    return presets.simple_cgra(4, 1)  # a row: 0-1-2-3


def test_direct_neighbor_needs_no_steps(cgra):
    occ = Occupancy(cgra, ii=4)
    router = Router(cgra)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=1, t_consume=1)
    assert router.find(occ, req) == []


def test_same_cell_needs_no_steps(cgra):
    occ = Occupancy(cgra, ii=4)
    router = Router(cgra)
    req = RouteRequest(0, src_cell=2, t_emit=3, dst_cell=2, t_consume=4)
    assert router.find(occ, req) == []


def test_two_hops_one_route_step(cgra):
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
    steps = router.find(occ, req)
    assert steps is not None and len(steps) == 1
    assert steps[0].cell == 1 and steps[0].kind == ROUTE


def test_time_gap_bridged_by_hold(cgra):
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=0, t_consume=3)
    steps = router.find(occ, req)
    assert steps is not None and len(steps) == 2
    assert all(s.kind == HOLD and s.cell == 0 for s in steps)


def test_hold_disabled_router_uses_route_steps(cgra):
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra, allow_hold=False)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=0, t_consume=3)
    steps = router.find(occ, req)
    assert steps is not None
    assert all(s.kind == ROUTE for s in steps)


def test_unreachable_in_time_fails(cgra):
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    # 3 hops needed, 1 cycle available.
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=3, t_consume=2)
    assert router.find(occ, req) is None


def test_consumer_before_emission_fails(cgra):
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    req = RouteRequest(0, src_cell=0, t_emit=3, dst_cell=1, t_consume=2)
    assert router.find(occ, req) is None


def test_blocked_cell_forces_detour():
    cgra = presets.simple_cgra(3, 3)
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    # Block the straight middle cell (1) at the routing cycle.
    occ.place_op(99, 1, 1)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
    steps = router.find(occ, req)
    # The only 1-step detour would be via cell 1 (blocked) -> must fail
    # or go around, which needs 2 steps; with exactly 1 cycle, fail.
    assert steps is None
    # With one more cycle, the router detours via 3/4 or holds.
    req2 = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=3)
    steps2 = router.find(occ, req2)
    assert steps2 is not None
    assert all(s.cell != 1 or s.time != 1 for s in steps2)


def test_commit_and_release_are_inverse(cgra):
    occ = Occupancy(cgra, ii=4)
    router = Router(cgra)
    req = RouteRequest(7, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
    steps = router.find(occ, req)
    commit_route(occ, cgra, req, steps)
    assert not occ.can_route(8, 1, 1)  # other value blocked
    release_route(occ, cgra, req, steps)
    assert occ.can_route(8, 1, 1)


def test_negotiated_route_allows_congestion(cgra):
    occ = Occupancy(cgra, ii=4)
    router = Router(cgra)
    occ.place_op(99, 1, 1)  # congest the straight path
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
    assert router.find(occ, req) is None  # strict router refuses
    found = router.find_negotiated(occ, req)
    assert found is not None  # negotiated router pays the penalty
    steps, cost = found
    assert len(steps) == 1
    assert cost > 1.0


def test_negotiated_prefers_free_paths():
    cgra = presets.simple_cgra(3, 3)
    occ = Occupancy(cgra, ii=8)
    router = Router(cgra)
    occ.place_op(99, 1, 1)
    req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=3)
    steps, cost = router.find_negotiated(occ, req)
    # Two free cycles available: should avoid the blocked cell.
    assert all(not (s.cell == 1 and s.time == 1) for s in steps)


# -- terminal-link discipline (regression) ----------------------------------
# The span>0 acceptance of find_negotiated used to check only that the
# terminal link *exists*, while find and the span==0 paths also
# required it to be *free* — a congested terminal link was silently
# accepted and the resulting commit double-booked it.  Both routers
# (production and the reference in tests/oracles) share the strict
# rule: terminal link must exist AND be usable by this value.
def _routers_row4():
    cgra = presets.simple_cgra(4, 1)  # a row: 0-1-2-3
    return cgra, [Router(cgra), ReferenceRouter(cgra)]


def test_negotiated_rejects_busy_terminal_link_span1():
    cgra, routers = _routers_row4()
    for router in routers:
        occ = Occupancy(cgra, ii=8)
        # Another value owns link 1->2 at the consume cycle; the only
        # geometric path (route via 1, consume over 1->2) is illegal.
        occ.add_link(99, 1, 2, 2)
        req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
        assert router.find_negotiated(occ, req) is None
        assert router.find(occ, req) is None


def test_negotiated_accepts_terminal_link_shared_by_same_value():
    cgra, routers = _routers_row4()
    for router in routers:
        occ = Occupancy(cgra, ii=8)
        occ.add_link(0, 1, 2, 2)  # same value: sharing is legal
        req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=2)
        found = router.find_negotiated(occ, req)
        assert found is not None
        steps, _cost = found
        assert [s.cell for s in steps] == [1]


def test_negotiated_detours_around_busy_terminal_link():
    cgra = presets.simple_cgra(3, 3)
    for router in (Router(cgra), ReferenceRouter(cgra)):
        occ = Occupancy(cgra, ii=8)
        occ.add_link(99, 1, 2, 3)  # straight approach busy at consume
        req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=3)
        found = router.find_negotiated(occ, req)
        assert found is not None
        steps, _cost = found
        last = steps[-1]
        # Whatever path was taken, the terminal hop must not be the
        # occupied 1->2 link.
        assert not (last.kind == ROUTE and last.cell == 1)


def test_span0_rejects_busy_terminal_link():
    cgra, routers = _routers_row4()
    for router in routers:
        occ = Occupancy(cgra, ii=8)
        occ.add_link(99, 0, 1, 1)
        req = RouteRequest(0, src_cell=0, t_emit=0, dst_cell=1, t_consume=1)
        assert router.find(occ, req) is None
        assert router.find_negotiated(occ, req) is None
        # Same value may share it.
        occ2 = Occupancy(cgra, ii=8)
        occ2.add_link(0, 0, 1, 1)
        assert router.find(occ2, req) == []
        assert router.find_negotiated(occ2, req) == ([], 0.0)
