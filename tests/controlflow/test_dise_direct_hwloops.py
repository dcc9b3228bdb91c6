"""Dual-issue, direct CDFG mapping, and hardware-loop model tests."""

import pytest

from repro.arch import presets
from repro.controlflow.direct_cdfg import map_direct
from repro.controlflow.dual_issue import dual_issue, map_dual_issue
from repro.controlflow.hwloops import (
    HW_LOOP_SETUP,
    SW_LOOP_OVERHEAD,
    loop_execution_cycles,
    loop_speedup,
)
from repro.controlflow.predication import partial_predication
from repro.api import map_dfg
from repro.core.exceptions import MapFailure
from repro.ir import kernels

from tests.controlflow.test_predication import make_ite_cdfg


def test_dual_issue_pairs_opposite_arms():
    dfg, pairs = dual_issue(make_ite_cdfg())
    dfg.check()
    assert len(pairs) == 1  # one op per arm
    (pair,) = pairs
    a, b = tuple(pair)
    assert {dfg.node(a).op.value, dfg.node(b).op.value} == {"sub", "add"}


def test_dual_issue_mapping_shares_slot():
    cdfg = make_ite_cdfg()
    dfg, pairs = dual_issue(cdfg)
    cgra = presets.simple_cgra(4, 4)
    m = map_dual_issue(dfg, pairs, cgra)
    assert m.validate() == []
    # The paired ops share a (cell, slot).
    (pair,) = pairs
    a, b = tuple(pair)
    assert m.binding[a] == m.binding[b]
    assert m.schedule[a] % m.ii == m.schedule[b] % m.ii


def test_dual_issue_beats_partial_on_resources():
    """DISE's point: arms overlap, so fewer slots are consumed."""
    cdfg = make_ite_cdfg()
    cgra = presets.simple_cgra(4, 4)
    partial = map_dfg(partial_predication(cdfg), cgra,
                      mapper="list_sched")
    dfg, pairs = dual_issue(cdfg)
    dise = map_dual_issue(dfg, pairs, cgra)
    slots_partial = len(
        {(partial.binding[n], partial.schedule[n] % partial.ii)
         for n in partial.binding}
    )
    slots_dise = len(
        {(dise.binding[n], dise.schedule[n] % dise.ii)
         for n in dise.binding}
    )
    assert slots_dise < slots_partial


def test_validator_rejects_unauthorised_sharing():
    """coexec only waives conflicts for declared pairs."""
    cdfg = make_ite_cdfg()
    dfg, pairs = dual_issue(cdfg)
    cgra = presets.simple_cgra(4, 4)
    m = map_dual_issue(dfg, pairs, cgra)
    m.coexec = set()  # drop the waiver
    v = m.validate(raise_on_error=False)
    assert any("FU conflict" in s for s in v)


def test_dual_issue_failure_reports_producer_and_attempts():
    """Every II's candidate goes through the shared attempt loop."""
    dfg, pairs = dual_issue(make_ite_cdfg())
    cgra = presets.simple_cgra(2, 2, n_contexts=1)
    with pytest.raises(MapFailure) as info:
        map_dual_issue(dfg, pairs, cgra)
    assert info.value.mapper == "dual_issue"
    assert info.value.attempts > 0
    assert str(info.value).startswith("dual_issue: ")


# ---------------------------------------------------------------------------
def test_direct_cdfg_mapping():
    cdfg = make_ite_cdfg()
    cgra = presets.simple_cgra(4, 4)
    d = map_direct(cdfg, cgra)
    assert d.validate() == []
    assert d.total_contexts <= cgra.n_contexts
    # Both paths traverse entry + one arm + join (+2 switches).
    t_true = d.path_cycles(True)
    t_false = d.path_cycles(False)
    assert t_true > 0 and t_false > 0
    exp = d.expected_cycles(0.5)
    assert min(t_true, t_false) <= exp <= max(t_true, t_false)


def test_direct_cdfg_skips_untaken_arm():
    """Direct mapping pays one arm; predication pays both."""
    cdfg = make_ite_cdfg()
    cgra = presets.simple_cgra(4, 4)
    d = map_direct(cdfg, cgra)
    then_b = next(
        b for b, lab in cdfg.successors(cdfg.entry) if lab is True
    )
    else_b = next(
        b for b, lab in cdfg.successors(cdfg.entry) if lab is False
    )
    both_arms = (
        d.blocks[then_b].schedule_length
        + d.blocks[else_b].schedule_length
    )
    assert d.path_cycles(True) < both_arms + d.path_cycles(False)


def test_direct_cdfg_context_overflow():
    cdfg = make_ite_cdfg()
    cgra = presets.simple_cgra(4, 4, n_contexts=2)
    with pytest.raises(ValueError, match="contexts"):
        map_direct(cdfg, cgra)


# ---------------------------------------------------------------------------
def test_hw_loop_cycle_model():
    cgra = presets.simple_cgra(4, 4)
    m = map_dfg(kernels.dot_product(), cgra, mapper="list_sched")
    n = 100
    sw = loop_execution_cycles(m, n, hw_loop=False)
    hw = loop_execution_cycles(m, n, hw_loop=True)
    drain = m.schedule_length - m.ii
    assert sw == n * (m.ii + SW_LOOP_OVERHEAD) + drain
    assert hw == HW_LOOP_SETUP + n * m.ii + drain
    assert hw < sw


def test_hw_loop_speedup_grows_with_trip_count():
    cgra = presets.simple_cgra(4, 4)
    m = map_dfg(kernels.dot_product(), cgra, mapper="list_sched")
    assert loop_speedup(m, 1000) > loop_speedup(m, 10) > 1.0


def test_hw_loop_default_follows_architecture():
    hycube = presets.hycube_like(4, 4)  # hw_loop=True
    m = map_dfg(kernels.dot_product(), hycube, mapper="list_sched")
    assert loop_execution_cycles(m, 50) == loop_execution_cycles(
        m, 50, hw_loop=True
    )


def test_hw_loop_edge_cases():
    cgra = presets.simple_cgra(4, 4)
    m = map_dfg(kernels.dot_product(), cgra, mapper="list_sched")
    assert loop_execution_cycles(m, 0) == 0
    with pytest.raises(ValueError):
        loop_execution_cycles(m, -1)
