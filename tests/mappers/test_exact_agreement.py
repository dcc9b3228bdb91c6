"""Exact mappers cross-check each other and bound the heuristics.

The survey's core distinction: "exact based methods can prove the
optimality, whereas heuristics may find the optimal solution, but
without the possibility to prove it."  Within the shared adjacency
model, the ILP / SAT / CSP / B&B mappers must agree on feasibility at
a given II, and the best heuristic II can never beat the exact one.
"""

import pytest

from repro.api import map_dfg
from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.ir import kernels

from oracles import DPLLSATMapper

EXACT = ["ilp", "sat", "csp", "bnb"]
KERNELS = ["dot_product", "vector_add", "if_select", "accumulate"]


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(3, 3)


def best_ii(dfg, cgra, mapper, max_ii=6):
    for ii in range(1, max_ii + 1):
        try:
            m = map_dfg(dfg, cgra, mapper=mapper, ii=ii)
            return m.ii
        except MapFailure:
            continue
    return None


@pytest.mark.parametrize("kernel", KERNELS)
def test_exact_mappers_agree_on_best_ii(cgra, kernel):
    dfg = kernels.kernel(kernel)
    iis = {m: best_ii(dfg, cgra, m) for m in EXACT}
    values = set(iis.values())
    assert len(values) == 1, f"exact mappers disagree: {iis}"
    assert values != {None}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("heuristic", ["list_sched", "ultrafast", "crimson"])
def test_heuristics_never_beat_exact(cgra, kernel, heuristic):
    dfg = kernels.kernel(kernel)
    exact = best_ii(dfg, cgra, "sat")
    m = map_dfg(dfg, cgra, mapper=heuristic)
    assert exact is not None
    assert m.ii >= exact


def test_exact_proves_infeasibility_below_recmii(cgra):
    dfg = kernels.iir_biquad()  # RecMII = 3
    for mapper in EXACT:
        with pytest.raises(MapFailure):
            map_dfg(dfg, cgra, mapper=mapper, ii=2)


def test_exact_dot_product_reaches_ii1(cgra):
    """Fig. 3's headline: dot product at II = 1."""
    for mapper in EXACT:
        m = map_dfg(kernels.dot_product(), cgra, mapper=mapper, ii=1)
        assert m.ii == 1
        assert m.validate() == []


def test_spatial_ilp_proves_infeasibility():
    dfg = kernels.conv3x3()  # 17 ops
    cgra = presets.simple_cgra(2, 2)  # 4 cells
    with pytest.raises(MapFailure):
        map_dfg(dfg, cgra, mapper="ilp_spatial")


def test_spatial_ilp_finds_known_feasible():
    dfg = kernels.if_select()
    cgra = presets.simple_cgra(3, 3)
    m = map_dfg(dfg, cgra, mapper="ilp_spatial")
    assert m.validate() == []


def test_sat_engines_agree_on_best_ii(cgra):
    """The incremental CDCL path and the DPLL reference find the same IIs."""
    from repro.mappers.sat_mapper import SATMapper

    for kernel in KERNELS + ["fir4"]:
        dfg = kernels.kernel(kernel)
        cdcl = SATMapper().map(dfg, cgra)
        dpll = DPLLSATMapper().map(dfg, cgra)
        assert cdcl.ii == dpll.ii, kernel
        assert cdcl.validate() == []
        assert dpll.validate() == []


def test_cdcl_makes_at_most_half_the_dpll_decisions(cgra):
    """Clause learning pays for itself in search work: over dot_product
    and fir4, the CDCL mapper reaches the DPLL reference's II with at
    most half its decisions (a deterministic count, unlike wall time)."""
    from repro.mappers.sat_mapper import SATMapper
    from repro.obs.tracer import SOLVER_DECISIONS, tracing

    def decisions(mapper, dfg):
        with tracing() as tr:
            mapping = mapper.map(dfg, cgra)
        return mapping.ii, sum(s.total(SOLVER_DECISIONS) for s in tr.roots)

    totals = {"cdcl": 0, "dpll": 0}
    for kernel in ("dot_product", "fir4"):
        dfg = kernels.kernel(kernel)
        cdcl_ii, cdcl = decisions(SATMapper(), dfg)
        dpll_ii, dpll = decisions(DPLLSATMapper(), dfg)
        assert cdcl_ii == dpll_ii, kernel
        totals["cdcl"] += cdcl
        totals["dpll"] += dpll
    assert 0 < 2 * totals["cdcl"] <= totals["dpll"], totals


def test_sat_conflict_limit_reports_undetermined(cgra):
    """A conflict-limit overrun is 'undetermined', not a proof of UNSAT."""
    from repro.mappers.sat_mapper import SATMapper

    dfg = kernels.fir4()
    for mapper in (
        SATMapper(conflict_limit=0),
        DPLLSATMapper(conflict_limit=0),
    ):
        with pytest.raises(MapFailure, match="undetermined"):
            mapper.map(dfg, cgra, ii=1)


def test_sat_genuine_unsat_not_reported_undetermined(cgra):
    """A true infeasibility proof must not claim the limit was the cause."""
    from repro.mappers.sat_mapper import SATMapper

    dfg = kernels.iir_biquad()  # RecMII = 3
    with pytest.raises(MapFailure, match="UNSAT") as err:
        SATMapper().map(dfg, cgra, ii=2)
    assert "undetermined" not in str(err.value)
