"""Tracing hooks across mappers, solvers, passes, and the harness."""

import pytest

from repro.arch import presets
from repro.bench.harness import _truncate, run_matrix
from repro.core.registry import create
from repro.ir import kernels
from repro.obs.tracer import (
    CANDIDATES_EXPLORED,
    II_ATTEMPTS,
    SOLVER_CLAUSES,
    SOLVER_NODES,
    get_tracer,
    tracing,
)
from repro.solvers.csp import CSP, CSPUnsat
from repro.solvers.ilp import ILP
from repro.solvers.sat import CNF, SatSolver


@pytest.fixture
def cgra():
    return presets.by_name("simple4x4")


# ---------------------------------------------------------------------------
def test_mapper_map_opens_root_span(cgra):
    dfg = kernels.kernel("fir4")
    with tracing() as tr:
        mapping = create("list_sched").map(dfg, cgra)
    root = tr.root
    assert root.name == "map"
    assert root.tags["mapper"] == "list_sched"
    assert root.tags["dfg"] == "fir4"
    assert root.tags["ii"] == mapping.ii
    assert root.t_end is not None
    # The attempted IIs appear as child spans, one per attempt.
    ii_spans = [s for _, s in root.walk() if s.name == "ii"]
    assert len(ii_spans) >= 1
    assert root.total(II_ATTEMPTS) == len(ii_spans)
    # And the mapping carries its own trace.
    assert mapping.trace is root


def test_mapping_trace_is_none_when_disabled(cgra):
    dfg = kernels.kernel("dot_product")
    mapping = create("list_sched").map(dfg, cgra)
    assert mapping.trace is None


@pytest.mark.parametrize(
    "mapper", ["sa_spatial", "dresc", "list_sched", "bnb", "graph_minor"]
)
def test_mappers_emit_inner_loop_counters(cgra, mapper):
    dfg = kernels.kernel("fir4")
    with tracing() as tr:
        create(mapper).map(dfg, cgra)
    # graph_minor counts its DFS calls, not the candidates it scans
    counter = SOLVER_NODES if mapper == "graph_minor" else CANDIDATES_EXPLORED
    assert tr.root.total(counter) > 0


def test_passes_record_spans(cgra):
    from repro.passes import standard_pipeline

    dfg = kernels.kernel("fir4")
    with tracing() as tr:
        standard_pipeline(dfg)
    pipeline = tr.root
    assert pipeline.name == "passes"
    names = {s.name for _, s in pipeline.walk()}
    assert any(n.startswith("pass:") for n in names)


# ---------------------------------------------------------------------------
def test_sat_solver_reports_model_size():
    cnf = CNF()
    a, b = cnf.new_var(), cnf.new_var()
    cnf.add(a, b)
    cnf.add(-a, b)
    with tracing() as tr:
        assert SatSolver(cnf).solve().sat
    span = tr.root
    assert span.name == "sat_solve"
    assert span.tags["vars"] == 2
    assert span.tags["sat"] is True
    assert span.counters[SOLVER_CLAUSES] == 2


def test_ilp_solver_reports_model_size():
    ilp = ILP()
    x = [ilp.add_var() for _ in range(3)]
    ilp.add_constraint({x[0]: 1, x[1]: 1, x[2]: 1}, "==", 1)
    ilp.set_objective({x[0]: 3.0, x[1]: 1.0, x[2]: 2.0})
    with tracing() as tr:
        ilp.solve()
    span = tr.root
    assert span.name == "ilp_solve"
    assert span.tags["vars"] == 3
    assert span.counters[SOLVER_CLAUSES] == 1
    assert "status" in span.tags


def test_csp_solver_reports_nodes_and_unsat():
    csp = CSP()
    csp.add_var("x", [0, 1])
    csp.add_var("y", [0, 1])
    csp.add_constraint(("x", "y"), lambda x, y: x + y == 5)
    with tracing() as tr:
        with pytest.raises(CSPUnsat):
            csp.solve()
    span = tr.root
    assert span.name == "csp_solve"
    assert span.tags["status"] == "unsat"
    assert SOLVER_NODES in span.counters


def test_solvers_untraced_when_disabled():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add(a)
    assert not get_tracer().enabled
    assert SatSolver(cnf).solve().sat  # must not blow up or trace


# ---------------------------------------------------------------------------
def test_run_matrix_records_traces(cgra):
    results = run_matrix(
        ["list_sched"], ["dot_product", "fir4"], cgra, trace=True
    )
    assert len(results) == 2
    for r in results:
        assert r.ok
        assert r.trace is not None
        assert r.trace.name == "map"
        assert r.trace.tags["dfg"] == r.kernel


def test_run_matrix_no_trace_by_default(cgra):
    (r,) = run_matrix(["list_sched"], ["dot_product"], cgra)
    assert r.trace is None


def test_run_matrix_times_mapper_separately(cgra):
    (r,) = run_matrix(["dresc"], ["fir4"], cgra)
    assert 0 < r.time_ms <= r.total_ms


def test_run_matrix_failure_row_keeps_trace():
    small = presets.by_name("simple2x2")
    (r,) = run_matrix(["sa_spatial"], ["conv3x3"], small, trace=True)
    assert not r.ok
    assert r.error
    assert r.trace is not None  # partial spans survive the failure


def test_matrix_row_includes_truncated_error(cgra):
    small = presets.by_name("simple2x2")
    (r,) = run_matrix(["sa_spatial"], ["conv3x3"], small)
    row = r.row()
    assert "error" in row
    assert row["error"]
    assert len(row["error"]) <= 48
    ok_row = run_matrix(["list_sched"], ["dot_product"], cgra)[0].row()
    assert ok_row["error"] == ""


def test_truncate_collapses_and_bounds():
    assert _truncate("a  b\nc", 10) == "a b c"
    long = "x" * 100
    out = _truncate(long, 10)
    assert len(out) == 10 and out.endswith("…")
