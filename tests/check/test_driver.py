"""The fuzz driver: clean mappers pass, corrupted mappers get caught,
failures shrink into runnable reproducers."""

import pytest

from repro.check import run_case, run_fuzz
from repro.check.problems import Case, generate_case
from repro.check.report import dfg_builder_source
from repro.core import registry
from repro.ir.dfg import DFG, Op


def _case_for(mapper: str, seed: int = 0, **kw) -> Case:
    return generate_case(seed, [mapper], **kw)


def test_clean_case_produces_no_divergence():
    report = run_case(_case_for("list_sched", seed=2), shrink=False)
    assert report.ok
    assert report.cases == 1
    assert report.mapped + report.unmapped + report.timeouts == 1


def test_run_fuzz_aggregates_and_rotates():
    report = run_fuzz(
        range(0, 6),
        mappers=["list_sched", "edge_centric"],
        shrink=False,
        metamorphic=False,
    )
    assert report.cases == 6
    assert report.ok
    assert "6 cases" in report.summary()


# ---------------------------------------------------------------------------
# A deliberately corrupted mapper must be convicted and shrunk.
# ---------------------------------------------------------------------------
@pytest.fixture
def corrupted_list_sched(monkeypatch):
    """list_sched whose mapping silently computes the wrong values.

    The mapping stays structurally valid (an ADD cell executes SUB just
    fine), so only the differential oracle can catch it — exactly the
    bug class the harness exists for.
    """
    base = registry.get("list_sched")

    class Corrupted(base):  # type: ignore[misc,valid-type]
        def _map(self, dfg, cgra, ii):
            mapping = super()._map(dfg.copy(), cgra, ii)
            for node in mapping.dfg.nodes():
                if node.op is Op.ADD:
                    node.op = Op.SUB
                    break
            return mapping

    monkeypatch.setitem(registry._REGISTRY, "list_sched", Corrupted)
    return "list_sched"


def _seed_with_add(mapper: str) -> Case:
    from repro.check.problems import case_dfg

    for seed in range(0, 200):
        case = generate_case(seed, [mapper])
        if any(n.op is Op.ADD for n in case_dfg(case).nodes()):
            return case
    raise AssertionError("no seed produced an ADD node")


def test_corrupted_mapper_is_convicted(corrupted_list_sched):
    case = _seed_with_add(corrupted_list_sched)
    report = run_case(case, shrink=False, metamorphic=False)
    assert not report.ok
    phases = {d.phase for d in report.divergences}
    assert "sim" in phases


def test_conviction_shrinks_and_emits_reproducer(corrupted_list_sched):
    case = _seed_with_add(corrupted_list_sched)
    report = run_case(case, shrink=True, metamorphic=False)
    assert not report.ok
    d = next(d for d in report.divergences if d.phase == "sim")
    assert d.shrunk_pretty
    assert d.reproducer
    # The reproducer must be compilable, self-contained Python whose
    # builder reconstructs exactly the shrunk graph.
    namespace: dict = {}
    exec(compile(d.reproducer, "<reproducer>", "exec"), namespace)
    rebuilt = namespace["build_dfg"]()
    assert rebuilt.pretty().splitlines()[1:] == (
        d.shrunk_pretty.splitlines()[1:]
    )  # same nodes/edges (name line differs only in graph name)
    # And smaller than what the generator produced.
    from repro.check.problems import case_dfg

    assert len(rebuilt) <= len(case_dfg(case))


def test_crashing_mapper_is_a_divergence(monkeypatch):
    base = registry.get("list_sched")

    class Crashing(base):  # type: ignore[misc,valid-type]
        def _map(self, dfg, cgra, ii):
            raise RuntimeError("kaboom")

    monkeypatch.setitem(registry._REGISTRY, "list_sched", Crashing)
    report = run_case(
        _case_for("list_sched", seed=1), shrink=False, metamorphic=False
    )
    assert not report.ok
    assert report.divergences[0].phase == "map-crash"
    assert "kaboom" in report.divergences[0].detail


# ---------------------------------------------------------------------------
# The relabeled twin goes through the same oracle chain as the case.
# ---------------------------------------------------------------------------
def _is_twin(dfg: DFG) -> bool:
    return "_perm" in dfg.name


def test_twin_sim_crash_is_a_divergence_not_a_sweep_error(monkeypatch):
    from repro.check import oracles

    real = oracles.sim_disagreement

    def crash_on_twin(mapping, *args):
        if _is_twin(mapping.dfg):
            raise IndexError("synthetic twin-only simulator fault")
        return real(mapping, *args)

    monkeypatch.setattr(oracles, "sim_disagreement", crash_on_twin)
    report = run_fuzz(range(0, 6), mappers=["list_sched"], timeout=20)
    twins = [d for d in report.divergences if d.phase == "relabel-map"]
    assert twins
    assert {d.phase for d in report.divergences} == {"relabel-map"}
    assert all(
        d.detail.startswith("relabeled twin sim-crash: IndexError")
        for d in twins
    )


def test_twin_map_crash_is_one_relabel_map_divergence(
    monkeypatch, fresh_pool
):
    base = registry.get("list_sched")

    class TwinCrashing(base):  # type: ignore[misc,valid-type]
        def _map(self, dfg, cgra, ii):
            if _is_twin(dfg):
                raise RuntimeError("twin only")
            return super()._map(dfg, cgra, ii)

    monkeypatch.setitem(registry._REGISTRY, "list_sched", TwinCrashing)
    report = run_fuzz(range(0, 6), mappers=["list_sched"], timeout=20)
    assert [(d.seed, d.phase) for d in report.divergences] == [
        (0, "relabel-map"), (2, "relabel-map"), (4, "relabel-map"),
    ]
    assert all(
        d.detail == "relabeled twin map-crash: crash: RuntimeError:"
        " twin only"
        for d in report.divergences
    )


def test_builder_source_round_trips_carried_edges():
    g = DFG("carried")
    x = g.input("x")
    a = g.add(Op.ADD, x, x)
    m = g.add(Op.MAX, a, a)
    e = g.operand(m, 1)
    g.remove_edge(e)
    g.connect(a, m, port=1, dist=2)
    g.output(m, "y")
    g.check()
    namespace: dict = {"DFG": DFG, "Op": Op}
    exec(dfg_builder_source(g), namespace)
    rebuilt = namespace["g"]
    assert rebuilt.pretty() == g.pretty()


# ---------------------------------------------------------------------------
# One sweep path for every jobs value
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_run_fuzz_reraises_a_case_error_instead_of_booking_a_timeout(jobs):
    # An unknown arch makes every case raise KeyError while building
    # its problem; that is a harness error, not a timeout.
    with pytest.raises(KeyError, match="no_such_arch"):
        run_fuzz(
            range(0, 3), mappers=["list_sched"], archs=["no_such_arch"],
            shrink=False, metamorphic=False, jobs=jobs,
        )


@pytest.fixture
def fresh_pool():
    """Workers forked after the test's registry patch, and gone again
    before the next test."""
    from repro.parallel import shutdown

    shutdown()
    yield
    shutdown()


def test_fail_fast_stops_at_the_same_case_for_any_jobs(
    corrupted_list_sched, fresh_pool
):
    reports = [
        run_fuzz(
            range(0, 12), mappers=[corrupted_list_sched], shrink=False,
            metamorphic=False, fail_fast=True, jobs=jobs,
        )
        for jobs in (1, 2)
    ]
    assert not reports[0].ok
    assert reports[0].cases < 12
    assert reports[0].summary() == reports[1].summary()
    assert [d.seed for d in reports[0].divergences] == [
        d.seed for d in reports[1].divergences
    ]


def test_timed_out_fork_replay_gives_no_verdict():
    from repro.arch import presets
    from repro.check.metamorphic import fork_replay_difference
    from repro.ir import kernels as kernel_lib

    # Budget well below dresc/sobel_x's warm runtime (~50 ms): both
    # fork replays time out, and a timeout says nothing about bytes.
    assert fork_replay_difference(
        kernel_lib.kernel("sobel_x"), presets.simple_cgra(4, 4), "dresc",
        timeout=0.02,
    ) is None
