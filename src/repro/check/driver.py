"""The conformance fuzz driver.

:func:`run_case` pushes one generated problem through the full oracle
chain; :func:`run_fuzz` sweeps a seed range (optionally over a process
pool) and aggregates a :class:`FuzzReport`.  Per case:

1. build the random DFG, input series, and target fabric;
2. interpret the DFG for the reference output series (a reference
   ``ZeroDivisionError`` aborts the case as *skipped* — the program
   itself faults, there is nothing to map against);
3. metamorphic invariants on the problem: isomorphic relabeling and
   the standard pass pipeline must preserve the interpreted semantics;
4. map with the case's mapper (``MapFailure`` is a legitimate outcome
   — *unmapped* — and a wall-clock overrun is *timeout*; any other
   exception is a ``map-crash`` divergence);
5. oracles on the result: ``Mapping.validate`` must be clean and, for
   modulo mappings, cycle-accurate simulation must equal the
   reference series;
6. mode invariants: on even seeds the relabeled twin goes through
   steps 4-5 too; cases with ``cache_mode == "on"`` assert cached
   replay is byte-identical to a cold solve; every 16th seed asserts
   fork workers return the in-process bytes;
7. every divergence of steps 4-5 is delta-debugged by
   :mod:`repro.check.shrink` down to a small reproducer and emitted as
   a pytest module.

Steps 4-5 are one function, :func:`_oracle_chain`, shared by the case
itself, its relabeled twin and the shrinker's predicate, so all three
reach a verdict the same way.  A divergence fails the sweep; the
policy is to fix the component at fault and commit the reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check import oracles
from repro.check.metamorphic import (
    cached_replay_difference,
    fork_replay_difference,
    pipeline_difference,
    relabel,
    relabel_difference,
)
from repro.check.problems import (
    DEFAULT_ARCHS,
    Case,
    case_cgra,
    case_dfg,
    case_inputs,
    generate_case,
    restrict_inputs,
)
from repro.check.report import (
    Divergence,
    emit_pytest,
    renumber,
    write_failure_log,
)
from repro.check.shrink import ShrinkBudget, shrink_dfg
from repro.core.exceptions import MapFailure
from repro.ir.dfg import DFG
from repro.obs.tracer import (
    CHECK_CASES,
    CHECK_DIVERGENCES,
    get_tracer,
)
from repro.parallel import PMapResult, TaskTimeout, race, time_limit

__all__ = ["FuzzReport", "run_case", "run_fuzz"]


@dataclass
class FuzzReport:
    """Aggregate outcome of a seed sweep."""

    cases: int = 0
    mapped: int = 0
    unmapped: int = 0
    timeouts: int = 0
    skipped: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def merge(self, other: "FuzzReport") -> None:
        self.cases += other.cases
        self.mapped += other.mapped
        self.unmapped += other.unmapped
        self.timeouts += other.timeouts
        self.skipped += other.skipped
        self.divergences.extend(other.divergences)

    def summary(self) -> str:
        return (
            f"{self.cases} cases: {self.mapped} mapped,"
            f" {self.unmapped} unmapped, {self.timeouts} timeouts,"
            f" {self.skipped} skipped, {len(self.divergences)} divergences"
        )


def _oracle_chain(
    case: Case, dfg: DFG, inputs, cgra, reference, timeout: float | None
) -> tuple[str, str | None, str]:
    """Map ``dfg`` with the case's mapper and hold the result to the
    oracles; returns ``(outcome, phase, detail)``.

    ``outcome`` is ``mapped``, ``unmapped``, ``timeout`` or the crash
    text.  ``phase`` is the first phase that failed (``map-crash``,
    ``validate``, ``sim``, ``sim-crash``), or None when nothing did;
    ``detail`` describes that failure.
    """
    from repro.core.registry import create

    mapper = create(case.mapper, seed=case.seed)
    try:
        with time_limit(timeout):
            mapping = mapper.map(dfg, cgra)
    except MapFailure:
        return "unmapped", None, ""
    except TaskTimeout:
        return "timeout", None, ""
    except Exception as ex:
        crash = f"crash: {type(ex).__name__}: {ex}"
        return crash, "map-crash", crash
    violations = mapping.validate(raise_on_error=False)
    if violations:
        return "mapped", "validate", "; ".join(violations[:4])
    if mapping.kind == "modulo":
        try:
            delta = oracles.sim_disagreement(
                mapping, case.n_iters, inputs, reference
            )
        except Exception as ex:
            return "mapped", "sim-crash", f"{type(ex).__name__}: {ex}"
        if delta:
            return "mapped", "sim", delta
    return "mapped", None, ""


def _shrunk(case: Case, dfg: DFG, inputs, cgra, timeout) -> DFG:
    """Delta-debug ``dfg`` while the oracle chain still fails on it.

    Any failing phase counts, so a divergence may legally morph into a
    related one while shrinking (standard delta-debugging behaviour);
    a candidate that no longer interprets raises, which the budget
    reads as "not failing".
    """

    def still_fails(candidate: DFG) -> bool:
        sub = restrict_inputs(inputs, candidate)
        reference = oracles.reference_outputs(candidate, case.n_iters, sub)
        _, phase, _ = _oracle_chain(
            case, candidate, sub, cgra, reference, timeout
        )
        return phase is not None

    return shrink_dfg(dfg, still_fails, budget=ShrinkBudget())


def run_case(
    case: Case,
    *,
    shrink: bool = True,
    timeout: float | None = None,
    metamorphic: bool = True,
) -> FuzzReport:
    """Push one case through the oracle chain; report its outcome."""
    tracer = get_tracer()
    report = FuzzReport(cases=1)
    with tracer.span(
        "check_case", seed=case.seed, mapper=case.mapper, arch=case.arch
    ):
        tracer.count(CHECK_CASES)
        dfg = case_dfg(case)
        inputs = case_inputs(case, dfg)
        cgra = case_cgra(case)

        def diverge(phase: str, detail: str, graph: DFG | None = None):
            tracer.count(CHECK_DIVERGENCES)
            d = Divergence(
                seed=case.seed, family=case.family, arch=case.arch,
                mapper=case.mapper, cache_mode=case.cache_mode,
                phase=phase, detail=detail, n_iters=case.n_iters,
                dfg_pretty=dfg.pretty(), inputs=dict(inputs),
            )
            if graph is not None:
                graph = renumber(graph)
                d.shrunk_pretty = graph.pretty()
                d.reproducer = emit_pytest(d, graph)
            report.divergences.append(d)

        # 2. Reference semantics.
        try:
            reference = oracles.reference_outputs(
                dfg, case.n_iters, inputs
            )
        except ZeroDivisionError:
            report.skipped += 1
            return report
        except Exception as ex:
            diverge("interp-crash", f"{type(ex).__name__}: {ex}")
            return report

        # 3. Problem-level metamorphic invariants.
        if metamorphic:
            delta = relabel_difference(
                dfg, case.n_iters, inputs, seed=case.seed
            )
            if delta:
                diverge("relabel", delta)
            delta = pipeline_difference(dfg, case.n_iters, inputs)
            if delta:
                diverge("passes", delta)

        # 4-5. Map, then the oracle chain on the result.
        with tracer.span("map_attempt"):
            outcome, phase, detail = _oracle_chain(
                case, dfg, inputs, cgra, reference, timeout
            )
        if outcome == "mapped":
            report.mapped += 1
        elif outcome == "unmapped":
            report.unmapped += 1
        elif outcome == "timeout":
            report.timeouts += 1
        if phase is not None:
            graph = (
                _shrunk(case, dfg, inputs, cgra, timeout) if shrink else None
            )
            diverge(phase, detail, graph)
        if outcome != "mapped" or phase is not None:
            return report

        # 6. Mode invariants.
        if metamorphic and case.seed % 2 == 0:
            twin, _ = relabel(dfg, case.seed)
            _, phase, detail = _oracle_chain(
                case, twin, inputs, cgra, reference, timeout
            )
            if phase is not None:
                diverge("relabel-map", f"relabeled twin {phase}: {detail}")
        if case.cache_mode == "on":
            try:
                with time_limit(timeout):
                    delta = cached_replay_difference(
                        dfg, cgra, case.mapper, seed=case.seed
                    )
            except TaskTimeout:
                delta = None
            if delta:
                diverge("cache-replay", delta)
        if metamorphic and case.seed % 16 == 3:
            delta = fork_replay_difference(
                dfg, cgra, case.mapper, seed=case.seed, timeout=timeout
            )
            if delta:
                diverge("fork-replay", delta)
    return report


# ---------------------------------------------------------------------------
def _case_worker(payload) -> FuzzReport:
    """Module-level ``race`` body: run one case (pickled to a worker
    when the sweep runs on the pool)."""
    case, shrink, timeout, metamorphic = payload
    return run_case(
        case, shrink=shrink, timeout=timeout, metamorphic=metamorphic
    )


def _crashed(res: PMapResult) -> bool:
    """A case that raised (not a timeout) ends the sweep: it re-raises."""
    return not res.ok and not res.timed_out


def _diverged(res: PMapResult) -> bool:
    """A ``fail_fast`` sweep also ends at a divergence."""
    return _crashed(res) or (res.ok and not res.value.ok)


def run_fuzz(
    seeds,
    mappers: list[str] | None = None,
    archs: list[str] | None = None,
    *,
    n_iters: int = 4,
    shrink: bool = True,
    timeout: float | None = None,
    log: str | None = None,
    fail_fast: bool = False,
    jobs: int = 1,
    metamorphic: bool = True,
) -> FuzzReport:
    """Sweep ``seeds``; return the aggregated :class:`FuzzReport`.

    Args:
        seeds: iterable of integer seeds (e.g. ``range(0, 200)``).
        mappers: registry names to rotate through (default: all).
        archs: preset names to rotate through (default:
            :data:`repro.check.problems.DEFAULT_ARCHS`).
        n_iters: iterations the semantic oracle observes per case.
        shrink: delta-debug failures down to small reproducers.
        timeout: per-map wall-clock budget in seconds (SIGALRM-based,
            like the bench harness; None = unbounded).
        log: append divergences to this JSONL file.
        fail_fast: stop at the first divergence (the cases after it
            are not reported, or not run at all).
        jobs: fork workers for the sweep itself (1 = in-process).
        metamorphic: also check relabel / pass-pipeline / fork-replay
            invariants (on by default; the CLI's ``--oracle-only``
            switches them off for bisecting).
    """
    from repro.core.registry import names

    mappers = list(mappers or names())
    archs = list(archs or DEFAULT_ARCHS)
    cases = [
        generate_case(s, mappers, archs, n_iters=n_iters) for s in seeds
    ]
    payloads = [(c, shrink, timeout, metamorphic) for c in cases]
    # The per-map timeout is enforced inside the case; give the whole
    # case a generous multiple before declaring it wedged (shrinking
    # re-runs the mapper many times).
    case_budget = None if timeout is None else timeout * 40
    results = race(
        _case_worker, payloads, jobs=jobs, timeout=case_budget,
        accept=_diverged if fail_fast else _crashed,
    )
    total = FuzzReport()
    for r in results:
        if r is None:
            break  # past the case that stopped a fail-fast sweep
        if r.ok:
            total.merge(r.value)
        elif r.timed_out:
            total.cases += 1
            total.timeouts += 1
        else:
            raise r.error
    if log and total.divergences:
        write_failure_log(log, total.divergences)
    return total
