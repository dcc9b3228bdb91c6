"""Differential conformance harness (``repro fuzz``).

The package's credibility rests on all registered mappers agreeing
with the single semantic oracle, :class:`repro.ir.interp
.DFGInterpreter` — a mapping can pass :meth:`Mapping.validate` yet
compute the wrong values, and only differential execution catches
that.  This subsystem fuzzes every mapper against the oracle chain:

* :mod:`repro.check.problems` — deterministic random cases (generator
  family x arch preset x mapper x cache mode), regenerable from a seed;
* :mod:`repro.check.oracles` — the interpreter reference and the
  simulate-vs-interpret comparison;
* :mod:`repro.check.metamorphic` — relabeling, pass-pipeline, cache
  and fork replay invariants;
* :mod:`repro.check.shrink` — delta-debugging minimizer;
* :mod:`repro.check.report` — JSONL failure log and ready-to-paste
  pytest reproducers;
* :mod:`repro.check.driver` — the sweep (`repro fuzz` CLI, CI smoke),
  whose one oracle-chain function (map, validate, simulate) judges
  each case, its relabeled twin and every shrink candidate alike.

See DESIGN.md §9 for the conformance contract.
"""

from repro.check.driver import FuzzReport, run_case, run_fuzz
from repro.check.metamorphic import (
    cached_replay_difference,
    fork_replay_difference,
    pipeline_difference,
    relabel,
    relabel_difference,
)
from repro.check.oracles import reference_outputs, sim_disagreement
from repro.check.problems import (
    DEFAULT_ARCHS,
    GENERATOR_FAMILIES,
    Case,
    case_dfg,
    case_inputs,
    generate_case,
)
from repro.check.report import (
    Divergence,
    dfg_builder_source,
    emit_pytest,
    write_failure_log,
)
from repro.check.shrink import ShrinkBudget, shrink_dfg

__all__ = [
    "Case",
    "DEFAULT_ARCHS",
    "Divergence",
    "FuzzReport",
    "GENERATOR_FAMILIES",
    "ShrinkBudget",
    "cached_replay_difference",
    "case_dfg",
    "case_inputs",
    "dfg_builder_source",
    "emit_pytest",
    "fork_replay_difference",
    "generate_case",
    "pipeline_difference",
    "reference_outputs",
    "relabel",
    "relabel_difference",
    "run_case",
    "run_fuzz",
    "shrink_dfg",
    "sim_disagreement",
    "write_failure_log",
]
