"""The oracle chain: what a conforming mapper run must satisfy.

The survey defines a valid mapping as "a binding (and scheduling) of
operations of the application on the hardware resources while
guaranteeing the dependencies" (§II-B).  Operationally this package
holds every mapper to three oracles, in order:

1. **structure** — :meth:`Mapping.validate` returns no violations;
2. **semantics** — for modulo mappings, executing the mapping
   cycle-accurately (:func:`repro.sim.simulate_mapping`) on random
   input series yields exactly the sequential reference semantics
   (:class:`repro.ir.interp.DFGInterpreter`) of the *original* graph —
   mappers are free to rewrite the DFG (ROUTE splits) as long as the
   observable output series per name are untouched;
3. **purity** — replays through the mapping cache and fork workers are
   byte-identical to the in-process cold solve
   (:mod:`repro.check.metamorphic`).

Spatial mappings have no schedule to execute, so oracle 2 does not
apply; their conformance surface is oracle 1 plus the metamorphic
invariants.  The driver runs oracles 1 and 2 in one function,
``repro.check.driver._oracle_chain``, which calls
:meth:`Mapping.validate` directly.
"""

from __future__ import annotations

from typing import Any, Mapping as TMapping

from repro.core.mapping import Mapping
from repro.ir.dfg import DFG
from repro.ir.interp import evaluate
from repro.sim.machine import simulate_mapping

__all__ = ["reference_outputs", "sim_disagreement"]


def reference_outputs(
    dfg: DFG, n_iters: int, inputs: TMapping[str, Any]
) -> dict[str, list[int]]:
    """The ground truth: sequential interpretation of ``dfg``."""
    return evaluate(dfg, n_iters, inputs)


def _first_mismatch(
    got: dict[str, list[int]], want: dict[str, list[int]]
) -> str | None:
    if set(got) != set(want):
        return (
            f"output names differ: mapped run has {sorted(got)},"
            f" reference has {sorted(want)}"
        )
    for name in sorted(want):
        if got[name] != want[name]:
            return (
                f"output {name!r} diverges: simulated {got[name]}"
                f" != reference {want[name]}"
            )
    return None


def sim_disagreement(
    mapping: Mapping,
    n_iters: int,
    inputs: TMapping[str, Any],
    reference: dict[str, list[int]],
) -> str | None:
    """Oracle 2: simulate the mapping, compare against the reference.

    Returns a human-readable description of the first disagreement, or
    None when the mapping computes exactly the reference series.  Only
    meaningful for modulo mappings (spatial ones have no schedule to
    replay); callers skip it for ``mapping.kind == "spatial"``.
    """
    sim = simulate_mapping(mapping, n_iters, inputs)
    return _first_mismatch(sim.outputs, reference)
