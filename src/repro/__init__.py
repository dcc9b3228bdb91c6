"""repro — a canonical CGRA mapping framework.

This package reproduces, as one coherent library, the field surveyed in

    Kevin J. M. Martin, "Twenty Years of Automated Methods for Mapping
    Applications on CGRA", IPDPSW (CGRA4HPC) 2022.

It provides:

* an application intermediate representation (:mod:`repro.ir`) — data
  flow graphs (DFG), control flow graphs (CFG) and their combination
  (CDFG) — plus a tiny C-like front end (:mod:`repro.frontend`) and
  classic middle-end passes (:mod:`repro.passes`);
* a parametric CGRA architecture model (:mod:`repro.arch`) including
  the time-extended CGRA (TEC) and the modulo routing resource graph
  (MRRG) abstractions that temporal mappers search;
* exact optimisation substrates (:mod:`repro.solvers`): a 0/1 ILP
  model builder solved by HiGHS's MILP engine, and, written from
  scratch, a CDCL SAT solver and an AC-3 CSP solver;
* the mapping problem formulation and validity checker
  (:mod:`repro.core`), together with a mapper registry that carries the
  survey's Table I taxonomy as machine-readable metadata;
* twenty mapper implementations (:mod:`repro.mappers`) spanning every
  cell of that taxonomy — heuristics, meta-heuristics (SA / GA / QEA),
  ILP / branch-and-bound, and CSP / SAT formulations, for both spatial
  and temporal mapping;
* control-flow support (:mod:`repro.controlflow`): full and partial
  predication, dual-issue single execution, direct CDFG mapping, and
  hardware loops;
* data mapping (:mod:`repro.memory`): multi-bank scratchpads, array
  partitioning, and register allocation;
* a cycle-accurate functional simulator (:mod:`repro.sim`) that
  executes generated configuration contexts; and
* the survey's own dataset (:mod:`repro.survey`): a structured
  bibliography from which the paper's Table I and Fig. 4 are
  regenerated.

Quickstart::

    from repro import kernels, presets, map_dfg

    dfg = kernels.dot_product()
    cgra = presets.simple_cgra(4, 4)
    mapping = map_dfg(dfg, cgra, mapper="dresc")
    print(mapping.ii, mapping.schedule_length)
"""

from repro._version import __version__
from repro.api import available_mappers, compile_source, map_dfg

__all__ = [
    "__version__",
    "available_mappers",
    "compile_source",
    "map_dfg",
]
