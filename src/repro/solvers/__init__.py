"""Exact optimisation substrates.

The survey's Table I puts ILP / branch-and-bound and constraint
satisfaction (CP, SAT, SMT) formulations in the "exact methods" column
— "the main feature of the exact based methods is that they can prove
the optimality".  Commercial solvers back the published work; none is
available here, so this package provides the three substrates the
exact mappers need:

* :mod:`repro.solvers.ilp` — a 0/1-and-bounded-integer linear program
  builder whose models are solved by HiGHS through
  :func:`scipy.optimize.milp` (cross-checked against brute-force
  enumeration in the test suite);
* :mod:`repro.solvers.sat` — a CDCL SAT solver (1-UIP clause learning,
  VSIDS branching, phase saving, Luby restarts, incremental solving
  under assumptions; the test suite replays its verdicts against a
  DPLL reference), plus CNF-building helpers (at-most-one /
  exactly-one encodings);
* :mod:`repro.solvers.csp` — a finite-domain CSP solver: backtracking
  with MRV variable choice, forward checking and AC-3 propagation."""

from repro.solvers.ilp import ILP, ILPResult, ILPStatus
from repro.solvers.sat import CNF, SatResult, SatSolver
from repro.solvers.csp import CSP, CSPUnsat

__all__ = [
    "CNF",
    "CSP",
    "CSPUnsat",
    "ILP",
    "ILPResult",
    "ILPStatus",
    "SatResult",
    "SatSolver",
]
