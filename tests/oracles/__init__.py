"""Reference engines the production layers are checked against.

Production ``src/`` holds one implementation per layer.  The engines
here exist only to be compared against: each is the original, plain
form of an algorithm whose optimised form ships in :mod:`repro`, and
the equivalence suites hold the two to byte-identical results.

* :class:`DictOccupancy` — the tuple-keyed ``dict``/``Counter``
  resource accounting, vs the flat-array
  :class:`repro.core.resources.Occupancy`;
* :class:`ReferenceRouter` — exhaustive layer-BFS and plain-Dijkstra
  temporal route searches, vs the pruned flat-array searches behind
  :class:`repro.mappers.routing.Router`;
* :func:`negotiate_reference` — dict + ``heapq`` PathFinder spatial
  negotiation with the full rip-up schedule, vs
  :func:`repro.mappers.routecore.negotiate_spatial`;
* :func:`compatible` — the adjacency model's edge rule for one slot
  pair, vs its table :func:`repro.mappers.adjplace.edge_supports`;
* :func:`revise_ac1` — the graph-minor mapper's AC-1 sweep, vs the
  AC-3 :func:`repro.mappers.adjplace.arc_consistent`;
* :func:`unrouted_edges_scan` and :func:`route_len_scan` — full scans
  of the DFG's edges and the routes, vs the pending-edge set and
  running route length :class:`repro.mappers.construct.PlacementState`
  keeps up to date move by move;
* :class:`DPLLSolver` and :class:`DPLLSATMapper` — chronological DPLL
  and the fresh-encode-per-II SAT mapper on it, vs the incremental
  CDCL :class:`repro.solvers.sat.SatSolver` behind
  :class:`repro.mappers.sat_mapper.SATMapper`.

``tests/conftest.py`` puts ``tests/`` on ``sys.path``, so tests import
this package as ``oracles``; the benchmark scripts insert the same
directory themselves.
"""

from oracles.adjplace import compatible, revise_ac1
from oracles.placement import route_len_scan, unrouted_edges_scan
from oracles.routing import DictOccupancy, ReferenceRouter, negotiate_reference
from oracles.sat import DPLLSATMapper, DPLLSolver

__all__ = [
    "compatible",
    "DictOccupancy",
    "DPLLSATMapper",
    "DPLLSolver",
    "ReferenceRouter",
    "negotiate_reference",
    "revise_ac1",
    "route_len_scan",
    "unrouted_edges_scan",
]
