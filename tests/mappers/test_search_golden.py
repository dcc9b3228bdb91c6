"""Pinned outputs of the mappers that share ``Mapper.first_valid``.

Every mapper below returns through the one attempt loop in
:mod:`repro.core.mapper`: the modulo mappers through its II
escalation ``Mapper.search``, the spatial ones with one candidate per
restart, route round or drawing.  For each, two things are held fixed:

* a digest of ``mapping_to_doc`` over three small kernels on
  simple4x4 (some of them need the loop to escalate past the MII);
* the ``MapFailure`` message and attempt count for a request that
  cannot be met: for a modulo mapper an explicit II below a two-op
  recurrence's RecMII, for a spatial mapper the kernel in
  :data:`SPATIAL_FAILURES`, which does not route on simple4x4.

The digests are independent of ``PYTHONHASHSEED``; CI runs this file
under two hash seeds to keep it that way.  A change that moves a
value here changes what a mapper returns or reports, and must say so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels
from repro.ir.dfg import DFG, Op

KERNELS = ("dot_product", "if_select", "accumulate")

#: mapper -> (doc digest over KERNELS, failure message, attempts)
GOLDEN = {
    "bnb": (
        "52e247c3227df1ca",
        "bnb: search space exhausted on simple4x4", 2,
    ),
    "crimson": (
        "1e2c207807a8d54c",
        "crimson: no feasible II after randomised restarts on simple4x4",
        8,
    ),
    "csp": (
        "a1fc80a24518f80c",
        "csp: CSP proved the windowed model infeasible on simple4x4", 2,
    ),
    "dresc": (
        "3c2658150c264b72",
        "dresc: annealing found no feasible II for loop2 on simple4x4", 1,
    ),
    "edge_centric": (
        "59500f7f4b87ede8",
        "edge_centric: no feasible II for loop2 on simple4x4", 1,
    ),
    "epimap": (
        "7de5e63ff7f3d795",
        "epimap: no feasible epimorphic extension on simple4x4", 1,
    ),
    "graph_minor": (
        "f4e774ac792934e3",
        "graph_minor: no minor embedding found on simple4x4", 3,
    ),
    "himap": (
        "685d6a0851f083cf",
        "himap: hierarchical search exhausted on simple4x4", 2,
    ),
    "ilp": (
        "a72271a41234c8e4",
        "ilp: ILP proved the windowed model infeasible on simple4x4", 2,
    ),
    "list_sched": (
        "7d79b77e99b06471",
        "list_sched: no feasible II for loop2 on simple4x4", 1,
    ),
    "ramp": (
        "fdaca3bfed52e31c",
        "ramp: all remapping strategies exhausted on simple4x4", 7,
    ),
    "regimap": (
        "68cdfb11b25063a4",
        "regimap: no feasible II for loop2 on simple4x4", 1,
    ),
    "rl": (
        "1b199d698e30e019",
        "rl: policy never learned a feasible placement on simple4x4", 1,
    ),
    "sat": (
        "12948a330acdafb7",
        "sat: UNSAT for every windowed model on simple4x4", 2,
    ),
    "smt": (
        "f8357dd686859b19",
        "smt: SMT skeleton exhausted on simple4x4", 2,
    ),
    "spr": (
        "1389463cb0edfdfb",
        "spr: negotiation never converged on simple4x4", 1,
    ),
    "ultrafast": (
        "3b76f076038dbbd0",
        "ultrafast: no feasible II for loop2 on simple4x4", 1,
    ),
    "cluster": (
        "a27ed0a95e7212db",
        "cluster: routing failed after 3 two-phase restarts", 3,
    ),
    "genmap": (
        "0557e54b2516d274",
        "genmap: best individual (fitness 105.0) is unroutable", 1,
    ),
    "graph_drawing": (
        "0280f8e33463274a",
        "graph_drawing: legalised drawing is unroutable", 2,
    ),
    "ilp_spatial": (
        "85d7477cb78d2670",
        "ilp_spatial: ILP proved spatial binding infeasible on simple4x4"
        " (within 2 route rounds)",
        2,
    ),
    "qea": (
        "eefde9da70b6fd15",
        "qea: best observation (fitness 106.0) is unroutable", 1,
    ),
    "sa_spatial": (
        "2243f6f23bb18475",
        "sa_spatial: routing failed after 4 annealing restarts", 4,
    ),
}

#: spatial mapper -> a kernel it fails to route on simple4x4
SPATIAL_FAILURES = {
    "cluster": "butterfly",
    "genmap": "fir8",
    "graph_drawing": "fir8",
    "ilp_spatial": "butterfly",
    "qea": "fir8",
    "sa_spatial": "fir8",
}


def _loop2() -> DFG:
    """Two adds in a distance-1 cycle: RecMII = 2."""
    g = DFG("loop2")
    a = g.input("a")
    s = g.add(Op.ADD, a, a)
    t = g.add(Op.ADD, s, s)
    g.remove_edge(g.operand(s, 1))
    g.connect(t, s, port=1, dist=1)
    g.output(t, "y")
    return g


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.fixture(scope="module")
def cgra():
    return presets.by_name("simple4x4")


@pytest.mark.parametrize("mname", sorted(GOLDEN))
def test_mapper_output_and_failure_pinned(cgra, mname):
    digest, message, attempts = GOLDEN[mname]
    docs = [
        mapping_to_doc(create(mname).map(kernels.kernel(k), cgra))
        for k in KERNELS
    ]
    assert _digest(docs) == digest
    with pytest.raises(MapFailure) as exc:
        if mname in SPATIAL_FAILURES:
            create(mname).map(kernels.kernel(SPATIAL_FAILURES[mname]), cgra)
        else:
            create(mname).map(_loop2(), cgra, ii=1)
    assert str(exc.value) == message
    assert exc.value.attempts == attempts


def test_sat_reports_undetermined_when_conflict_limit_hits(cgra):
    """The failure message may depend on what the search saw."""
    with pytest.raises(MapFailure) as exc:
        create("sat", conflict_limit=5).map(
            kernels.kernel("conv3x3"), cgra, ii=1
        )
    assert str(exc.value) == (
        "sat: undetermined: the conflict limit was reached before"
        " infeasibility could be proven on simple4x4"
        " (raise conflict_limit to get a proof)"
    )
    assert exc.value.attempts == 2
