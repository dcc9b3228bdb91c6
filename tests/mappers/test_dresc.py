"""dresc and edge_centric: pinned mappings and routing work.

Both mappers read ``PlacementState``'s incrementally kept edge state —
dresc its pending-edge count and route length in the annealing cost,
edge_centric the route-length growth of each probe — so any drift in
that bookkeeping changes a mapping or a counter here.  Each digest
covers sweep-exact's six kernels on one 4x4 preset.  The values are
independent of ``PYTHONHASHSEED``; CI runs this file under two hash
seeds to keep it that way.
"""

import hashlib
import json

import pytest

from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    ROUTING_ATTEMPTS,
    tracing,
)

KERNELS = ("fir4", "sobel_x", "sad", "iir_biquad", "stencil1d_mem", "if_select")
ARCHS = ("simple4x4", "adres4x4", "hycube4x4", "hetero4x4")

#: (mapper, preset) -> digest of the six kernels' ``mapping_to_doc``
DIGESTS = {
    ("dresc", "simple4x4"): "976890f0979ff0d3",
    ("dresc", "adres4x4"): "ba9e7a03ef71e840",
    ("dresc", "hycube4x4"): "2d16ec75e689bd49",
    ("dresc", "hetero4x4"): "ee93bcfa5ba09ccc",
    ("edge_centric", "simple4x4"): "e23e315de9aed53a",
    ("edge_centric", "adres4x4"): "cd51583367e7b4ef",
    ("edge_centric", "hycube4x4"): "2f61094613ca8833",
    ("edge_centric", "hetero4x4"): "2a26c947297d1d54",
}

#: dresc's tracer totals over every DIGESTS problem
DRESC_TOTALS = {
    ROUTING_ATTEMPTS: 74_568,
    BACKTRACKS: 7_729,
    CANDIDATES_EXPLORED: 181_002,
}


def _run(mapper: str, arch: str) -> tuple[str, dict[str, int]]:
    """Digest of ``mapper`` over KERNELS on ``arch``, plus its counters."""
    cgra = presets.by_name(arch)
    h = hashlib.sha256()
    with tracing() as tr:
        for k in KERNELS:
            try:
                doc = mapping_to_doc(create(mapper).map(kernels.kernel(k), cgra))
            except MapFailure as exc:
                doc = {"failure": str(exc)}
            h.update(json.dumps(doc, sort_keys=True).encode())
    totals = {
        c: sum(r.total(c) for r in tr.roots) for c in DRESC_TOTALS
    }
    return h.hexdigest()[:16], totals


@pytest.mark.parametrize("mapper", ["dresc", "edge_centric"])
def test_sweep_kernels_pinned(mapper):
    totals = dict.fromkeys(DRESC_TOTALS, 0)
    for arch in ARCHS:
        digest, counts = _run(mapper, arch)
        assert digest == DIGESTS[mapper, arch], arch
        for c, n in counts.items():
            totals[c] += n
    if mapper == "dresc":
        assert totals == DRESC_TOTALS
