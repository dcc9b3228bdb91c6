"""Stress-aware multi-mapping (wear levelling).

Gu et al. [39] observed that always running the *same* mapping wears
the same cells (NBTI/electromigration stress) and proposed dynamic
reconfiguration between several equivalent mappings so activity
spreads over the array.  :func:`multi_map` generates ``n`` mappings of
one kernel whose cell usage overlaps as little as possible — each
round biases the constructive engine away from cells earlier mappings
used — and :func:`stress_profile` quantifies the levelling.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Sequence

from repro.arch.cgra import CGRA
from repro.core.exceptions import MapFailure
from repro.core.mapper import first_valid, ii_range
from repro.core.mapping import Mapping
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState, greedy_construct
from repro.mappers.schedule import priority_order

__all__ = ["multi_map", "stress_profile", "stress_reduction"]


def multi_map(
    dfg: DFG,
    cgra: CGRA,
    *,
    n_maps: int = 4,
    ii: int | None = None,
    seed: int = 0,
) -> list[Mapping]:
    """Generate ``n_maps`` usage-diverse mappings of one kernel.

    Every mapping is fully valid on its own (each round returns through
    :func:`repro.core.mapper.first_valid`); together they spread FU
    activity across the array.  A round that finds nothing ends the
    rotation; raises :class:`MapFailure` if the first one does.
    """
    rng = random.Random(seed)
    order = priority_order(dfg, by="height")
    wear: Counter = Counter()  # cell -> accumulated usage
    mappings: list[Mapping] = []

    for _ in range(n_maps):
        def candidates(state: PlacementState, nid, lb, ub):
            op = state.dfg.node(nid).op
            anchors = state.neighbor_cells(nid)
            cells = list(state.cgra.supporting_cells(op))
            rng.shuffle(cells)
            local = Counter(state.binding.values())
            # Fresh cells first (across maps AND within this map),
            # then near the op's placed neighbours.
            cells.sort(
                key=lambda c: (
                    wear[c] + local[c],
                    sum(state.cgra.distance(a, c) for a in anchors),
                )
            )
            for t in range(lb, ub + 1):
                for c in cells:
                    yield (c, t)

        attempts = (
            greedy_construct(dfg, cgra, t, order, candidates=candidates)
            for t in ii_range(dfg, cgra, ii)
        )
        failure = "no further mapping" if mappings else (
            "not even one mapping exists"
        )
        try:
            mapping = first_valid("multi_map", attempts, failure)
        except MapFailure:
            if not mappings:
                raise
            break
        mapping.mapper = "multi_map"
        mappings.append(mapping)
        for cell in mapping.binding.values():
            wear[cell] += 1
    return mappings


def stress_profile(mappings: Sequence[Mapping]) -> Counter:
    """Per-cell FU usage summed over the mapping set."""
    wear: Counter = Counter()
    for m in mappings:
        for cell in m.binding.values():
            wear[cell] += 1
    return wear


def stress_reduction(mappings: Sequence[Mapping]) -> float:
    """Peak-stress ratio: repeated single mapping vs the rotation.

    Running mapping 0 for every epoch stresses its hottest cell
    ``n * peak0`` times; rotating spreads the same work.  Returns
    ``(n * peak_single) / peak_rotated`` — > 1 means levelling helps.
    """
    if not mappings:
        return 1.0
    n = len(mappings)
    single = Counter()
    for cell in mappings[0].binding.values():
        single[cell] += 1
    peak_single = max(single.values())
    peak_rotated = max(stress_profile(mappings).values())
    return (n * peak_single) / peak_rotated
