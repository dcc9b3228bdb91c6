"""Deterministic case generation for the conformance fuzzer.

A :class:`Case` is one cell of the differential test matrix: a random
application (drawn from the :mod:`repro.ir.randdfg` families), an
architecture preset, one registered mapper, and an execution mode
(cache on/off).  Everything is a pure function of the case's ``seed``
and the mapper/arch lists the sweep was launched with, so any failure
the driver reports can be regenerated from its seed alone.

The mapper rotates with the seed (``mappers[seed % len(mappers)]``),
so a contiguous seed range covers every registered mapper evenly —
``repro fuzz --seeds 0:200`` exercises all 24 mappers ~8 times each
without paying for the full 200 x 24 product.  Graph sizes scale with
the selected mapper's technique family *and* the fabric: exact
methods get the small instances their solvers can settle quickly,
heuristics get wider and deeper graphs, and fabrics beyond the
default 4x4s raise the op ceiling so big arrays still see contention
(:func:`_size_budget`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.arch import presets
from repro.arch.cgra import CGRA
from repro.ir import randdfg
from repro.ir.dfg import DFG, Op

__all__ = [
    "Case",
    "DEFAULT_ARCHS",
    "GENERATOR_FAMILIES",
    "case_cgra",
    "case_dfg",
    "case_inputs",
    "generate_case",
    "restrict_inputs",
]

GENERATOR_FAMILIES = ("layered", "layered_alu", "series_parallel", "recurrent")

#: Presets the sweep rotates through by default.  ``hetero4x4`` is
#: deliberately absent: its route-only checkerboard makes most mappers
#: fail legitimately, which drowns the signal; pass ``--arch`` to
#: include it.
DEFAULT_ARCHS = ("simple4x4", "adres4x4", "hycube4x4")

# Graph-size budget per technique family: (min_ops, max_ops), before
# the generators' own bookkeeping nodes (layered() may append up to
# width-1 XOR combiners so every sink stays live).  Calibrated for the
# default 4x4 fabrics (16 compute cells); see :func:`_size_budget` for
# how larger fabrics scale the ceiling.
_SIZE_BUDGET = {
    "exact": (3, 6),
    "metaheuristic": (3, 8),
    "heuristic": (4, 12),
}

#: Compute-cell count the ``_SIZE_BUDGET`` tables assume.  Budgets for
#: fabrics at or below this stay exactly as tabulated, so the historic
#: 4x4 sweep corpus regenerates byte-identically.
_BASELINE_CELLS = 16


def _size_budget(family: str, n_compute: int) -> tuple[int, int]:
    """Op-count budget for a technique family on an ``n_compute`` fabric.

    A 12-op graph that stresses a 4x4 array rattles around inside a
    16x16 one — spatial mappers would never see contention and temporal
    mappers never see II pressure.  Heuristic and metaheuristic budgets
    therefore scale with the fabric (to ~40% occupancy at the ceiling,
    capped so cases stay sub-second); exact solvers keep their small
    instances regardless — their cost explodes with ops, not cells.
    """
    lo, hi = _SIZE_BUDGET[family]
    if n_compute <= _BASELINE_CELLS or family == "exact":
        return lo, hi
    scaled = hi * n_compute // (_BASELINE_CELLS * 2)
    return lo, min(max(hi, scaled), 96)


@dataclass(frozen=True)
class Case:
    """One conformance case, fully determined by its fields."""

    seed: int
    family: str
    arch: str
    mapper: str
    cache_mode: str = "off"  # "off" | "on"
    n_iters: int = 4

    def label(self) -> str:
        tag = "+cache" if self.cache_mode == "on" else ""
        return (
            f"seed={self.seed} {self.family} on {self.arch}"
            f" via {self.mapper}{tag}"
        )


def _mapper_family(mapper: str) -> str:
    from repro.core.registry import catalog

    return catalog().get(mapper, {}).get("family", "heuristic")


def generate_case(
    seed: int,
    mappers: list[str],
    archs: list[str] | None = None,
    *,
    n_iters: int = 4,
) -> Case:
    """Derive the case for ``seed`` from the sweep's mapper/arch lists."""
    if not mappers:
        raise ValueError("generate_case needs at least one mapper")
    archs = list(archs or DEFAULT_ARCHS)
    rng = random.Random(0xC0FFEE ^ seed)
    mapper = mappers[seed % len(mappers)]
    return Case(
        seed=seed,
        family=GENERATOR_FAMILIES[rng.randrange(len(GENERATOR_FAMILIES))],
        arch=archs[rng.randrange(len(archs))],
        mapper=mapper,
        cache_mode="on" if seed % 5 == 4 else "off",
        n_iters=n_iters,
    )


def case_cgra(case: Case) -> CGRA:
    return presets.by_name(case.arch)


def case_dfg(case: Case) -> DFG:
    """Build the case's application graph (deterministic in the seed)."""
    rng = random.Random(0xD1F6 ^ case.seed)
    n_compute = len(case_cgra(case).compute_cells())
    lo, hi = _size_budget(_mapper_family(case.mapper), n_compute)
    n_ops = rng.randint(lo, hi)
    if case.family == "layered":
        return randdfg.layered(
            n_ops,
            width=rng.randint(2, 4),
            max_skip=rng.randint(1, 2),
            n_inputs=rng.randint(1, 3),
            seed=case.seed,
        )
    if case.family == "layered_alu":
        # Same shape, full single-cycle ALU vocabulary (shifts,
        # comparisons, SELECT) — the ops the historical mix never hits.
        return randdfg.layered(
            n_ops,
            width=rng.randint(2, 4),
            max_skip=rng.randint(1, 2),
            n_inputs=rng.randint(1, 3),
            seed=case.seed,
            ops=randdfg.ALU_POOL,
        )
    if case.family == "series_parallel":
        # Depth d composes at most 2**(d+1)-1 ops, so clamp depth to
        # keep exact/metaheuristic solvers inside their op budget.
        depth = rng.randint(1, 2 if hi <= 8 else 3)
        return randdfg.series_parallel(depth, seed=case.seed)
    if case.family == "recurrent":
        base = randdfg.layered(
            max(2, n_ops - 1),
            width=rng.randint(2, 4),
            n_inputs=rng.randint(1, 2),
            seed=case.seed,
        )
        return randdfg.with_recurrences(
            base,
            count=rng.randint(1, 2),
            max_dist=rng.randint(1, 2),
            seed=case.seed,
        )
    raise ValueError(f"unknown generator family {case.family!r}")


def case_inputs(case: Case, dfg: DFG) -> dict[str, list[int]]:
    """Random input series for every INPUT node of ``dfg``.

    Mostly small signed values so recurrences stay legible, with an
    occasional large-magnitude sample (beyond 2**53) to flush out any
    evaluation path that silently round-trips through floats.
    """
    rng = random.Random(0x1A7 ^ case.seed)

    def sample() -> int:
        r = rng.random()
        if r < 0.8:
            return rng.randint(-8, 8)
        if r < 0.95:
            return rng.randint(-(1 << 15), 1 << 15)
        magnitude = rng.randint(1 << 54, 1 << 62)
        return -magnitude if rng.random() < 0.5 else magnitude

    return {
        node.name: [sample() for _ in range(case.n_iters)]
        for node in dfg.nodes()
        if node.op is Op.INPUT and node.name is not None
    }


def restrict_inputs(
    inputs: dict[str, list[int]], dfg: DFG
) -> dict[str, list[int]]:
    """Drop series for INPUT nodes a shrink step removed."""
    names = {
        n.name for n in dfg.nodes() if n.op is Op.INPUT and n.name
    }
    return {k: v for k, v in inputs.items() if k in names}
