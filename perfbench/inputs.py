"""Seeded input generation for every workload.

The program sees only what these functions build from the workload
seed.  Each plan is sized by ``seconds`` (the amount of timed work it
gives on a 2-CPU box) and is a pure function of ``(seed, seconds)``:
the same arguments give a byte-identical stream (:func:`digest`).

The plans fix the *shape* of the work and let the seed vary its
details, so that runs with different seeds measure the same thing:

* serve-mix: dresc, whose slow tail sets the latency percentiles,
  always maps every survey kernel on every 4x4 preset; the other
  constructive mappers map every kernel on a seeded subset of the
  presets; generated graphs go to the seven mappers that map every
  small random graph (epimap rejects about one in 300).
* sweep-exact: the cells are fixed (load balance over the pool is
  part of what it measures), and so are the big-fabric chains of its
  traced run (their compile times differ by up to 2x); the seed
  drives the order of the chains and the simulation inputs of the
  correctness check.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from repro.core.serialize import dfg_to_doc
from repro.ir import kernels as kernel_lib
from repro.ir import randdfg

#: the seed later performance claims must also hold on; it is never
#: used while tuning a change
HELD_OUT_SEED = 9001

# -- serve-mix ---------------------------------------------------------------
SERVE_MAPPERS = (
    "list_sched", "ultrafast", "regimap", "himap", "epimap", "crimson",
    "ramp", "edge_centric", "dresc",
)
#: mappers that map every small generated graph on every 4x4 preset
DFG_MAPPERS = (
    "list_sched", "ultrafast", "regimap", "himap", "crimson", "ramp",
    "edge_centric",
)
SERVE_ARCHS = ("simple4x4", "adres4x4", "hycube4x4", "hetero4x4")
#: the warm-up batch maps this kernel; the timed stream never does
WARMUP_KERNEL = "relu"
BATCH = 8
#: client connections; connection ``c`` sends batches c, c + 2, ...
CONNECTIONS = 2
REPEAT_SHARE = 0.3
#: unique requests per class at the reference length of 30 s
_DRESC_PAIRS = 96      # every kernel x every preset
_KERNEL_REQUESTS = 384  # 8 mappers x 24 kernels x 2 presets
_DFG_REQUESTS = 240
REFERENCE_SECONDS = 30


@dataclass
class ServePlan:
    batches: list[list[dict[str, Any]]]
    #: per batch, per request: index of its first occurrence in the
    #: flattened stream (itself for a unique request)
    origin: list[list[int]]
    warmup: list[dict[str, Any]]
    uniques: int

    @property
    def requests(self) -> int:
        return sum(len(b) for b in self.batches)


def _graph(rng: random.Random) -> dict[str, Any]:
    n_ops = rng.randint(3, 7)
    seed = rng.randrange(1 << 31)
    dfg = randdfg.layered(
        n_ops,
        width=rng.randint(2, 3),
        max_skip=rng.randint(1, 2),
        n_inputs=rng.randint(1, 3),
        seed=seed,
        ops=randdfg.ALU_POOL if rng.random() < 0.5 else None,
    )
    if rng.random() < 0.3:
        dfg = randdfg.with_recurrences(
            dfg, count=1, max_dist=rng.randint(1, 2), seed=seed
        )
    return dfg_to_doc(dfg)


def serve_plan(seed: int, seconds: int) -> ServePlan:
    rng = random.Random(f"serve-mix:{seed}")
    scale = seconds / REFERENCE_SECONDS
    kernels = [k for k in kernel_lib.kernel_names() if k != WARMUP_KERNEL]

    dresc = [
        {"kernel": k, "arch": a, "mapper": "dresc"}
        for k in kernels for a in SERVE_ARCHS
    ]
    n_dresc = min(len(dresc), round(_DRESC_PAIRS * scale))
    uniques = rng.sample(dresc, n_dresc)

    # Round r gives every (mapper, kernel) pair the r-th preset of its
    # own seeded preset order, so any prefix is balanced over pairs.
    pairs = [(m, k) for m in SERVE_MAPPERS if m != "dresc" for k in kernels]
    orders = {p: rng.sample(SERVE_ARCHS, len(SERVE_ARCHS)) for p in pairs}
    rounds = []
    for r in range(len(SERVE_ARCHS)):
        batch = [
            {"kernel": k, "arch": orders[(m, k)][r], "mapper": m}
            for m, k in pairs
        ]
        rng.shuffle(batch)
        rounds.extend(batch)
    uniques += rounds[: min(len(rounds), round(_KERNEL_REQUESTS * scale))]

    combos = [(m, a) for m in DFG_MAPPERS for a in SERVE_ARCHS]
    rng.shuffle(combos)
    for i in range(round(_DFG_REQUESTS * scale)):
        m, a = combos[i % len(combos)]
        uniques.append({"dfg": _graph(rng), "arch": a, "mapper": m})
    rng.shuffle(uniques)

    # Interleave ~30% byte-identical repeats.  A third of them repeat
    # a request earlier in the same batch (in-batch dedup); the rest
    # repeat one from an earlier batch of the same connection, which
    # has been answered by the time the repeat is sent, so the repeat
    # never races its original.
    n_unique = len(uniques)
    total = -(-round(n_unique / (1 - REPEAT_SHARE)) // BATCH) * BATCH
    n_repeat = total - n_unique
    slots = rng.sample(range(CONNECTIONS * BATCH, total), n_repeat)
    is_repeat = [False] * total
    for s in slots:
        is_repeat[s] = True
    stream: list[dict[str, Any]] = []
    origin: list[int] = []
    it = iter(uniques)
    for pos in range(total):
        if not is_repeat[pos]:
            stream.append(next(it))
            origin.append(pos)
            continue
        start = pos - pos % BATCH
        same = [q for q in range(start, pos) if origin[q] == q]
        if same and rng.random() < 1 / 3:
            src = rng.choice(same)
        else:
            b = pos // BATCH
            earlier = rng.randrange(b % CONNECTIONS, b - CONNECTIONS + 1,
                                    CONNECTIONS)
            src = BATCH * earlier + rng.randrange(BATCH)
        stream.append(stream[src])
        origin.append(origin[src])
    batches = [stream[i:i + BATCH] for i in range(0, total, BATCH)]
    origins = [origin[i:i + BATCH] for i in range(0, total, BATCH)]
    warmup = [
        {"kernel": WARMUP_KERNEL, "arch": "simple4x4", "mapper": m}
        for m in SERVE_MAPPERS
    ]
    return ServePlan(batches, origins, warmup, n_unique)


# -- sweep-exact -------------------------------------------------------------
SWEEP_MAPPERS = ("sat", "csp", "ilp", "graph_minor", "dresc", "rl")
SWEEP_KERNELS = (
    "fir4", "sobel_x", "sad", "iir_biquad", "stencil1d_mem", "if_select",
)
SWEEP_ARCH = "simple4x4"
#: (fabric, chain spec) of the big-fabric chains sweep-exact's traced
#: run compiles: fixed chains from the perf ledger's place and route
#: slices, which all map
CHAIN_PROBLEMS = (
    ("simple16x16", "layered:120:1:5"), ("simple16x16", "layered:200:1:1"),
    ("simple32x32", "layered:150:1:1"), ("simple32x32", "layered:120:1:7"),
)
#: warm-up compile per fabric, in set-up (never measured)
WARMUP_CHAIN = 12


@dataclass
class ChainPlan:
    problems: list[tuple[str, str]]  # (fabric, kernel spec)
    #: the order the problems are compiled in
    order: list[int]
    check_seed: int


@dataclass
class SweepPlan:
    mappers: tuple[str, ...]
    kernels: tuple[str, ...]
    passes: int
    check_seed: int
    chains: ChainPlan


def sweep_plan(seed: int, seconds: int) -> SweepPlan:
    rng = random.Random(f"sweep-exact:{seed}")
    check_seed = rng.randrange(1 << 31)
    problems = list(CHAIN_PROBLEMS)
    chains = ChainPlan(
        problems, rng.sample(range(len(problems)), len(problems)),
        rng.randrange(1 << 31),
    )
    # a pass takes about 6 s on the 2-CPU box
    passes = max(1, round(5 * seconds / REFERENCE_SECONDS))
    return SweepPlan(SWEEP_MAPPERS, SWEEP_KERNELS, passes, check_seed, chains)


def digest(plan: Any) -> str:
    """A stable digest of a plan's full input stream."""
    blob = json.dumps(plan.__dict__, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
