"""Metamorphic invariants: symmetries a conforming toolchain preserves.

Three families, each a transformation of the *problem* whose effect on
the *answer* is known in advance:

* **relabel** — renumbering DFG nodes by a random permutation is pure
  bookkeeping: the interpreter must produce identical output series,
  and mapping the renumbered graph must still pass the oracle chain
  (nothing in a mapper may depend on node-id arithmetic);
* **pass pipeline** — the standard middle-end pipeline (fold /
  simplify / CSE / DCE) is semantics-preserving by contract, so the
  optimized graph must interpret to the same series as the original;
* **replay purity** — a mapping obtained through the cache (warm hit)
  or in a forked worker serializes to exactly the bytes of the
  in-process cold solve; caching and parallelism are pure plumbing.
"""

from __future__ import annotations

import random
from typing import Any, Mapping as TMapping

from repro.ir.dfg import DFG, Node, Op
from repro.ir.interp import evaluate

__all__ = [
    "cached_replay_difference",
    "fork_replay_difference",
    "pipeline_difference",
    "relabel",
    "relabel_difference",
]


# ---------------------------------------------------------------------------
# Isomorphic relabeling
# ---------------------------------------------------------------------------
def relabel(dfg: DFG, seed: int = 0) -> tuple[DFG, dict[int, int]]:
    """An isomorphic copy with node ids shuffled by ``seed``.

    Returns the new graph and the old-id -> new-id permutation.  INPUT
    and OUTPUT names are preserved, so interpreter output dicts stay
    comparable across the relabeling.
    """
    rng = random.Random(seed)
    ids = dfg.node_ids()
    shuffled = list(ids)
    rng.shuffle(shuffled)
    perm = dict(zip(ids, shuffled))

    inverse = {new: old for old, new in perm.items()}
    out = DFG(f"{dfg.name}_perm{seed}")
    out._next_id = max(shuffled, default=-1) + 1
    # Insert in ascending new-id order so the twin's iteration order is
    # exactly what a freshly built graph would have.
    for nid in sorted(inverse):
        node = dfg.node(inverse[nid])
        out._nodes[nid] = Node(
            nid, node.op, name=node.name, value=node.value,
            array=node.array, pred=node.pred,
        )
        out._out[nid] = []
        out._in[nid] = []
    for e in dfg.edges():
        out.connect(perm[e.src], perm[e.dst], port=e.port, dist=e.dist)
    out.check()
    return out, perm


def relabel_difference(
    dfg: DFG,
    n_iters: int,
    inputs: TMapping[str, Any],
    *,
    seed: int = 0,
) -> str | None:
    """Interpret the graph and its relabeled twin; describe any delta."""
    twin, _ = relabel(dfg, seed)
    want = evaluate(dfg, n_iters, inputs)
    got = evaluate(twin, n_iters, inputs)
    if got != want:
        return (
            f"relabeled graph interprets differently:"
            f" {got} != {want} (perm seed {seed})"
        )
    return None


# ---------------------------------------------------------------------------
# Pass-pipeline equivalence
# ---------------------------------------------------------------------------
def pipeline_difference(
    dfg: DFG, n_iters: int, inputs: TMapping[str, Any]
) -> str | None:
    """Optimize with the standard pipeline; describe any semantic delta."""
    from repro.passes import standard_pipeline

    try:
        opt = standard_pipeline(dfg)
    except Exception as ex:  # a crash in a pass is itself a finding
        return f"standard_pipeline crashed: {type(ex).__name__}: {ex}"
    want = evaluate(dfg, n_iters, inputs)
    try:
        got = evaluate(opt, n_iters, inputs)
    except Exception as ex:
        return (
            f"optimized graph no longer interprets:"
            f" {type(ex).__name__}: {ex}"
        )
    if got != want:
        return f"pass pipeline changed semantics: {got} != {want}"
    return None


# ---------------------------------------------------------------------------
# Replay purity (cache, fork workers)
# ---------------------------------------------------------------------------
def _mapping_bytes(mapping) -> str:
    from repro.core.serialize import mapping_to_json

    return mapping_to_json(mapping)


def cached_replay_difference(
    dfg: DFG, cgra, mapper: str, *, seed: int = 0, ii: int | None = None
) -> str | None:
    """Cold solve vs cache-mediated store+hit: must be byte-identical."""
    from repro.api import map_dfg
    from repro.cache import cache_disabled, mapping_cache

    with cache_disabled():
        cold = _mapping_bytes(map_dfg(dfg, cgra, mapper=mapper, seed=seed, ii=ii))
    with mapping_cache() as cache:
        first = _mapping_bytes(map_dfg(dfg, cgra, mapper=mapper, seed=seed, ii=ii))
        warm = _mapping_bytes(map_dfg(dfg, cgra, mapper=mapper, seed=seed, ii=ii))
        hits, stores = cache.stats.hits, cache.stats.stores
    if first != cold:
        return "solve under an (empty) cache differs from the cold solve"
    if warm != cold:
        return "cached replay is not byte-identical to the cold solve"
    if stores >= 1 and hits < 1:
        # A hit is only owed when the first solve actually stored.  The
        # cache declines (by contract) to store mappings over a
        # ROUTE-split rewrite of the caller's graph, and then both
        # solves legitimately run cold — byte-identity above is the
        # invariant that still holds.
        return "stored mapping was not returned on an identical re-solve"
    return None


def _fork_map(payload):
    """Module-level worker body so pmap can pickle it."""
    dfg, cgra, mapper, seed, ii = payload
    from repro.api import map_dfg
    from repro.core.serialize import mapping_to_json

    return mapping_to_json(map_dfg(dfg, cgra, mapper=mapper, seed=seed, ii=ii))


def fork_replay_difference(
    dfg: DFG, cgra, mapper: str, *, seed: int = 0, ii: int | None = None,
    timeout: float | None = None,
) -> str | None:
    """In-process solve vs two fork workers: must be byte-identical.

    A replay that timed out gives no verdict, as in the other replay
    modes: the budget says nothing about the bytes."""
    from repro.parallel import pmap

    reference = _fork_map((dfg, cgra, mapper, seed, ii))
    results = pmap(
        _fork_map,
        [(dfg, cgra, mapper, seed, ii)] * 2,
        jobs=2,
        timeout=timeout,
    )
    for r in results:
        if r.timed_out:
            continue
        if not r.ok:
            return f"fork worker failed: {r.error!r}"
        if r.value != reference:
            return (
                "fork worker produced different mapping bytes than the"
                " in-process solve"
            )
    return None
