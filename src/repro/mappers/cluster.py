"""Clustered two-phase spatial placement for large fabrics.

The flat annealer (:mod:`repro.mappers.sa_spatial`) is the survey's
4x4-class workhorse; past ~100 ops on a 16x16 array its random walk
stops converging inside any reasonable budget.  This mapper is the
standard escape hatch the scalability literature converged on
(HiMap [26]; the thunder/pnr two-level flow): solve placement twice,
at two granularities —

1. **Partition** — carve the DFG into connectivity-dense clusters via
   recursive min-cut bisection with Fiduccia–Mattheyses refinement
   (:mod:`repro.mappers.partition`), each cluster small enough for one
   ``region x region`` fabric block.
2. **Global place** — tile the fabric into region blocks, walk them in
   snake order, and seed each cluster's ops around its block's
   centroid (nearest free supporting cell).  Consecutive clusters are
   connectivity-close by construction, so the seed already pays most
   of the wirelength bill.
3. **Refine** — a delta-cost anneal over the *whole* fabric (moves
   freely cross cluster boundaries), scoring a batch of candidate
   cells per move through :class:`repro.mappers.batchcost.DeltaCost`.

Routing failures do not discard the placement: the router reports
every unroutable edge (:func:`route_spatial_partial`), the evaluator's
weight for each is escalated, and a short reheated anneal pulls
exactly those endpoints together before the next attempt.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from typing import ClassVar

from repro.arch.cgra import CGRA
from repro.arch.tec import Step
from repro.core.mapper import Mapper, MapperInfo
from repro.core.mapping import Mapping
from repro.core.registry import register
from repro.ir.dfg import DFG, Edge
from repro.mappers.batchcost import DeltaCost
from repro.mappers.partition import partition
from repro.mappers.spatial_common import (
    candidate_cells,
    route_negotiated,
    route_spatial_partial,
)
from repro.obs.tracer import (
    BACKTRACKS,
    CANDIDATES_EXPLORED,
    ROUTING_ATTEMPTS,
    get_tracer,
)

__all__ = ["ClusteredSpatialMapper"]

#: candidate cells scored per refinement move
BATCH = 8
#: refinement schedule: geometric cooling from T_START down to T_END
T_START = 2.0
T_END = 0.05
COOLING = 0.9
RESTARTS = 3
#: weight-escalation rounds per restart before routing gives up
REPAIR_ROUNDS = 4

_log = logging.getLogger("repro.mappers.cluster")


def snake_cells(
    cgra: CGRA, skip_columns: frozenset[int] = frozenset()
) -> list[int]:
    """Cell ids along a height-2 serpentine curve, channels excluded.

    The grid is walked in two-row bands, zig-zagging vertically within
    each band while advancing horizontally (bands alternate direction):
    consecutive slots are mesh-adjacent within a band, and at most two
    hops apart at a band seam (a zig-zag over an even column count
    must exit a band on the row it entered), so a chain of ops laid
    contiguously along the curve embeds with near-zero stretch — the
    rare seam edge has a free-cell detour one hop off its straight
    path.  Columns in
    ``skip_columns`` are left out — the placer reserves them as free
    *routing channels*; an edge that jumps a channel is two hops apart
    with the free channel cell exactly on its straight path, which is
    as routable as a stretched edge can be.  Odd trailing rows fall
    back to a single-row walk.
    """
    cols = [x for x in range(cgra.width) if x not in skip_columns]
    out: list[int] = []
    band = 0
    for y0 in range(0, cgra.height, 2):
        xs = cols if band % 2 == 0 else list(reversed(cols))
        if y0 + 1 >= cgra.height:  # odd trailing row
            out.extend(cgra.cell_at(x, y0).cid for x in xs)
        else:
            for k, x in enumerate(xs):
                ys = (y0, y0 + 1) if k % 2 == 0 else (y0 + 1, y0)
                out.extend(cgra.cell_at(x, y).cid for y in ys)
        band += 1
    return out


def channel_columns(
    cgra: CGRA, n_ops: int, *, cap: int | None = None
) -> frozenset[int]:
    """Columns to reserve as routing channels for an ``n_ops`` seed.

    As many full columns as the free-cell budget affords (capped at
    every other column), spread evenly across the width.  Zero when
    the fabric has no slack to spare.  At generous slack this tends
    toward op columns alternating with free ones — each inter-layer
    hop then has a two-cell corridor right next to it, which is what
    braided (width >= 2) dataflow needs for its crossing edges.

    Narrow fabrics (width < 8) get no channels: losing a full column
    there costs more compactness than the corridor buys, and small
    instances route fine from adjacency alone.  ``cap`` tightens the
    column budget below the structural limit (restarts use it to
    concede channels back to placement).
    """
    if cgra.width < 8:
        return frozenset()
    spare = cgra.n_cells - n_ops
    # At most a quarter of the width: more channels squeeze the ops
    # into few columns, stacking them along the fabric's edge columns
    # where each has a single free neighbour — the corridors those
    # edges then *must* share become structurally over-subscribed.
    n = min(spare // max(1, cgra.height), cgra.width // 4)
    if cap is not None:
        n = min(n, max(0, cap))
    while n > 0 and n_ops > cgra.n_cells - n * cgra.height:
        n -= 1
    return frozenset(
        cgra.width * (i + 1) // (n + 1) for i in range(n)
    )


def dataflow_depth(dfg: DFG) -> dict[int, int]:
    """Topological depth of each node over same-iteration edges.

    Loop-carried edges (``dist > 0``) are ignored — a spatial binding
    has no time axis, but laying ops out in dataflow order still keeps
    producers and consumers curve-adjacent.
    """
    depth: dict[int, int] = {}
    for nid in dfg.topo_order():
        depth[nid] = max(
            (
                depth[e.src] + 1
                for e in dfg.in_edges(nid)
                if e.dist == 0 and e.src in depth
            ),
            default=0,
        )
    return depth


def near_cells(cgra: CGRA, radius: int = 2) -> list[list[int]]:
    """Per cell: the cells within ``radius`` outgoing hops, sorted by
    (hop distance, cell id).  Small BFS per cell — the refinement
    walk's local candidate pools."""
    out: list[list[int]] = []
    for c in range(cgra.n_cells):
        dist = {c: 0}
        frontier = [c]
        for d in range(1, radius + 1):
            nxt = []
            for u in frontier:
                for v in cgra.neighbors_out(u):
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        out.append(sorted(dist, key=lambda v: (dist[v], v)))
    return out


@register
@dataclass(eq=False, kw_only=True)
class ClusteredSpatialMapper(Mapper):
    """Partition -> centroid-seeded global place -> batched SA refine."""

    info = MapperInfo(
        name="cluster",
        family="metaheuristic",
        subfamily="two-phase",
        kinds=("spatial",),
        solves="binding",
        modeled_after="[26], [32]",
        year=2021,
    )

    #: ops per cluster: one ``region x region`` fabric block (a constant
    #: of the method, not an option)
    region: ClassVar[int] = 4

    # -- phase 2: global seed ------------------------------------------
    def seed_binding(
        self,
        dfg: DFG,
        cgra: CGRA,
        clusters: list[list[int]],
        *,
        channels: frozenset[int] | None = None,
    ) -> dict[int, int] | None:
        """Analytical seed: embed the dataflow order along the snake.

        Every op gets an ideal *position* on the serpentine curve — its
        rank in a (depth, cluster, id) sort, packed contiguously so
        consecutive ops are mesh-adjacent — and is seeded on the
        nearest free supporting cell to that position's coordinates.
        Producers precede consumers on the curve, parallel strands the
        partitioner separated stay separated within a depth level, and
        the fabric's slack is concentrated into free channel columns
        the router can rely on instead of being smeared between ops.
        """
        total = sum(len(c) for c in clusters)
        if total > cgra.n_cells:
            return None
        # Curve order is dataflow depth first — every edge points
        # "forward" along the curve — with the bisection-tree cluster
        # rank as tiebreak inside a depth level, so strands the
        # partitioner separated do not interleave by node id.
        depth = dataflow_depth(dfg)
        crank = {
            nid: k for k, c in enumerate(clusters) for nid in c
        }
        seq = sorted(
            crank,
            key=lambda n: (depth[n], crank[n], n),
        )
        if channels is None:
            channels = channel_columns(cgra, total)
        order = snake_cells(cgra, channels)
        free = set(range(cgra.n_cells))
        # Slack beyond the channels is spread as gaps along the curve.
        # A skipped curve slot sits on a shortest path between its two
        # neighbours, so every gap doubles as a ready-made route cell
        # for the edge that jumps it.
        # Capped: a gap at most every fourth slot.  Beyond that the
        # "gaps double as route cells" argument inverts — consecutive
        # ops stop being curve-adjacent at all and every edge starts
        # stretched.  Low-utilisation slack is better left pooled in
        # whole free regions than smeared between every op pair.
        stretch = min(len(order) / max(1, total), 1.25)
        binding: dict[int, int] = {}
        for rank, nid in enumerate(seq):
            spot = order[min(int(rank * stretch), len(order) - 1)]
            ax, ay = cgra.coords(spot)
            options = [
                c
                for c in candidate_cells(dfg, cgra, nid)
                if c in free
            ]
            if not options:
                return None
            cell = min(
                options,
                key=lambda c: (
                    abs(cgra.coords(c)[0] - ax)
                    + abs(cgra.coords(c)[1] - ay),
                    c,
                ),
            )
            binding[nid] = cell
            free.discard(cell)
        return binding

    # -- phase 3: batched refinement -----------------------------------
    def refine(
        self,
        ev: DeltaCost,
        cells: list[int],
        rng: random.Random,
        *,
        t_start: float | None = None,
        focus: list[int] | None = None,
        channels: frozenset[int] = frozenset(),
        journal: list | None = None,
    ) -> None:
        """Anneal ``cells`` in place with batch-scored moves.

        Every RNG draw and every control decision happens here; the
        evaluator only supplies integer costs.  ``journal`` records
        each proposal as ``(node, target, delta, accepted)`` so tests
        can pin the seeded walk.
        """
        tracer = get_tracer()
        n = len(ev.nodes)
        if n < 2:
            return
        dfg, cgra = ev.dfg, ev.cgra
        # Candidate pools exclude the reserved channel columns (the
        # router's budget); an op only supported inside a channel
        # keeps its full pool rather than becoming immovable.
        options = []
        for nid in ev.nodes:
            opts = candidate_cells(dfg, cgra, nid)
            if channels:
                kept = [
                    c
                    for c in opts
                    if cgra.coords(c)[0] not in channels
                ]
                if kept:
                    opts = kept
            options.append(opts)
        support = [set(o) for o in options]
        near = near_cells(cgra)
        owner = {cells[i]: i for i in range(n)}
        moves = max(40, 2 * n)
        temp = T_START if t_start is None else t_start
        while temp > T_END:
            for _ in range(moves):
                tracer.count(CANDIDATES_EXPLORED)
                # Repair rounds concentrate half the proposals on the
                # nodes whose edges the router rejected.
                if focus and rng.random() < 0.5:
                    i = focus[rng.randrange(len(focus))]
                else:
                    i = rng.randrange(n)
                # Mostly *local* proposals — cells within two hops of
                # a connected neighbour's cell — with a global-sample
                # escape hatch.  Uniform proposals over a big fabric
                # almost never improve, so locality is where the
                # large-array convergence comes from.
                nbrs = ev.neighbors[i]
                opts = options[i]
                if nbrs and rng.random() < 0.8:
                    a = nbrs[rng.randrange(len(nbrs))]
                    pool = [
                        c
                        for c in near[cells[a]]
                        if c in support[i]
                    ]
                    if pool:
                        opts = pool
                cands = (
                    opts
                    if len(opts) <= BATCH
                    else rng.sample(opts, BATCH)
                )
                deltas = ev.move_deltas(cells, i, cands)
                # First-min argmin: ties go to the earliest candidate.
                best_k = 0
                best_d = deltas[0]
                for k in range(1, len(cands)):
                    d = deltas[k]
                    if d < best_d:
                        best_k, best_d = k, d
                target = cands[best_k]
                old = cells[i]
                if target == old:
                    if journal is not None:
                        journal.append((i, target, 0, False))
                    continue
                j = owner.get(target)
                if j is None:
                    delta = best_d
                else:
                    if old not in support[j]:
                        if journal is not None:
                            journal.append((i, target, 0, False))
                        continue
                    eids = ev.union_eids(i, j)
                    before = ev.edges_cost(cells, eids)
                    cells[i], cells[j] = target, old
                    delta = ev.edges_cost(cells, eids) - before
                    cells[i], cells[j] = old, target  # undo probe
                accepted = (
                    delta <= 0
                    or rng.random() < math.exp(-delta / temp)
                )
                if journal is not None:
                    journal.append((i, target, delta, accepted))
                if not accepted:
                    tracer.count(BACKTRACKS)
                    continue
                cells[i] = target
                owner[target] = i
                if j is None:
                    del owner[old]
                else:
                    cells[j] = old
                    owner[old] = j
            temp *= COOLING

    def _directed_repair(
        self, ev: DeltaCost, cells: list[int], failed: list[Edge]
    ) -> int:
        """Relocate failed-edge endpoints to their best *free* cell.

        The quench's swaps fix one edge by displacing a well-placed
        neighbour — whack-a-mole at scale.  This pass is the opposite
        trade: deterministic, free cells only (zero collateral), each
        move applied only if the evaluator says the node's whole edge
        star improves.  With the failed edges' weights escalated, that
        test is dominated by exactly the edges the router rejected.
        """
        dfg, cgra = ev.dfg, ev.cgra
        owner = {cells[k]: k for k in range(len(ev.nodes))}
        moved = 0
        for e in failed:
            for nid in (e.dst, e.src):
                i = ev.index[nid]
                opts = [
                    c
                    for c in candidate_cells(dfg, cgra, nid)
                    if c not in owner
                ]
                if not opts:
                    continue
                deltas = ev.move_deltas(cells, i, opts)
                best_k = 0
                best_d = deltas[0]
                for k in range(1, len(opts)):
                    d = deltas[k]
                    if d < best_d:
                        best_k, best_d = k, d
                if best_d < 0:
                    old = cells[i]
                    cells[i] = opts[best_k]
                    del owner[old]
                    owner[opts[best_k]] = i
                    moved += 1
        return moved

    # -- driver --------------------------------------------------------
    def _route(
        self,
        dfg: DFG,
        cgra: CGRA,
        ev: DeltaCost,
        cells: list[int],
        rng,
        channels: frozenset[int] = frozenset(),
    ) -> tuple[dict[int, int], dict[Edge, list[Step]]] | None:
        """Route; on failure escalate the failed edges and re-anneal.

        Monotone: the best-routing placement seen so far is kept as a
        snapshot, and any repair quench that *increases* the failure
        count is rolled back before the next attempt — the escalated
        edge weights persist across rollbacks, so pressure on the
        stubborn edges still accumulates round over round.
        """
        tracer = get_tracer()

        def attempt() -> tuple[dict[int, int], dict, list[Edge]]:
            binding = {
                nid: cells[i] for i, nid in enumerate(ev.nodes)
            }
            tracer.count(ROUTING_ATTEMPTS)
            routes, failed = route_spatial_partial(dfg, cgra, binding)
            if failed:
                # Greedy first-come routing lost to an ordering
                # artifact more often than to the placement: negotiate
                # before blaming (and re-annealing) the placement.
                tracer.count(ROUTING_ATTEMPTS)
                negotiated = route_negotiated(dfg, cgra, binding)
                if negotiated is not None:
                    return binding, negotiated, []
            return binding, routes, failed

        binding, routes, failed = attempt()
        if not failed:
            return binding, routes
        best_cells, best_failed = list(cells), failed
        for round_ in range(REPAIR_ROUNDS):
            _log.info(
                "cluster: %d edge(s) unroutable, repair round %d",
                len(best_failed), round_ + 1,
            )
            hot: set[int] = set()
            for e in best_failed:
                # Exponential escalation: by the later rounds a failed
                # edge outweighs everything around it, so shortening
                # it wins any local trade the quench can propose.
                ev.bump_weight(ev.edge_id[e], 2 ** (round_ + 1))
                hot.add(ev.index[e.src])
                hot.add(ev.index[e.dst])
            # Directed pass first (free-cell moves, no collateral);
            # fall back to a cold focused quench only when nothing
            # relocatable is left — the escalated weights make the
            # failed edges the dominant cost terms either way.
            if not self._directed_repair(ev, cells, best_failed):
                self.refine(
                    ev, cells, rng,
                    t_start=max(3 * T_END, 0.15),
                    focus=sorted(hot),
                    channels=channels,
                )
            binding, routes, failed = attempt()
            if not failed:
                return binding, routes
            if len(failed) < len(best_failed):
                best_cells, best_failed = list(cells), failed
            else:
                cells[:] = best_cells
        return None

    def _map(self, dfg: DFG, cgra: CGRA, ii: int | None) -> Mapping:
        tracer = get_tracer()
        n_ops = dfg.op_count()
        if n_ops > cgra.n_cells:
            raise self.fail(
                f"{dfg.name} has {n_ops} ops for"
                f" {cgra.n_cells} cells — cannot map spatially"
            )
        rng = random.Random(self.seed)
        with tracer.span("partition"):
            clusters = partition(dfg, self.region * self.region)
        n_channels = len(channel_columns(cgra, n_ops))
        # seed_binding is deterministic, so a bare retry would replay
        # the exact corridor set that just failed.  Each restart
        # concedes one channel column back to placement: a
        # structurally over-subscribed corridor configuration is
        # loosened instead of re-attempted verbatim.
        return self.first_valid(
            (
                self._restart(dfg, cgra, clusters, rng, r, n_channels - r)
                for r in range(RESTARTS)
            ),
            f"routing failed after {RESTARTS} two-phase restarts",
        )

    def _restart(
        self, dfg: DFG, cgra: CGRA, clusters: list[list[int]],
        rng: random.Random, r: int, cap: int,
    ) -> Mapping | None:
        """Restart ``r``: seed, refine and route one placement, keeping
        at most ``cap`` routing-channel columns free."""
        tracer = get_tracer()
        channels = channel_columns(cgra, dfg.op_count(), cap=cap)
        with tracer.span("restart", n=r):
            with tracer.span("global_place"):
                binding = self.seed_binding(
                    dfg, cgra, clusters, channels=channels
                )
            if binding is None:
                raise self.fail(
                    f"{dfg.name} does not fit spatially on {cgra.name}",
                    attempts=r + 1,
                )
            ev = DeltaCost(dfg, cgra)
            cells = ev.new_cells(binding)
            _, seed_failed = route_spatial_partial(dfg, cgra, binding)
            seed_snap = list(cells)
            with tracer.span("refine"):
                self.refine(ev, cells, rng, channels=channels)
                tracer.progress("cluster.cost", ev.total(cells))
            # The annealer optimises wirelength, which is only a proxy
            # for routability; if the polish left *more* edges
            # unroutable than the analytical seed, the seed was the
            # better start for repair — fall back to it.
            _, ref_failed = route_spatial_partial(
                dfg,
                cgra,
                {nid: cells[i] for i, nid in enumerate(ev.nodes)},
            )
            if len(ref_failed) > len(seed_failed):
                cells[:] = seed_snap
            with tracer.span("route"):
                routed = self._route(dfg, cgra, ev, cells, rng, channels)
        if routed is None:
            return None
        binding, routes = routed
        return Mapping(
            dfg, cgra, kind="spatial", binding=binding, routes=routes
        )
