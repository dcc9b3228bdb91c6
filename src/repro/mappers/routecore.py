"""Flat-array routing engine: CSR graph + bucket-queue search.

Routing is the load-bearing half of spatial mapping — "use an existing
link without interfering with already existing communications" (§II-B)
— and at 32x32+ fabric sizes dict-of-tuples + heapq route searches
dominate the mapping wall-clock.  This module is the one engine both
hot paths, :mod:`repro.mappers.routing` and :func:`repro.mappers
.spatial_common.route_negotiated`, run on; their plain dict/heapq
forms live in ``tests/oracles`` as the references the equivalence
suite compares against:

* :class:`FlatGraph` — one per *topology*: CSR adjacency (out/in
  neighbour lists as flat index arrays), the dense link id of every
  CSR entry (so link occupancy checks never hash a ``(src, dst)``
  tuple), per-cell RF sizes, and the all-pairs distance rows shared
  with :meth:`repro.arch.cgra.CGRA.distance_table`.  Cached by arch
  fingerprint in a bounded LRU exactly like the distance tables, and
  memoized per CGRA instance (:meth:`repro.arch.cgra.CGRA.flat_graph`).

* :class:`DialQueue` — a Dial (bucket) priority queue for the
  integer-cost regimes every congestion search here lives in (unit
  base cost + integral history + integral pressure).  Buckets are
  keyed by integer priority and hold min-heaps of tie-break payloads,
  so the pop order is *provably identical* to ``heapq`` over
  ``(priority, payload)`` tuples whenever pushes are monotone (never
  below the bucket currently being drained) — the property test in
  ``tests/mappers/test_routecore.py`` drills exactly this.  Routing
  costs here are ``>= 1`` per step, so monotonicity always holds.

* :class:`CellClaims` — the one cell -> value -> path-refcount
  structure for spatial routing occupancy.  Previously
  ``spatial_common.claim()`` (negotiation) and the greedy router that
  cluster's route-repair loop drives kept parallel private maps; both
  now share this class.  It maintains the *overused* cell set
  incrementally, which is what makes incremental rip-up cheap.

* :func:`negotiate_spatial` — the engine behind
  :func:`repro.mappers.spatial_common.route_negotiated`.  With
  ``incremental=False`` it replays the reference negotiator byte for
  byte (same Dijkstra pop order, same paths, same convergence trace —
  the equivalence suite holds it to that).  With ``incremental=True``
  (the default, and what ``route_negotiated`` runs), iterations
  after the first rip up and re-route *only* the nets whose current
  paths cross an overused cell, instead of every edge every round.
  The rip-up invariant: congestion can only be *caused* by a path
  through an overused cell, so re-routing exactly those nets preserves
  the algorithm's legality guarantee — convergence is still judged by
  the global overuse check — while skipping the (large) settled
  majority.  Clean nets keep their current path even when a cell they
  detoured around has since freed up, so intermediate routes (not the
  legality of the result) may differ from the full re-route; DESIGN.md
  §13 documents the trade.

* :class:`FlatTemporalEngine` — the searches behind
  :class:`repro.mappers.routing.Router`: the distance-pruned
  layered BFS of :meth:`~repro.mappers.routing.Router.find` over
  generation-stamped state arrays, and the A* of
  :meth:`~repro.mappers.routing.Router.find_negotiated` with states
  ``(cell, kind, layer)`` encoded as flat indices into preallocated
  ``dist``/``prev`` arrays (reset by generation stamp, never
  reallocated), driven by a :class:`DialQueue` (penalty and history
  are non-negative integers, so every cost is).  State indices are
  monotone in the reference ``(cell, kind, layer)`` tuple order
  (``"hold" < "route"``), so tie-breaking — and therefore every path
  — is byte-identical to the reference searches.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.arch.tec import HOLD, ROUTE, Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.cgra import CGRA
    from repro.ir.dfg import Edge

__all__ = [
    "CellClaims",
    "DialQueue",
    "FlatGraph",
    "FlatTemporalEngine",
    "NEGOTIATION_ITERS",
    "flat_graph",
    "negotiate_spatial",
]

#: PathFinder rip-up-and-reroute iterations before a spatial
#: negotiation gives up.
NEGOTIATION_ITERS = 16

#: FlatGraphs shared across equal arrays, keyed by arch fingerprint —
#: the same discipline (and bound) as the distance-table LRU in
#: :mod:`repro.arch.cgra`; preset factories build fresh CGRA instances
#: per call and must not pay the CSR build each time.
_FLAT_GRAPHS: "OrderedDict[str, FlatGraph]" = OrderedDict()
_FLAT_GRAPHS_MAX = 32


class FlatGraph:
    """CSR adjacency, dense link ids and distance rows for one topology.

    All index arrays are flat python lists of ints — the fastest
    scalar-indexed storage CPython has — laid out CSR style:
    ``out_nbr[out_ptr[c]:out_ptr[c+1]]`` are ``c``'s out-neighbours in
    the same sorted order :meth:`CGRA.neighbors_out` returns, with
    ``out_link`` carrying the dense link id of each entry.  ``reach``
    mirrors :meth:`CGRA.reach_lists` (the cell itself first, link id
    ``-1``).  ``dist`` aliases the CGRA's shared all-pairs table; rows
    must not be mutated.
    """

    __slots__ = (
        "n",
        "out_ptr",
        "out_nbr",
        "out_link",
        "out_rows",
        "in_ptr",
        "in_nbr",
        "in_link",
        "in_rows",
        "reach_ptr",
        "reach",
        "reach_link",
        "rf_size",
        "dist",
        "_dist_to",
        "_into",
    )

    def __init__(self, cgra: "CGRA") -> None:
        n = cgra.n_cells
        self.n = n
        link_idx = cgra.link_table
        out_ptr, out_nbr, out_link = [0], [], []
        in_ptr, in_nbr, in_link = [0], [], []
        for c in range(n):
            for d in cgra.neighbors_out(c):
                out_nbr.append(d)
                out_link.append(link_idx[(c, d)])
            out_ptr.append(len(out_nbr))
            for s in cgra.neighbors_in(c):
                in_nbr.append(s)
                in_link.append(link_idx[(s, c)])
            in_ptr.append(len(in_nbr))
        reach_ptr, reach, reach_link = [0], [], []
        for c, row in enumerate(cgra.reach_lists()):
            for d in row:
                reach.append(d)
                reach_link.append(-1 if d == c else link_idx[(c, d)])
            reach_ptr.append(len(reach))
        self.out_ptr, self.out_nbr, self.out_link = out_ptr, out_nbr, out_link
        self.in_ptr, self.in_nbr, self.in_link = in_ptr, in_nbr, in_link
        # Row views of the same adjacency: iterating a per-cell list is
        # CPython's fastest traversal (no index arithmetic per step);
        # the CSR arrays remain for link-id lookups and slicing.
        self.out_rows = [
            out_nbr[out_ptr[c] : out_ptr[c + 1]] for c in range(n)
        ]
        self.in_rows = [in_nbr[in_ptr[c] : in_ptr[c + 1]] for c in range(n)]
        self.reach_ptr, self.reach, self.reach_link = (
            reach_ptr,
            reach,
            reach_link,
        )
        self.rf_size = [cell.rf_size for cell in cgra.cells]
        self.dist = cgra.distance_table()
        self._dist_to: dict[int, list[int]] = {}
        self._into: dict[int, dict[int, int]] = {}

    def dist_to(self, dst: int) -> list[int]:
        """Column ``dst`` of the distance table (hops *into* ``dst``),
        gathered once per destination so pruning loops index a flat
        row instead of hopping table rows."""
        col = self._dist_to.get(dst)
        if col is None:
            table = self.dist
            col = [table[c][dst] for c in range(self.n)]
            self._dist_to[dst] = col
        return col

    def links_into(self, dst: int) -> dict[int, int]:
        """``{src: dense link id}`` for every link into ``dst``."""
        m = self._into.get(dst)
        if m is None:
            lo, hi = self.in_ptr[dst], self.in_ptr[dst + 1]
            m = {self.in_nbr[k]: self.in_link[k] for k in range(lo, hi)}
            self._into[dst] = m
        return m


def flat_graph(cgra: "CGRA") -> FlatGraph:
    """The (shared, cached) :class:`FlatGraph` for ``cgra``.

    Memoized on the instance and shared across equal arrays via the
    fingerprint LRU; treat every array as read-only.
    """
    fg = getattr(cgra, "_flat_graph", None)
    if fg is not None:
        return fg
    try:
        # Local import: repro.cache.fingerprint imports arch modules.
        from repro.cache.fingerprint import arch_fingerprint

        fp = arch_fingerprint(cgra)
    except Exception:  # pragma: no cover - fingerprint unavailable
        fp = None
    fg = _FLAT_GRAPHS.get(fp) if fp is not None else None
    if fg is None:
        fg = FlatGraph(cgra)
        if fp is not None:
            _FLAT_GRAPHS[fp] = fg
            while len(_FLAT_GRAPHS) > _FLAT_GRAPHS_MAX:
                _FLAT_GRAPHS.popitem(last=False)
    else:
        _FLAT_GRAPHS.move_to_end(fp)
    cgra._flat_graph = fg
    return fg


# ---------------------------------------------------------------------------
class DialQueue:
    """Bucket (Dial) priority queue, byte-compatible with heapq.

    Buckets are keyed by integer priority; each bucket is a min-heap
    of payloads, so :meth:`pop` yields exactly the order ``heapq``
    would over ``(priority, payload)`` tuples *provided pushes are
    monotone*: no push with a priority below the bucket currently
    being drained.  Every search in this module satisfies that (step
    costs are ``>= 1``; the A*'s ``f`` never decreases along an edge
    because ``h`` drops by exactly 1 per layer while ``g`` grows by at
    least 1).  Draining advances a cursor instead of re-heapifying a
    global heap — pops are O(log bucket) with buckets far smaller than
    the whole frontier.
    """

    __slots__ = ("_buckets", "_cur", "_hi", "_n")

    def __init__(self) -> None:
        self._buckets: dict[int, list] = {}
        self._cur = 0
        self._hi = -1
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def push(self, priority: int, payload) -> None:
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = []
        heapq.heappush(bucket, payload)
        if priority > self._hi:
            self._hi = priority
        if self._n == 0 or priority < self._cur:
            self._cur = priority
        self._n += 1

    def pop(self):
        """``(priority, payload)`` with the smallest priority, ties
        broken by payload order; raises IndexError when empty."""
        if not self._n:
            raise IndexError("pop from empty DialQueue")
        buckets = self._buckets
        cur, hi = self._cur, self._hi
        while cur <= hi:
            bucket = buckets.get(cur)
            if bucket:
                payload = heapq.heappop(bucket)
                if not bucket:
                    del buckets[cur]
                self._cur = cur
                self._n -= 1
                return cur, payload
            if bucket is not None:
                del buckets[cur]
            cur += 1
        raise IndexError("DialQueue bookkeeping out of sync")  # pragma: no cover


# ---------------------------------------------------------------------------
class CellClaims:
    """Cell -> value -> path-refcount claims for spatial routing.

    The single source of truth for "who is routing through this cell"
    during spatial negotiation *and* the greedy router cluster's
    route-repair loop drives.  Counts, not sets: ripping up one edge
    of a fan-out must not erase its sibling's claim on a shared cell.
    ``overused`` — cells currently carrying two or more distinct
    values — is maintained incrementally on the 1 <-> 2 boundary, so
    the incremental negotiator's dirty-net scan never walks all cells.
    """

    __slots__ = ("vals", "overused")

    def __init__(self, n_cells: int) -> None:
        self.vals: list[dict[int, int] | None] = [None] * n_cells
        self.overused: set[int] = set()

    def claim(self, cell: int, value: int) -> None:
        d = self.vals[cell]
        if d is None:
            d = self.vals[cell] = {}
        d[value] = d.get(value, 0) + 1
        if len(d) > 1:
            self.overused.add(cell)

    def release(self, cell: int, value: int) -> None:
        d = self.vals[cell]
        n = d[value] - 1
        if n:
            d[value] = n
        else:
            del d[value]
            if len(d) < 2:
                self.overused.discard(cell)

    def claim_path(self, path: list[int], value: int) -> None:
        for c in path:
            self.claim(c, value)

    def release_path(self, path: list[int], value: int) -> None:
        for c in path:
            self.release(c, value)

    def n_here(self, cell: int) -> int:
        """Distinct values currently claiming ``cell``."""
        d = self.vals[cell]
        return len(d) if d else 0

    def n_others(self, cell: int, value: int) -> int:
        """Distinct values other than ``value`` claiming ``cell``."""
        d = self.vals[cell]
        if not d:
            return 0
        return len(d) - (value in d)

    def exclusive(self, cell: int, value: int) -> bool:
        """Free, or claimed by ``value`` alone (the greedy router's
        one-value-per-route-cell discipline)."""
        d = self.vals[cell]
        return not d or (len(d) == 1 and value in d)


#: Interned ROUTE steps keyed by (cell, position).  Spatial route
#: chains reuse a tiny vocabulary of Step objects — every converged
#: negotiation emits (cell, i, ROUTE) triples drawn from n_cells x
#: max_chain_len — and Step is frozen, so sharing instances is safe
#: and saves the dataclass-construction cost that dominated the
#: output-conversion profile.
_STEP_CACHE: dict[tuple[int, int], Step] = {}


def _route_steps(path: list[int]) -> list[Step]:
    """Convert a cell chain into (interned) ROUTE steps."""
    cache = _STEP_CACHE
    out = []
    for i, c in enumerate(path):
        step = cache.get((c, i))
        if step is None:
            step = cache[(c, i)] = Step(c, i, ROUTE)
        out.append(step)
    return out


# ---------------------------------------------------------------------------
def negotiate_spatial(
    cgra: "CGRA",
    binding: dict[int, int],
    edges: "list[Edge]",
    *,
    incremental: bool = True,
) -> "dict[Edge, list[Step]] | None":
    """Flat PathFinder negotiation over a spatial binding.

    ``edges`` must be the already-filtered, already-sorted route list
    (non-pseudo, non-adjacent, longest first) that
    :func:`repro.mappers.spatial_common.negotiation_nets` builds, so
    this engine and the reference negotiator negotiate the identical
    net list.  Costs are integers throughout (unit base + integral
    history + integral pressure) and every step costs at least 1, so
    the Dijkstra runs on inlined Dial buckets: a bucket never receives
    entries once the drain cursor reaches it, so sorting each bucket
    at drain time by ``(cell, prev)`` reproduces the exact pop order
    of the reference's ``(cost, cell, prev)`` heap at a fraction of
    the per-push cost.  With ``incremental=False`` every iteration
    re-routes every edge (the reference schedule, byte-identical
    output); with ``incremental=True`` iterations after the first
    re-route only nets crossing an overused cell.
    """
    if not edges:
        return {}
    fg = flat_graph(cgra)
    n = fg.n
    blocked = bytearray(n)
    for c in binding.values():
        blocked[c] = 1
    claims = CellClaims(n)
    hist = [0] * n  # per-cell congestion history (integral)
    # Index-based net bookkeeping: the rip-up loop never hashes an
    # Edge — Edge keys appear only in the converged output dict.
    n_edges = len(edges)
    srcs = [binding[e.src] for e in edges]
    dsts = [binding[e.dst] for e in edges]
    values = [e.src for e in edges]
    paths: list[list[int] | None] = [None] * n_edges
    # Generation-stamped Dijkstra scratch, allocated once per call and
    # reused across every search (one negotiation runs up to
    # ``edges * NEGOTIATION_ITERS`` of them).
    gen = 0

    def dijkstra(
        src: int,
        dst: int,
        value: int,
        pressure: int,
        # Scratch and topology bound as defaults: LOAD_FAST in the
        # inner loop instead of a closure deref per access.
        rows=fg.out_rows,
        in_rows=fg.in_rows,
        blocked=blocked,
        vals=claims.vals,
        hist=hist,
        dist=[0] * n,
        prev=[0] * n,
        vis=[0] * n,
        goal=[0] * n,
    ):
        nonlocal gen
        gen += 1
        g = gen
        for c in in_rows[dst]:
            goal[c] = g
        # Dial buckets, inlined: every step costs >= 1, so a bucket
        # never receives entries while (or after) it drains — each is
        # sorted once at drain time, which reproduces the reference
        # heap's (cost, cell, prev) pop order exactly with only a
        # dict-get + list-append per push.
        buckets: dict[int, list[tuple[int, int]]] = {}
        hi = 0
        for c in rows[src]:
            if blocked[c]:
                continue
            d = vals[c]
            cost = 1 + hist[c]
            if d:
                cost += pressure * (len(d) - (value in d))
            dist[c] = cost
            prev[c] = -1
            vis[c] = g
            bucket = buckets.get(cost)
            if bucket is None:
                bucket = buckets[cost] = []
                if cost > hi:
                    hi = cost
            bucket.append((c, -1))
        b = 1  # step costs are >= 1; bucket 0 is always empty
        while b <= hi:
            bucket = buckets.pop(b, None)
            if bucket is None:
                b += 1
                continue
            bucket.sort()
            for cur, _via in bucket:
                if vis[cur] != g or b > dist[cur]:
                    continue
                if goal[cur] == g:
                    chain = [cur]
                    while prev[chain[-1]] != -1:
                        chain.append(prev[chain[-1]])
                    chain.reverse()
                    return chain
                for c2 in rows[cur]:
                    if blocked[c2]:
                        continue
                    d2 = vals[c2]
                    cost = 1 + hist[c2]
                    if d2:
                        cost += pressure * (len(d2) - (value in d2))
                    nd = b + cost
                    if vis[c2] != g or nd < dist[c2]:
                        dist[c2] = nd
                        prev[c2] = cur
                        vis[c2] = g
                        nb = buckets.get(nd)
                        if nb is None:
                            nb = buckets[nd] = []
                            if nd > hi:
                                hi = nd
                        nb.append((c2, cur))
            b += 1
        return None

    skipped = False
    for it in range(NEGOTIATION_ITERS):
        pressure = 1 + 2 * it
        if incremental and it:
            over = claims.overused
            work = [
                i
                for i in range(n_edges)
                if any(c in over for c in paths[i])
            ]
            skipped = skipped or len(work) < n_edges
        else:
            work = range(n_edges)
        for i in work:
            value = values[i]
            old = paths[i]
            if old is not None:
                claims.release_path(old, value)
            path = dijkstra(srcs[i], dsts[i], value, pressure)
            if path is None:
                return None  # walled off: no path at any price
            paths[i] = path
            claims.claim_path(path, value)
        if not claims.overused:
            return {e: _route_steps(p) for e, p in zip(edges, paths)}
        for c in claims.overused:
            hist[c] += claims.n_here(c) - 1
    if skipped:
        # The dirty-set schedule can stall where the full sweep
        # converges (clean nets keep stale detours a full rip-up would
        # reconsider).  One full-schedule retry keeps the incremental
        # schedule's success a superset of the full one's; it only
        # costs on the (rare) genuine stalls — if no iteration ever
        # skipped an edge, the run *was* the full schedule and the
        # retry would just repeat it.
        return negotiate_spatial(cgra, binding, edges, incremental=False)
    return None


# ---------------------------------------------------------------------------
_KIND = (HOLD, ROUTE)  # kind bit 0/1, matching "hold" < "route"


class FlatTemporalEngine:
    """Flat-array searches behind :class:`~repro.mappers.routing.Router`.

    One engine per Router; scratch arrays are sized to the largest
    span seen and reset by generation stamp.  Every method returns
    ``(result, explored)`` — the Router wrapper owns tracer counting,
    the span<=0 short-circuits and the whole-request distance cut.
    """

    __slots__ = ("fg", "allow_hold", "_vis", "_par", "_dist", "_cap", "_gen")

    def __init__(self, fg: FlatGraph, *, allow_hold: bool = True) -> None:
        self.fg = fg
        self.allow_hold = allow_hold
        self._vis: list[int] = []
        self._par: list[int] = []
        self._dist: list[int] = []
        self._cap = 0
        self._gen = 0

    def _ensure(self, layers: int) -> None:
        need = 2 * self.fg.n * layers
        if need > self._cap:
            grow = need - self._cap
            self._vis.extend([0] * grow)
            self._par.extend([0] * grow)
            self._dist.extend([0] * grow)
            self._cap = need

    # -- greedy layered BFS (Router.find) ------------------------------
    def find(self, occ, req):
        """Feasible step chain + explored count.

        The reference layer-BFS with distance pruning: the same chain
        as the unpruned reference (the equivalence suite asserts it),
        from no more explored states than the reference (the pinned
        count test in ``tests/mappers/test_routecore.py`` holds the
        totals)."""
        fg = self.fg
        span = req.t_consume - req.t_emit - 1
        dst = req.dst_cell
        value = req.value
        dist_to = fg.dist_to(dst)
        allow_hold = self.allow_hold
        reach_ptr, reach, reach_link = fg.reach_ptr, fg.reach, fg.reach_link
        rf_size = fg.rf_size
        intod = fg.links_into(dst)
        S = 2 * fg.n
        self._ensure(span)
        self._gen += 1
        g = self._gen
        vis, par = self._vis, self._par
        # The start is a pseudo-state (producer's emission), encoded
        # with parent -1; real states are cell*2 + kindbit per layer.
        frontier = [req.src_cell * 2 + 1]
        start_code = frontier[0]
        explored = 0
        for k in range(span):
            t = req.t_emit + 1 + k
            last = k == span - 1
            allowed = span - k
            base = occ.time_base(t)
            lbase = occ.link_time_base(t)
            if last:
                lbase_fin = occ.link_time_base(req.t_consume)
            off = k * S
            nxt: list[int] = []
            for st in frontier:
                cell = st >> 1
                # Holds first: parking in the RF is cheaper than
                # burning an FU/bypass slot, and BFS keeps the first
                # path found among equals (reference expansion order).
                if allow_hold and (
                    rf_size[cell] > 0
                    if base < 0
                    else occ.can_hold_i(value, cell, base + cell)
                ):
                    if dist_to[cell] <= allowed:
                        explored += 1
                        code = cell * 2
                        i = off + code
                        if vis[i] != g:
                            vis[i] = g
                            par[i] = st if k else -1
                            if last and cell == dst:
                                return (
                                    self._rebuild(req, k, code, start_code),
                                    explored,
                                )
                            nxt.append(code)
                for ri in range(reach_ptr[cell], reach_ptr[cell + 1]):
                    c2 = reach[ri]
                    lid = reach_link[ri]
                    if lid >= 0 and not (
                        lbase < 0 or occ.can_use_link_i(value, lbase + lid)
                    ):
                        continue
                    if not (base < 0 or occ.can_route_i(value, base + c2)):
                        continue
                    if dist_to[c2] > allowed:
                        continue
                    explored += 1
                    code = c2 * 2 + 1
                    i = off + code
                    if vis[i] != g:
                        vis[i] = g
                        par[i] = st if k else -1
                        if last and (
                            c2 == dst
                            or (
                                (flid := intod.get(c2)) is not None
                                and (
                                    lbase_fin < 0
                                    or occ.can_use_link_i(
                                        value, lbase_fin + flid
                                    )
                                )
                            )
                        ):
                            return (
                                self._rebuild(req, k, code, start_code),
                                explored,
                            )
                        nxt.append(code)
            if not nxt:
                return None, explored
            frontier = nxt
        return None, explored

    def _rebuild(self, req, k: int, code: int, start_code: int) -> list[Step]:
        S = 2 * self.fg.n
        par = self._par
        out: list[Step] = []
        while True:
            out.append(
                Step(code >> 1, req.t_emit + 1 + k, _KIND[code & 1])
            )
            if k == 0:
                break
            code = par[k * S + code]
            k -= 1
        out.reverse()
        return out

    # -- negotiated A* (Router.find_negotiated) ------------------------
    def find_negotiated(self, occ, req, *, history: dict, penalty: int):
        """(steps, cost) + explored: distance-cut A* whose states
        ``(cell, kind, layer)`` become flat indices monotone in the
        reference tuple order, so Dial ties resolve as the reference
        Dijkstra's do.  ``penalty`` and the ``history`` values are
        non-negative ints: Dial buckets are keyed by the integer
        ``f = g + h``, and its monotone-push invariant needs step
        costs >= 0."""
        fg = self.fg
        span = req.t_consume - req.t_emit - 1
        dst = req.dst_cell
        value = req.value
        dist_to = fg.dist_to(dst)
        reach_ptr, reach = fg.reach_ptr, fg.reach
        rf_size = fg.rf_size
        intod = fg.links_into(dst)
        layers = span + 1
        self._ensure(layers)
        self._gen += 1
        g = self._gen
        vis, par, dist = self._vis, self._par, self._dist
        start = (req.src_cell * 2 + 1) * layers
        dist[start] = 0
        par[start] = -1
        vis[start] = g
        queue = DialQueue()
        queue.push(span, (0, start))  # f = g + h, h = span - layer
        explored = 0
        best = -1
        lbase_fin = occ.link_time_base(req.t_consume)
        while queue:
            _f, (d, idx) = queue.pop()
            if vis[idx] != g or d > dist[idx]:
                continue
            explored += 1
            layer = idx % layers
            ck = idx // layers
            cell = ck >> 1
            if layer == span:
                # Terminal discipline == _final_ok: a HOLD is readable
                # only by its own cell; a ROUTE by itself or over a
                # *free* terminal link — congestion there cannot be
                # negotiated away, there is no step left to penalise.
                if ck & 1:
                    ok = cell == dst or (
                        (flid := intod.get(cell)) is not None
                        and (
                            lbase_fin < 0
                            or occ.can_use_link_i(value, lbase_fin + flid)
                        )
                    )
                else:
                    ok = cell == dst
                if ok:
                    best = idx
                    break
                continue
            t = req.t_emit + 1 + layer
            base = occ.time_base(t)
            slot = occ.slot(t)
            nlayer = layer + 1
            h = span - nlayer
            cut = span - layer
            for ri in range(reach_ptr[cell], reach_ptr[cell + 1]):
                c2 = reach[ri]
                if dist_to[c2] > cut:
                    continue
                cost = 1 + history.get((c2, slot, ROUTE), 0) if history else 1
                if not (base < 0 or occ.can_route_i(value, base + c2)):
                    cost += penalty
                nd = d + cost
                nidx = (c2 * 2 + 1) * layers + nlayer
                if vis[nidx] != g or nd < dist[nidx]:
                    dist[nidx] = nd
                    par[nidx] = idx
                    vis[nidx] = g
                    queue.push(nd + h, (nd, nidx))
            if dist_to[cell] <= cut:
                cost = 1 + history.get((cell, slot, HOLD), 0) if history else 1
                if not (
                    rf_size[cell] > 0
                    if base < 0
                    else occ.can_hold_i(value, cell, base + cell)
                ):
                    cost += penalty
                nd = d + cost
                nidx = (cell * 2) * layers + nlayer
                if vis[nidx] != g or nd < dist[nidx]:
                    dist[nidx] = nd
                    par[nidx] = idx
                    vis[nidx] = g
                    queue.push(nd + h, (nd, nidx))
        if best < 0:
            return None, explored
        out: list[Step] = []
        idx = best
        while idx % layers:
            ck = idx // layers
            out.append(
                Step(ck >> 1, req.t_emit + idx % layers, _KIND[ck & 1])
            )
            idx = par[idx]
        out.reverse()
        return (out, dist[best]), explored
