"""The CGRA array model.

A :class:`CGRA` is a set of :class:`~repro.arch.cell.Cell`\\ s plus a
directed link set.  It answers the questions every mapper asks:

* which cells can execute a given opcode (:meth:`CGRA.candidates`,
  memoized per opcode via :meth:`CGRA.supporting_cells`, and
  :meth:`CGRA.cell_supports` for one cell),
* which cells are adjacent (:meth:`CGRA.neighbors_out` /
  :meth:`CGRA.neighbors_in`),
* how far apart two cells are (:meth:`CGRA.distance`, precomputed
  all-pairs BFS; :meth:`CGRA.distance_table` exposes the whole table
  so routers can prune against it without per-call indirection),

plus the dense indices the resource fast paths are built on: every
link owns a stable integer id (:meth:`CGRA.link_index`), so occupancy
tables can be flat arrays instead of tuple-keyed dicts,

and carries the execution-model parameters the survey's §II-B calls
out as the "contract between the hardware and the software":

* ``route_shares_fu`` — whether forwarding a value through a cell
  consumes its issue slot that cycle (true for the classic ADRES-like
  model; false for architectures with dedicated bypass muxes);
* ``n_contexts`` — depth of the context memory, i.e. the maximum
  schedule length / II a temporal mapping may use;
* ``hw_loop`` — whether the array has hardware loop support (§III-B2),
  which removes the host-driven loop-control overhead cycles modelled
  by the simulator.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterable, Sequence

from repro.arch.cell import Cell, CellKind
from repro.ir.dfg import Op

__all__ = ["CGRA", "Link"]

Link = tuple[int, int]

#: Module-level all-pairs distance tables keyed by arch fingerprint.
#: Preset factories build a fresh CGRA per call, so per-instance
#: memoization alone recomputes the O(cells^2) BFS sweep every time a
#: fuzzer or benchmark harness instantiates the same preset; equal
#: arrays share one table here instead.  Bounded LRU — a sweep over
#: every preset stays far under the cap.  Tables are shared, so
#: callers must treat :meth:`CGRA.distance_table` rows as read-only
#: (they always had to: the per-instance cache was shared across call
#: sites too).
_DIST_TABLES: OrderedDict[str, list[list[int]]] = OrderedDict()
_DIST_TABLES_MAX = 32


def _shared_distance_table(cgra: CGRA) -> list[list[int]]:
    try:
        # Local import: repro.cache.fingerprint imports this module.
        from repro.cache.fingerprint import arch_fingerprint

        fp = arch_fingerprint(cgra)
    except Exception:  # pragma: no cover - fingerprint unavailable
        fp = None
    if fp is not None:
        hit = _DIST_TABLES.get(fp)
        if hit is not None:
            _DIST_TABLES.move_to_end(fp)
            return hit
    table = [cgra._bfs(c.cid) for c in cgra.cells]
    if fp is not None:
        _DIST_TABLES[fp] = table
        while len(_DIST_TABLES) > _DIST_TABLES_MAX:
            _DIST_TABLES.popitem(last=False)
    return table


class CGRA:
    """A coarse-grained reconfigurable array.

    Build either via :func:`repro.arch.presets` helpers or directly::

        cells = [make_cell(i, i % 4, i // 4, CellKind.ALU) for i in range(16)]
        cgra = CGRA("mesh4x4", 4, 4, cells, topology_links("mesh", 4, 4))
    """

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        cells: Sequence[Cell],
        links: Iterable[Link],
        *,
        route_shares_fu: bool = True,
        bypass_capacity: int = 4,
        n_contexts: int = 32,
        hw_loop: bool = False,
        memory_banks: int = 1,
    ) -> None:
        if len(cells) != width * height:
            raise ValueError(
                f"expected {width * height} cells, got {len(cells)}"
            )
        self.name = name
        self.width = width
        self.height = height
        self.cells: list[Cell] = list(cells)
        self.route_shares_fu = route_shares_fu
        self.bypass_capacity = bypass_capacity
        self.n_contexts = n_contexts
        self.hw_loop = hw_loop
        self.memory_banks = memory_banks

        ids = {c.cid for c in cells}
        if ids != set(range(len(cells))):
            raise ValueError("cell ids must be 0..n-1")

        self._out: dict[int, list[int]] = {c.cid: [] for c in cells}
        self._in: dict[int, list[int]] = {c.cid: [] for c in cells}
        self.links: set[Link] = set()
        for src, dst in links:
            if src not in ids or dst not in ids:
                raise ValueError(f"link ({src},{dst}) references unknown cell")
            if src == dst:
                raise ValueError(f"self-link on cell {src}")
            if (src, dst) in self.links:
                continue
            self.links.add((src, dst))
            self._out[src].append(dst)
            self._in[dst].append(src)
        for adj in self._out.values():
            adj.sort()
        for adj in self._in.values():
            adj.sort()

        # Dense link ids in sorted (src, dst) order: stable across
        # equal-topology instances, so flat occupancy arrays built on
        # one CGRA line up with any equal copy of it.
        self._link_index: dict[Link, int] = {
            link: i for i, link in enumerate(sorted(self.links))
        }

        self._dist: list[list[int]] | None = None
        self._support: dict[object, tuple[int, ...]] = {}
        self._support_set: dict[object, frozenset[int]] = {}
        self._reach: list[list[int]] | None = None

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell(self, cid: int) -> Cell:
        return self.cells[cid]

    def cell_at(self, x: int, y: int) -> Cell:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"({x},{y}) outside {self.width}x{self.height}")
        return self.cells[y * self.width + x]

    def coords(self, cid: int) -> tuple[int, int]:
        c = self.cells[cid]
        return (c.x, c.y)

    def neighbors_out(self, cid: int) -> list[int]:
        """Cells reachable from ``cid`` over one link."""
        return self._out[cid]

    def neighbors_in(self, cid: int) -> list[int]:
        """Cells with a link *into* ``cid``."""
        return self._in[cid]

    def has_link(self, src: int, dst: int) -> bool:
        return (src, dst) in self.links

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_index(self, src: int, dst: int) -> int:
        """Dense id of link ``src -> dst`` (KeyError when absent)."""
        return self._link_index[(src, dst)]

    @property
    def link_table(self) -> dict[Link, int]:
        """The full ``(src, dst) -> dense id`` map (do not mutate)."""
        return self._link_index

    def reach_lists(self) -> list[list[int]]:
        """Per cell: itself plus its out-neighbours (routers' one-step
        reach under the re-emission model).  Cached; do not mutate."""
        if self._reach is None:
            self._reach = [
                [c.cid, *self._out[c.cid]] for c in self.cells
            ]
        return self._reach

    def supporting_cells(self, op: Op) -> tuple[int, ...]:
        """Cells whose FU can execute ``op``, ascending, memoized.

        The per-opcode answer never changes for a given array, and the
        constructive mappers ask it once per candidate scan — callers
        that need to reorder must copy (``list(...)``).
        """
        cached = self._support.get(op)
        if cached is None:
            cached = tuple(
                c.cid for c in self.cells if c.supports(op)
            )
            # The set first: an interrupt between the two stores
            # (a request deadline's SIGALRM) must not leave a cached
            # tuple without its set on an array later requests share.
            self._support_set[op] = frozenset(cached)
            self._support[op] = cached
        return cached

    def cell_supports(self, cid: int, op: Op) -> bool:
        """``self.cell(cid).supports(op)`` as one lookup in a per-opcode
        set, memoized beside :meth:`supporting_cells`."""
        cells = self._support_set.get(op)
        if cells is None:
            self.supporting_cells(op)
            cells = self._support_set[op]
        return cid in cells

    def candidates(self, op: Op) -> list[int]:
        """Cells whose FU can execute ``op``."""
        return list(self.supporting_cells(op))

    def compute_cells(self) -> list[int]:
        return [c.cid for c in self.cells if c.is_compute]

    def memory_cells(self) -> list[int]:
        return [c.cid for c in self.cells if c.has_memory_port]

    # ------------------------------------------------------------------
    def distance(self, src: int, dst: int) -> int:
        """Hop distance over links (BFS, cached all-pairs)."""
        return self.distance_table()[src][dst]

    def distance_table(self) -> list[list[int]]:
        """The all-pairs hop-distance table (computed once, cached).

        ``table[src][dst]`` is the minimum number of links from
        ``src`` to ``dst`` (``10**9`` when unreachable).  Routers use
        the rows directly for admissible distance pruning; rows are
        shared between equal arrays (see ``_DIST_TABLES``) and must
        not be mutated.
        """
        if self._dist is None:
            self._dist = _shared_distance_table(self)
        return self._dist

    def flat_graph(self):
        """CSR adjacency / dense link ids / distance rows for the flat
        routing engine (:class:`repro.mappers.routecore.FlatGraph`).

        Built once per topology and shared between equal arrays by
        arch fingerprint — the same discipline as
        :meth:`distance_table`.  Treat every array as read-only.
        """
        # Local import: mappers import arch, not the other way round.
        from repro.mappers.routecore import flat_graph

        return flat_graph(self)

    def _bfs(self, start: int) -> list[int]:
        INF = 10**9
        dist = [INF] * self.n_cells
        dist[start] = 0
        q = deque([start])
        while q:
            u = q.popleft()
            for v in self._out[u]:
                if dist[v] == INF:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def is_connected(self) -> bool:
        """Every cell reaches every other cell (strongly connected).

        Two linear BFS sweeps (forward from cell 0 and backward to
        it), not the all-pairs distance table — connectivity checks on
        large fabrics must not trigger the O(V^2) sweep.
        """
        n = self.n_cells
        for adj in (self._out, self._in):
            seen = bytearray(n)
            seen[0] = 1
            frontier = [0]
            reached = 1
            while frontier:
                nxt = []
                for c in frontier:
                    for d in adj[c]:
                        if not seen[d]:
                            seen[d] = 1
                            reached += 1
                            nxt.append(d)
                frontier = nxt
            if reached != n:
                return False
        return True

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII picture of the array (kinds per cell), Fig. 2-style."""
        marks = {
            CellKind.ALU: "A",
            CellKind.MEM: "M",
            CellKind.ALU_MEM: "X",
            CellKind.ROUTE: ".",
        }
        rows = []
        for y in range(self.height):
            row = " ".join(
                marks[self.cell_at(x, y).kind] for x in range(self.width)
            )
            rows.append(row)
        header = (
            f"{self.name}: {self.width}x{self.height},"
            f" {len(self.links)} links,"
            f" contexts={self.n_contexts}"
        )
        return "\n".join([header, *rows])

    def __repr__(self) -> str:
        return (
            f"CGRA({self.name!r}, {self.width}x{self.height},"
            f" links={len(self.links)})"
        )
