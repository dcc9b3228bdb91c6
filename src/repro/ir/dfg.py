"""Data flow graphs.

A :class:`DFG` is the unit of work every mapper in this package
consumes: nodes are operations (:class:`Op`), edges are data
dependencies.  An edge carries

* ``port`` — which operand slot of the consumer it feeds, and
* ``dist`` — the *dependence distance* in loop iterations.  ``dist=0``
  is an ordinary intra-iteration dependence; ``dist=k>0`` means the
  consumer at iteration ``i`` reads the value the producer computed at
  iteration ``i-k`` (a loop-carried dependence).  Recurrence cycles
  through such edges are what bound the initiation interval from below
  (RecMII).

The graph restricted to ``dist=0`` edges must be a DAG; this is the
single structural invariant :meth:`DFG.check` enforces, together with
operand arity and port consistency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Op", "Node", "Edge", "DFG", "DFGError"]


class DFGError(ValueError):
    """Raised when a DFG violates a structural invariant."""


class Op(enum.Enum):
    """Operation opcodes understood by the architecture model.

    The set mirrors what a word-level CGRA cell typically implements:
    integer ALU operations, comparisons, a select (the primitive that
    predication lowers to), memory accesses, and pseudo-operations used
    by the compilation flow (constants, live-ins/outs, ``PHI`` for
    loop-carried merges and ``ROUTE`` for values forwarded through a
    cell without computation).
    """

    # Pure data movement / pseudo ops
    CONST = "const"
    INPUT = "input"
    OUTPUT = "output"
    PHI = "phi"
    ROUTE = "route"
    # Integer arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    # Bitwise / shifts
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    # Comparisons (produce 0/1)
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    # Predication / selection
    SELECT = "select"
    # Memory
    LOAD = "load"
    STORE = "store"

    @property
    def arity(self) -> int:
        """Number of operand slots this opcode requires."""
        return _ARITY[self]

    @property
    def latency(self) -> int:
        """Latency in cycles on the reference cell model."""
        return _LATENCY[self]

    @property
    def is_memory(self) -> bool:
        """True for operations that touch the data memory."""
        return self in (Op.LOAD, Op.STORE)

    @property
    def is_pseudo(self) -> bool:
        """True for nodes that do not occupy a functional unit slot.

        ``INPUT``/``OUTPUT`` mark live-in/live-out interface points and
        ``CONST`` values come from the configuration word itself; none
        of them consume an issue slot on the fabric.
        """
        return self in (Op.CONST, Op.INPUT, Op.OUTPUT)

    @property
    def commutative(self) -> bool:
        return self in (
            Op.ADD,
            Op.MUL,
            Op.AND,
            Op.OR,
            Op.XOR,
            Op.MIN,
            Op.MAX,
            Op.EQ,
            Op.NE,
        )


_ARITY = {
    Op.CONST: 0,
    Op.INPUT: 0,
    Op.OUTPUT: 1,
    Op.PHI: 2,
    Op.ROUTE: 1,
    Op.ADD: 2,
    Op.SUB: 2,
    Op.MUL: 2,
    Op.DIV: 2,
    Op.MOD: 2,
    Op.NEG: 1,
    Op.ABS: 1,
    Op.MIN: 2,
    Op.MAX: 2,
    Op.AND: 2,
    Op.OR: 2,
    Op.XOR: 2,
    Op.NOT: 1,
    Op.SHL: 2,
    Op.SHR: 2,
    Op.EQ: 2,
    Op.NE: 2,
    Op.LT: 2,
    Op.LE: 2,
    Op.GT: 2,
    Op.GE: 2,
    Op.SELECT: 3,
    Op.LOAD: 1,
    Op.STORE: 2,
}

# Single-cycle cells are the common template (Fig. 2 of the survey shows
# one); we keep every op at latency 1 except the ones virtually every
# published model gives more weight to.
_LATENCY = {op: 1 for op in Op}
_LATENCY[Op.MUL] = 1
_LATENCY[Op.DIV] = 1
_LATENCY[Op.LOAD] = 1
_LATENCY[Op.STORE] = 1
_LATENCY[Op.CONST] = 0
_LATENCY[Op.INPUT] = 0
_LATENCY[Op.OUTPUT] = 0


@dataclass
class Node:
    """A DFG node: one operation instance.

    Attributes:
        nid: integer id, unique within the DFG.
        op: opcode.
        name: optional human-readable label (live-in names, array
            names for memory ops, …).
        value: constant value for ``CONST`` nodes.
        array: for ``LOAD``/``STORE``, the name of the array accessed
            (used by the memory-aware mapping layer for bank analysis).
        pred: predicate polarity for predicated execution (full
            predication, §III-B1).  When set, the node carries one
            extra operand edge at port ``op.arity`` delivering the
            predicate value; the node commits only when that value's
            truthiness equals ``pred``.  ``None`` = always execute.
    """

    nid: int
    op: Op
    name: str | None = None
    value: int | None = None
    array: str | None = None
    pred: bool | None = None

    def label(self) -> str:
        if self.op is Op.CONST:
            return f"#{self.value}"
        if self.name:
            return f"{self.op.value}:{self.name}"
        return f"{self.op.value}@{self.nid}"


#: The node fields :meth:`DFG.set_label` may overwrite (all but ``nid``).
_LABELS = frozenset({"op", "name", "value", "array", "pred"})


@dataclass(frozen=True)
class Edge:
    """A data dependence ``src -> dst`` feeding operand slot ``port``.

    ``dist`` is the dependence distance in iterations (0 for
    intra-iteration edges).
    """

    src: int
    dst: int
    port: int = 0
    dist: int = 0


class DFG:
    """A data flow graph.

    Nodes are created with :meth:`add` (or the convenience operator
    helpers) and connected with :meth:`connect`.  The class is a plain
    adjacency-list structure rather than a :mod:`networkx` graph so the
    hot paths used by mappers (predecessor/successor iteration) stay
    allocation-free; :meth:`to_networkx` exports a view for algorithms
    that want the library.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        self._next_id = 0
        # Bumped by every add/connect/remove/set_label, so tables
        # derived from the graph (repro.mappers.construct.edge_tables,
        # the WL colors of repro.cache.fingerprint) can tell when they
        # are stale.
        self.revision = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(
        self,
        op: Op,
        *operands: int,
        name: str | None = None,
        value: int | None = None,
        array: str | None = None,
    ) -> int:
        """Add a node and connect ``operands`` to its ports in order.

        Returns the new node id.
        """
        nid = self._next_id
        self._next_id += 1
        self.revision += 1
        self._nodes[nid] = Node(nid, op, name=name, value=value, array=array)
        self._out[nid] = []
        self._in[nid] = []
        for port, src in enumerate(operands):
            self.connect(src, nid, port=port)
        return nid

    def const(self, value: int, name: str | None = None) -> int:
        return self.add(Op.CONST, name=name, value=value)

    def input(self, name: str) -> int:
        return self.add(Op.INPUT, name=name)

    def output(self, src: int, name: str) -> int:
        return self.add(Op.OUTPUT, src, name=name)

    def connect(self, src: int, dst: int, port: int = 0, dist: int = 0) -> Edge:
        """Add the dependence edge ``src -> dst`` at operand ``port``."""
        if src not in self._nodes:
            raise DFGError(f"unknown source node {src}")
        if dst not in self._nodes:
            raise DFGError(f"unknown destination node {dst}")
        if dist < 0:
            raise DFGError(f"negative dependence distance {dist}")
        edge = Edge(src, dst, port=port, dist=dist)
        self.revision += 1
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def remove_node(self, nid: int) -> None:
        """Remove a node and every edge incident to it."""
        if nid not in self._nodes:
            raise DFGError(f"unknown node {nid}")
        self.revision += 1
        for e in list(self._in[nid]):
            self._out[e.src].remove(e)
        for e in list(self._out[nid]):
            self._in[e.dst].remove(e)
        del self._nodes[nid], self._in[nid], self._out[nid]

    def remove_edge(self, edge: Edge) -> None:
        self.revision += 1
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)

    def set_label(self, nid: int, /, **labels) -> None:
        """Overwrite node labels (``op``, ``name``, ``value``,
        ``array``, ``pred``) in place.

        The one way to relabel a node of a live graph: it bumps
        :attr:`revision` like any structural edit.
        """
        node = self._nodes[nid]
        for field, value in labels.items():
            if field not in _LABELS:
                raise DFGError(f"unknown node label {field!r}")
            setattr(node, field, value)
        self.revision += 1

    def rewire(self, old_src: int, new_src: int) -> None:
        """Redirect every out-edge of ``old_src`` to come from ``new_src``."""
        for e in list(self._out[old_src]):
            self.remove_edge(e)
            self.connect(new_src, e.dst, port=e.port, dist=e.dist)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_ids(self) -> list[int]:
        return list(self._nodes)

    def edges(self) -> Iterator[Edge]:
        for es in self._out.values():
            yield from es

    def num_edges(self) -> int:
        return sum(len(es) for es in self._out.values())

    def in_edges(self, nid: int) -> Sequence[Edge]:
        return self._in[nid]

    def out_edges(self, nid: int) -> Sequence[Edge]:
        return self._out[nid]

    def preds(self, nid: int, *, include_carried: bool = True) -> list[int]:
        return [
            e.src for e in self._in[nid] if include_carried or e.dist == 0
        ]

    def succs(self, nid: int, *, include_carried: bool = True) -> list[int]:
        return [
            e.dst for e in self._out[nid] if include_carried or e.dist == 0
        ]

    def operand(self, nid: int, port: int) -> Edge | None:
        """The edge feeding ``port`` of ``nid``, or None."""
        for e in self._in[nid]:
            if e.port == port:
                return e
        return None

    def op_count(self, *, include_pseudo: bool = False) -> int:
        """Number of operations that occupy a functional-unit slot."""
        return sum(
            1
            for n in self._nodes.values()
            if include_pseudo or not n.op.is_pseudo
        )

    def memory_ops(self) -> list[int]:
        return [n.nid for n in self._nodes.values() if n.op.is_memory]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topo_order(self) -> list[int]:
        """Topological order over intra-iteration (dist=0) edges.

        Raises :class:`DFGError` if those edges form a cycle.
        """
        indeg = {nid: 0 for nid in self._nodes}
        for e in self.edges():
            if e.dist == 0:
                indeg[e.dst] += 1
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[int] = []
        # Pop smallest id first: deterministic order for reproducibility.
        import heapq

        heapq.heapify(ready)
        while ready:
            nid = heapq.heappop(ready)
            order.append(nid)
            for e in self._out[nid]:
                if e.dist == 0:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        heapq.heappush(ready, e.dst)
        if len(order) != len(self._nodes):
            raise DFGError("dist=0 edges form a cycle")
        return order

    def check(self) -> None:
        """Validate structural invariants; raise :class:`DFGError` if broken.

        * every operand port of every node is fed exactly once,
        * ports are within the opcode's arity,
        * dist=0 edges form a DAG,
        * CONST nodes carry a value.
        """
        for nid, node in self._nodes.items():
            ports = sorted(e.port for e in self._in[nid])
            arity = node.op.arity + (1 if node.pred is not None else 0)
            expect = list(range(arity))
            if ports != expect:
                raise DFGError(
                    f"node {nid} ({node.op.value}) has operand ports {ports},"
                    f" expected {expect}"
                )
            if node.op is Op.CONST and node.value is None:
                raise DFGError(f"CONST node {nid} has no value")
        self.topo_order()  # raises on cycle

    def critical_path(self) -> int:
        """Length (in cycles, by op latency) of the longest dist=0 path."""
        dist: dict[int, int] = {}
        for nid in self.topo_order():
            lat = self._nodes[nid].op.latency
            best = 0
            for e in self._in[nid]:
                if e.dist == 0:
                    best = max(best, dist[e.src])
            dist[nid] = best + lat
        return max(dist.values(), default=0)

    def recurrence_cycles(self) -> list[list[int]]:
        """Simple cycles through loop-carried edges.

        Returns node-id cycles of the full graph (all edges).  Uses
        networkx's simple_cycles on the exported multigraph, so it is
        exponential in the worst case; RecMII
        (:attr:`repro.core.problem.MappingProblem.rec_mii`) does not
        enumerate cycles.
        """
        import networkx as nx

        g = self.to_networkx()
        return [list(c) for c in nx.simple_cycles(nx.DiGraph(g))]

    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph`.

        Node attributes: ``op`` (the :class:`Op`), ``name``, ``value``.
        Edge attributes: ``port``, ``dist``.
        """
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for nid, node in self._nodes.items():
            g.add_node(
                nid, op=node.op, name=node.name, value=node.value,
                array=node.array,
            )
        for e in self.edges():
            g.add_edge(e.src, e.dst, port=e.port, dist=e.dist)
        return g

    def copy(self, name: str | None = None) -> "DFG":
        """Deep-copy the graph (node ids are preserved)."""
        out = DFG(name or self.name)
        out._next_id = self._next_id
        for nid, node in self._nodes.items():
            out._nodes[nid] = Node(
                nid, node.op, name=node.name, value=node.value,
                array=node.array, pred=node.pred,
            )
            out._out[nid] = []
            out._in[nid] = []
        for e in self.edges():
            out.connect(e.src, e.dst, port=e.port, dist=e.dist)
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def pretty(self) -> str:
        """A compact multi-line description (one node per line)."""
        lines = [f"DFG {self.name}: {len(self)} nodes, {self.num_edges()} edges"]
        for nid in self.topo_order():
            node = self._nodes[nid]
            ins = ", ".join(
                f"n{e.src}" + (f"[d{e.dist}]" if e.dist else "")
                for e in sorted(self._in[nid], key=lambda e: e.port)
            )
            lines.append(f"  n{nid}: {node.label()}({ins})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"DFG(name={self.name!r}, nodes={len(self)},"
            f" edges={self.num_edges()})"
        )
