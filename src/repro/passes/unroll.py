"""Loop unrolling.

Replicates the loop body ``factor`` times inside one iteration of the
unrolled loop — the classic ILP-raising transform on Fig. 4's timeline
("Loop unrolling", early 2000s).

Index arithmetic: consumer copy ``i`` of an edge with distance ``d``
reads flat iteration ``i - d`` relative to its own; writing
``i - d = -k * factor + c`` with ``0 <= c < factor`` gives producer
copy ``c`` at unrolled distance ``k`` (``divmod(i - d, factor)`` in
Python, whose floor semantics produce exactly this decomposition).

INPUT/OUTPUT nodes are replicated with ``_<copy>`` name suffixes: each
copy consumes/produces its own element of the stream.
"""

from __future__ import annotations

from repro.ir.dfg import DFG, Op

__all__ = ["unroll"]


def unroll(dfg: DFG, factor: int) -> DFG:
    """Unroll the loop body ``factor`` times."""
    if factor < 1:
        raise ValueError("unroll factor must be >= 1")
    if factor == 1:
        return dfg.copy()
    out = DFG(f"{dfg.name}_x{factor}")
    clone: list[dict[int, int]] = []
    for i in range(factor):
        m: dict[int, int] = {}
        for nid in dfg.topo_order():
            node = dfg.node(nid)
            name = node.name
            if node.op in (Op.INPUT, Op.OUTPUT) and name is not None:
                name = f"{name}_{i}"
            new = out.add(
                node.op, name=name, value=node.value, array=node.array
            )
            out.set_label(new, pred=node.pred)
            m[nid] = new
        clone.append(m)
    for e in dfg.edges():
        for i in range(factor):
            k, c = divmod(i - e.dist, factor)
            out.connect(
                clone[c][e.src],
                clone[i][e.dst],
                port=e.port,
                dist=-k,
            )
    out.check()
    return out
