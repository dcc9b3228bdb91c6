"""If-conversion: partial and full predication.

Both transforms take a *diamond* CDFG (branch, two arms, join) and
produce one straight-line DFG a temporal mapper can consume.  They
differ exactly where the literature says they do:

* **partial predication** (Chang & Choi [57]): every arm operation
  executes unconditionally; names defined differently across arms are
  merged by ``SELECT`` at the join.  A STORE cannot execute
  unconditionally, so it is rewritten ``load old -> select -> store``
  — the extra memory traffic is partial predication's documented cost;
* **full predication** (Anido et al. [56]): arm operations carry a
  predicate operand and commit conditionally — STOREs stay single
  operations, but the predicate value must be *routed to every
  predicated op*, which the mapper pays for in fabric resources.

Name flow between blocks follows the CDFG convention: blocks export
values as ``OUTPUT`` nodes and import them as same-named ``INPUT``
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.cdfg import CDFG
from repro.ir.dfg import DFG, Op

__all__ = ["partial_predication", "full_predication", "diamond_parts"]


@dataclass
class _CopyResult:
    mapping: dict[int, int]       #: old node id -> new node id
    defs: dict[str, int]          #: exported name -> producing new id
    new_ops: list[int]            #: copied non-pseudo op ids


def _copy_block(
    out: DFG,
    body: DFG,
    bound_names: dict[str, int],
    ext_inputs: dict[str, int],
    *,
    keep_outputs: bool = False,
) -> _CopyResult:
    """Copy ``body`` into ``out``, wiring INPUTs to earlier definitions.

    INPUT nodes named in ``bound_names`` become edges from those
    values; other INPUTs become (deduplicated) external live-ins.
    OUTPUT nodes are recorded as definitions and dropped unless
    ``keep_outputs``.
    """
    mapping: dict[int, int] = {}
    defs: dict[str, int] = {}
    new_ops: list[int] = []
    for nid in body.topo_order():
        node = body.node(nid)
        if node.op is Op.INPUT:
            name = node.name or f"in{nid}"
            if name in bound_names:
                mapping[nid] = bound_names[name]
            elif name in ext_inputs:
                mapping[nid] = ext_inputs[name]
            else:
                new = out.input(name)
                ext_inputs[name] = new
                mapping[nid] = new
            continue
        if node.op is Op.OUTPUT:
            src = body.operand(nid, 0).src
            defs[node.name or f"out{nid}"] = mapping[src]
            if keep_outputs:
                mapping[nid] = out.output(mapping[src], node.name)
            continue
        new = out.add(
            node.op,
            name=node.name,
            value=node.value,
            array=node.array,
        )
        mapping[nid] = new
        for e in sorted(body.in_edges(nid), key=lambda e: e.port):
            out.connect(mapping[e.src], new, port=e.port, dist=e.dist)
        if not node.op.is_pseudo:
            new_ops.append(new)
    return _CopyResult(mapping, defs, new_ops)


def diamond_parts(cdfg: CDFG):
    """(entry, then, else, join) blocks of a diamond CDFG."""
    if not cdfg.is_diamond():
        raise ValueError(f"CDFG {cdfg.name!r} is not an if-then-else diamond")
    entry = cdfg.block(cdfg.entry)
    succ = dict(cdfg.successors(entry.bid))
    then_b = next(b for b, lab in cdfg.successors(entry.bid) if lab is True)
    else_b = next(b for b, lab in cdfg.successors(entry.bid) if lab is False)
    join_b = cdfg.successors(then_b)[0][0]
    return entry, cdfg.block(then_b), cdfg.block(else_b), cdfg.block(join_b)


def _if_convert(cdfg: CDFG, *, full: bool) -> DFG:
    entry, then_blk, else_blk, join_blk = diamond_parts(cdfg)
    out = DFG(f"{cdfg.name}_{'full' if full else 'partial'}pred")
    ext: dict[str, int] = {}

    entry_res = _copy_block(out, entry.body, {}, ext)
    cond = entry_res.defs[entry.cond]

    bound = dict(entry_res.defs)
    then_res = _copy_block(out, then_blk.body, bound, ext)
    else_res = _copy_block(out, else_blk.body, bound, ext)

    if full:
        for polarity, res in ((True, then_res), (False, else_res)):
            for nid in res.new_ops:
                out.set_label(nid, pred=polarity)
                out.connect(cond, nid, port=out.node(nid).op.arity)
    else:
        # Partial predication: make STOREs unconditional-safe by
        # rewriting them to load-select-store.
        for polarity, res in ((True, then_res), (False, else_res)):
            for nid in list(res.new_ops):
                node = out.node(nid)
                if node.op is not Op.STORE:
                    continue
                addr = out.operand(nid, 0).src
                val = out.operand(nid, 1).src
                old = out.add(Op.LOAD, addr, array=node.array)
                sel = (
                    out.add(Op.SELECT, cond, val, old)
                    if polarity
                    else out.add(Op.SELECT, cond, old, val)
                )
                out.remove_edge(out.operand(nid, 1))
                out.connect(sel, nid, port=1)

    # Merge arm definitions at the join.
    join_bound = dict(entry_res.defs)
    all_names = set(then_res.defs) | set(else_res.defs)
    for name in sorted(all_names):
        t = then_res.defs.get(name)
        f = else_res.defs.get(name)
        if t is not None and f is not None:
            join_bound[name] = (
                t if t == f else out.add(
                    Op.SELECT, cond, t, f, name=name
                )
            )
        elif t is not None:
            base = entry_res.defs.get(name)
            join_bound[name] = (
                out.add(Op.SELECT, cond, t, base, name=name)
                if base is not None
                else t
            )
        else:
            base = entry_res.defs.get(name)
            join_bound[name] = (
                out.add(Op.SELECT, cond, base, f, name=name)
                if base is not None
                else f
            )

    _copy_block(out, join_blk.body, join_bound, ext, keep_outputs=True)
    out.check()
    return out


def partial_predication(cdfg: CDFG) -> DFG:
    """If-convert a diamond with SELECT merges (partial predication)."""
    return _if_convert(cdfg, full=False)


def full_predication(cdfg: CDFG) -> DFG:
    """If-convert a diamond with predicated arm ops (full predication)."""
    return _if_convert(cdfg, full=True)
