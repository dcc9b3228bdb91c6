"""Dual-issue single execution (DISE).

Yuan et al. [55] and Hamzeh et al.'s branch-aware mapping [58] load
*two* configurations into a cell and let the predicate pick which one
issues — so an op from the then-arm and an op from the else-arm can
share one ``(cell, cycle)`` slot, because at run time only one of them
executes.  The arms' resource demands overlap instead of adding up:
that is the entire benefit, and it is a *mapping-level* property.

This module produces the if-converted DFG plus the set of co-
executable pairs (opposite-arm ops matched by scheduling level), and a
mapper wrapper that exploits them: when placing an op whose partner is
already placed, its partner's slot is offered first and the FU
exclusivity check is waived for the pair.  The validator honours the
same waiver through ``Mapping.coexec``.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.core.exceptions import MapFailure
from repro.core.mapping import Mapping
from repro.core.problem import MappingProblem
from repro.ir.cdfg import CDFG
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState, default_candidates
from repro.mappers.schedule import heights, priority_order
from repro.controlflow.predication import _copy_block, diamond_parts
from repro.ir.dfg import Op

__all__ = ["DISEState", "dual_issue", "map_dual_issue"]


def dual_issue(cdfg: CDFG) -> tuple[DFG, set[frozenset[int]]]:
    """If-convert a diamond and pair opposite-arm ops for dual issue.

    Returns ``(dfg, pairs)`` where each pair is a frozenset of two node
    ids allowed to share an FU slot.  Arm ops execute under partial-
    predication semantics (the untaken arm's results are discarded by
    the join SELECTs); pairing is by descending height within each
    arm, the order in which schedulers will want to issue them.
    """
    entry, then_blk, else_blk, join_blk = diamond_parts(cdfg)
    out = DFG(f"{cdfg.name}_dise")
    ext: dict[str, int] = {}
    entry_res = _copy_block(out, entry.body, {}, ext)
    cond = entry_res.defs[entry.cond]
    bound = dict(entry_res.defs)
    then_res = _copy_block(out, then_blk.body, bound, ext)
    else_res = _copy_block(out, else_blk.body, bound, ext)

    # STORE safety: like partial predication, an unpaired STORE cannot
    # execute unconditionally; rewrite both arms' stores.
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

    join_bound = dict(entry_res.defs)
    for name in sorted(set(then_res.defs) | set(else_res.defs)):
        t = then_res.defs.get(name)
        f = else_res.defs.get(name)
        if t is not None and f is not None and t != f:
            join_bound[name] = out.add(Op.SELECT, cond, t, f, name=name)
        else:
            join_bound[name] = t if t is not None else f
    _copy_block(out, join_blk.body, join_bound, ext, keep_outputs=True)
    out.check()

    h = heights(out)
    then_ops = sorted(then_res.new_ops, key=lambda n: -h[n])
    else_ops = sorted(else_res.new_ops, key=lambda n: -h[n])
    pairs = {
        frozenset((a, b)) for a, b in zip(then_ops, else_ops)
    }
    return out, pairs


class DISEState(PlacementState):
    """A placement state in which paired ops may share one FU slot."""

    def __init__(
        self, dfg: DFG, cgra: CGRA, ii: int, partner: dict[int, int]
    ) -> None:
        super().__init__(dfg, cgra, ii)
        self.partner = partner

    def place(self, nid: int, cell: int, t: int) -> bool:
        mate = self.partner.get(nid)
        if mate is not None and self.occ.op_at(cell, t) == mate:
            # Share the partner's slot: place without the FU check.
            self.binding[nid] = cell
            self.schedule[nid] = t
            if self._route_all(nid) is None:
                del self.binding[nid], self.schedule[nid]
                return False
            return True
        return super().place(nid, cell, t)


def map_dual_issue(
    dfg: DFG,
    pairs: set[frozenset[int]],
    cgra: CGRA,
    ii: int | None = None,
) -> Mapping:
    """Constructive mapping that lets paired ops share FU slots."""
    partner: dict[int, int] = {}
    for p in pairs:
        a, b = tuple(p)
        partner[a] = b
        partner[b] = a

    def attempt(ii_try: int) -> Mapping | None:
        state = DISEState(dfg, cgra, ii_try, partner)
        window = 2 * ii_try + 2
        for nid in priority_order(dfg, by="height"):
            lb, ub = state.time_bounds(nid, window)
            if lb > ub:
                return None
            placed = False
            mate = partner.get(nid)
            if mate is not None and mate in state.binding:
                mc, mt = state.binding[mate], state.schedule[mate]
                if lb <= mt <= ub and state.place(nid, mc, mt):
                    placed = True
            if not placed:
                for cell, t in default_candidates(state, nid, lb, ub):
                    if state.place(nid, cell, t):
                        placed = True
                        break
            if not placed:
                return None
        mapping = state.to_mapping("dual_issue")
        mapping.coexec = set(pairs)
        if mapping.validate(raise_on_error=False):
            return None
        return mapping

    prob = MappingProblem(dfg, cgra)
    lo = ii if ii is not None else prob.rec_mii
    hi = ii if ii is not None else min(
        cgra.n_contexts, 2 * prob.mii + dfg.op_count()
    )
    for ii_try in range(lo, hi + 1):
        mapping = attempt(ii_try)
        if mapping is not None:
            return mapping
    raise MapFailure("dual-issue mapping failed", mapper="dual_issue")
