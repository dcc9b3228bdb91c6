"""Dual-issue single execution (DISE).

Yuan et al. [55] and Hamzeh et al.'s branch-aware mapping [58] load
*two* configurations into a cell and let the predicate pick which one
issues — so an op from the then-arm and an op from the else-arm can
share one ``(cell, cycle)`` slot, because at run time only one of them
executes.  The arms' resource demands overlap instead of adding up:
that is the entire benefit, and it is a *mapping-level* property.

DISE is partial predication plus slot pairing: this module produces
partial predication's if-converted DFG plus the set of co-executable
pairs (opposite-arm ops matched by scheduling level), and a mapper
wrapper that exploits them: when placing an op whose partner is
already placed, its partner's slot is offered first and the FU
exclusivity check is waived for the pair.  The validator honours the
same waiver through ``Mapping.coexec``.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.core.mapper import first_valid
from repro.core.mapping import Mapping
from repro.core.problem import MappingProblem
from repro.ir.cdfg import CDFG
from repro.ir.dfg import DFG
from repro.mappers.construct import PlacementState, default_candidates
from repro.mappers.schedule import heights, priority_order
from repro.controlflow.predication import _if_convert

__all__ = ["DISEState", "dual_issue", "map_dual_issue"]


def dual_issue(cdfg: CDFG) -> tuple[DFG, set[frozenset[int]]]:
    """If-convert a diamond and pair opposite-arm ops for dual issue.

    Returns ``(dfg, pairs)`` where each pair is a frozenset of two node
    ids allowed to share an FU slot.  The DFG is partial predication's
    (arm ops execute unconditionally, the join SELECTs discard the
    untaken arm's results); pairing is by descending height within
    each arm, the order in which schedulers will want to issue them.
    """
    out, then_new, else_new = _if_convert(
        cdfg, f"{cdfg.name}_dise", full=False
    )
    h = heights(out)
    then_ops = sorted(then_new, key=lambda n: -h[n])
    else_ops = sorted(else_new, key=lambda n: -h[n])
    return out, {frozenset(p) for p in zip(then_ops, else_ops)}


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
    """Constructive mapping that lets paired ops share FU slots.

    Each II's candidate goes through the shared attempt loop
    :func:`repro.core.mapper.first_valid`, which raises its
    ``MapFailure`` when none validates.
    """
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
        mapping = state.to_mapping()
        mapping.mapper = "dual_issue"
        mapping.coexec = set(pairs)
        return mapping

    # Paired ops share slots, so the resource bound does not hold:
    # the II range starts at RecMII.
    prob = MappingProblem(dfg, cgra)
    lo = ii if ii is not None else prob.rec_mii
    hi = ii if ii is not None else min(
        cgra.n_contexts, 2 * prob.mii + dfg.op_count()
    )
    return first_valid(
        "dual_issue",
        (attempt(ii_try) for ii_try in range(lo, hi + 1)),
        f"no slot-sharing mapping at II {lo}..{hi}",
    )
