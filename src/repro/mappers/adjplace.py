"""The adjacency-placement model behind the exact mappers.

Exact formulations cannot afford the router's full step-by-step search
inside the solver, so — like most published ILP/SAT/CP formulations —
they solve a *restricted but sound* placement model and let graph
extension recover generality:

* every operation takes one ``(cell, cycle)`` slot from a finite
  domain;
* an edge ``u -> v`` is satisfied when either

  - the consumer fires the cycle after the value is emitted and sits
    on the producer's cell or an out-neighbour (a direct wire read), or
  - producer and consumer share a cell and the gap is bridged by
    register-file holds (any length);

* multi-hop communication is recovered by inserting explicit ``ROUTE``
  operations into the DFG (:func:`repro.mappers.regraph
  .split_dist0_edges`), which then occupy cells like any op — the
  solver decides where; exact mappers escalate insertion rounds before
  escalating II.

Solutions translate mechanically into validated mappings
(:func:`build_mapping` materialises the hold chains).

``graph_minor`` and ``bnb`` share one search core over this model:
:func:`arc_consistent` (AC-3) and :func:`dfs`, in which a candidate
slot costs O(1) plus O(its edges to placed ops), however many ops are
placed.  The encoding mappers (sat, ilp, csp) read the edge rule
above from :func:`edge_supports`, their one statement of it, tabulated
once per II and insertion round.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Callable, Iterator

from repro.arch.cgra import CGRA
from repro.arch.tec import HOLD, Step
from repro.core.mapping import Mapping
from repro.ir.dfg import DFG, Edge
from repro.mappers.regraph import split_dist0_edges
from repro.mappers.schedule import asap
from repro.obs.tracer import BACKTRACKS, CANDIDATES_EXPLORED, SOLVER_NODES

__all__ = [
    "Slot",
    "arc_consistent",
    "build_mapping",
    "dfs",
    "edge_supports",
    "insertion_tries",
    "real_edges",
    "slot_domains",
]

Slot = tuple[int, int]  # (cell, cycle)


def real_edges(dfg: DFG) -> list[Edge]:
    return [
        e
        for e in dfg.edges()
        if not dfg.node(e.src).op.is_pseudo
        and not dfg.node(e.dst).op.is_pseudo
    ]


def slot_domains(dfg: DFG, cgra: CGRA, ii: int) -> dict[int, list[Slot]]:
    """Per-op candidate slots: supporting cells x the cycles from the
    op's ASAP time to ``ii + 2`` past it."""
    t0 = asap(dfg, ii)
    domains: dict[int, list[Slot]] = {}
    for node in dfg.nodes():
        if node.op.is_pseudo:
            continue
        cells = cgra.supporting_cells(node.op)
        lo = t0[node.nid]
        domains[node.nid] = [
            (c, t) for t in range(lo, lo + ii + 3) for c in cells
        ]
    return domains


def edge_supports(
    dfg: DFG, cgra: CGRA, ii: int, domains: dict[int, list[Slot]]
) -> list[tuple[Edge, list]]:
    """The edge rule tabulated over ``domains`` (distinct slots per
    op): one ``(edge, table)`` per real edge, in order.  For
    ``u -> v`` the table gives, per slot of ``u``, the ascending indices
    of the slots of ``v`` it supports; for a self edge, one flag per
    slot (may it feed itself?).  Rows read per-cell tables of ``v``'s
    slots, as :func:`arc_consistent` does."""
    tables = []
    for e in real_edges(dfg):
        off = e.dist * ii - dfg.node(e.src).op.latency
        if e.src == e.dst:  # same slot, same cell: only the gap counts
            tables.append((e, [off >= 0] * len(domains[e.src])))
            continue
        on_cell: dict[int, list[tuple[int, int]]] = {}
        index: dict[Slot, int] = {}
        for j, (c, t) in enumerate(domains[e.dst]):
            on_cell.setdefault(c, []).append((t, j))
            index[c, t] = j
        rows = []
        for c, t in domains[e.src]:
            tv = t - off  # the cycle a wire read must fire
            row = [j for tj, j in on_cell.get(c, ()) if tj >= tv]
            row += [
                index[m, tv] for m in cgra.neighbors_out(c)
                if (m, tv) in index
            ]
            row.sort()
            rows.append(row)
        tables.append((e, rows))
    return tables


def arc_consistent(
    dfg: DFG, cgra: CGRA, ii: int, domains: dict[int, list[Slot]]
) -> dict[int, list[Slot]] | None:
    """The arc-consistent closure of ``domains`` (AC-3), or None when a
    domain empties.  The closure is unique and filtering keeps each
    domain's order, so any revision order gives the same domains."""
    doms = {n: list(d) for n, d in domains.items()}
    # Arc (x, y, off, sign, nbrs) keeps the slots of x with a partner
    # in y; sign is +1 when x produces.  A same-cell partner may sit
    # any number of cycles away on the right side (holds bridge the
    # gap), a partner on a linked cell exactly one wire hop away.
    arcs = []
    for e in real_edges(dfg):
        off = e.dist * ii - dfg.node(e.src).op.latency
        arcs += [(e.src, e.dst, off, 1, cgra.neighbors_out),
                 (e.dst, e.src, off, -1, cgra.neighbors_in)]
    queue = deque(range(len(arcs)))
    queued = [True] * len(arcs)
    while queue:
        i = queue.popleft()
        queued[i] = False
        x, y, off, sign, nbrs = arcs[i]
        far: dict[int, float] = {}
        for c, t in doms[y]:
            far[c] = max(far.get(c, -inf), sign * t)
        wire = set(doms[y])
        keep = [
            (c, t) for c, t in doms[x]
            if far.get(c, -inf) >= sign * t - off
            or any((m, t - sign * off) in wire for m in nbrs(c))
        ]
        if len(keep) < len(doms[x]):
            if not keep:
                return None
            doms[x] = keep
            for j, arc in enumerate(arcs):
                if arc[1] == x and not queued[j]:
                    queued[j] = True
                    queue.append(j)
    return doms


def dfs(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    domains: dict[int, list[Slot]],
    *,
    first: bool = False,
    max_backtracks: float = inf,
    node_limit: float = inf,
) -> tuple[dict[int, Slot] | None, dict[str, int]]:
    """Depth-first slot embedding, most-constrained op first: the best
    assignment found (or None) and the work done, by tracer counter.

    The order is a stable sort by domain size (domains never change
    during the search).  Each op keeps a table of its edges to ops
    placed before it, so a candidate costs a lookup in the taken
    ``(cell, cycle mod II)`` slots and a few int comparisons per edge.
    ``first`` stops at the first solution; otherwise solutions must
    lower the makespan (largest cycle + 1), which also prunes partial
    ones.  The search halts after ``max_backtracks`` undone
    assignments; calls past ``node_limit`` return at once.
    """
    order = sorted(domains, key=lambda n: len(domains[n]))
    pos = {nid: i for i, nid in enumerate(order)}
    succ = [set(cgra.neighbors_out(c)) for c in range(cgra.n_cells)]
    pred = [set(cgra.neighbors_in(c)) for c in range(cgra.n_cells)]
    checks: list[list[tuple]] = [[] for _ in order]
    for e in real_edges(dfg):
        u, v = pos[e.src], pos[e.dst]
        off = e.dist * ii - dfg.node(e.src).op.latency
        if u < v:  # v consumes from the already placed u
            checks[v].append((u, 1, off, succ))
        elif v < u:  # u produces for the already placed v
            checks[u].append((v, -1, off, pred))
    cands = [[(c, t, c * ii + t % ii) for c, t in domains[n]] for n in order]
    used = bytearray(cgra.n_cells * ii)
    slots: list[Slot] = [(0, 0)] * len(order)
    best: dict[int, Slot] | None = None
    best_makespan = inf
    nodes = backtracks = explored = 0
    halted = False

    def step(idx: int, makespan: int) -> None:
        nonlocal best, best_makespan, nodes, backtracks, explored, halted
        nodes += 1
        if nodes > node_limit or makespan >= best_makespan:
            return
        if idx == len(order):
            best = dict(zip(order, slots))
            best_makespan = makespan
            halted = first
            return
        for c, t, key in cands[idx]:
            explored += 1
            if used[key]:
                continue
            for other, sign, off, nbrs in checks[idx]:
                oc, ot = slots[other]
                delta = sign * (t - ot) + off
                if delta < 0 or (c != oc and (delta or c not in nbrs[oc])):
                    break
            else:
                slots[idx] = (c, t)
                used[key] = 1
                step(idx + 1, max(makespan, t + 1))
                if halted:
                    return
                backtracks += 1
                used[key] = 0
                if backtracks >= max_backtracks:
                    halted = True
                    return

    step(0, 0)
    return best, {
        SOLVER_NODES: nodes, BACKTRACKS: backtracks,
        CANDIDATES_EXPLORED: explored,
    }


def insertion_tries(
    dfg: DFG, cgra: CGRA,
    solve: Callable[[int, DFG, int], dict[int, Slot] | None],
    *, rounds: int = 1,
) -> Callable[[int], Iterator[Mapping | None]]:
    """``Mapper.search`` attempts: per II, ``solve(r, work, ii)`` for
    ``r`` = 0, 1, ... ``rounds`` (one by default), where ``work`` is
    ``dfg`` after ``r`` ROUTE-insertion rounds.  Each round's graph is built once per call
    of this function, so a mapper may keep state per round across the
    II escalation (sat's incremental model, smt's skeleton, csp's
    value hint)."""
    works: dict[int, DFG] = {}

    def tries(ii: int) -> Iterator[Mapping | None]:
        for r in range(rounds + 1):
            work = works.get(r)
            if work is None:
                work = works[r] = (
                    dfg if r == 0 else split_dist0_edges(dfg, r)
                )
            assign = solve(r, work, ii)
            yield None if assign is None else build_mapping(
                work, cgra, ii, assign
            )
    return tries


def build_mapping(
    dfg: DFG, cgra: CGRA, ii: int, assign: dict[int, Slot]
) -> Mapping:
    """Materialise an adjacency-model solution as a Mapping.

    Same-cell gaps become HOLD chains; direct reads need no steps.
    The result still goes through ``validate()`` (RF capacity is not
    part of the solver model, so the caller must check).
    """
    binding = {nid: s[0] for nid, s in assign.items()}
    schedule = {nid: s[1] for nid, s in assign.items()}
    routes: dict[Edge, list[Step]] = {}
    for e in real_edges(dfg):
        cu, tu = assign[e.src]
        cv, tv = assign[e.dst]
        lat = dfg.node(e.src).op.latency
        t_consume = tv + e.dist * ii
        gap = t_consume - tu - lat
        if gap > 0:
            routes[e] = [
                Step(cu, tu + lat + k, HOLD) for k in range(gap)
            ]
    return Mapping(
        dfg, cgra, kind="modulo", binding=binding, schedule=schedule,
        routes=routes, ii=ii,
    )
