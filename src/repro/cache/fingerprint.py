"""Canonical fingerprints for the mapping cache.

A content-addressed cache is only as good as its keys.  Two problems
that are *the same problem* must collide, and two problems that differ
in anything affecting feasibility must not.  This module computes both
halves of the key:

* :func:`dfg_fingerprint` — an isomorphism-invariant digest of the
  application graph.  Node ids are accidents of construction order
  (``a*b + c*d`` built left-to-right or right-to-left is the same
  kernel), so the digest is built from Weisfeiler–Leman-style color
  refinement over opcode/port/distance labels instead of ids.
  :func:`canonical_ids` exposes the relabeling the refinement induces,
  which is what lets a cached mapping be replayed onto an isomorphic
  DFG with different node numbering.
* :func:`arch_fingerprint` — a digest of everything about a
  :class:`~repro.arch.cgra.CGRA` that affects mapping feasibility:
  grid shape, the full link set, context-memory depth, per-cell
  register-file depth / opcode set / memory port / immediate width,
  and the routing discipline (``route_shares_fu``, bypass capacity).
  The preset *name* is deliberately excluded — renaming an array does
  not change what maps onto it.

WL refinement can leave genuinely symmetric nodes in one color class;
:func:`canonical_ids` breaks such ties by node id, which is only
guaranteed consistent across relabelings when the tied nodes are
automorphic (in which case any tie-break yields an equally valid
mapping).  The cache's validate-on-load invariant backstops the rare
non-automorphic tie: a mistranslated mapping fails validation and
reads as a miss, never as a wrong answer.
"""

from __future__ import annotations

import hashlib

from repro.arch.cgra import CGRA
from repro.ir.dfg import DFG

__all__ = [
    "arch_fingerprint",
    "canonical_ids",
    "dfg_fingerprint",
    "problem_fingerprint",
    "refine_colors",
]

#: Digest length (hex chars) of each fingerprint half.
DIGEST_LEN = 16


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _node_seed(node) -> str:
    """The initial (round-0) color: every label that constrains where
    the node may bind, none of the accidental ones (nid, display name)."""
    value = node.value if node.value is not None else ""
    array = node.array if node.array is not None else ""
    pred = "" if node.pred is None else ("1" if node.pred else "0")
    return f"{node.op.value}|{value}|{array}|{pred}"


def refine_colors(dfg: DFG) -> dict[int, str]:
    """Weisfeiler–Leman color refinement over the labeled DFG.

    Starts from opcode/constant/predicate seeds and repeatedly folds
    each node's sorted in- and out-neighborhood (port, distance,
    neighbor color) into its color until the partition stops
    splitting.  Colors are canonical strings — stable across
    processes (no builtin ``hash``) and across node renumbering.

    Memoized on the graph per ``dfg.revision`` (like
    :func:`arch_fingerprint`'s ``_arch_fp``): one served request keys,
    stores and serializes the same graph, and every structural or
    label change bumps the revision.  The returned dict is shared;
    do not mutate it.
    """
    memo = getattr(dfg, "_wl", None)
    if memo is not None and memo[0] == dfg.revision:
        return memo[1]
    colors = _wl_refine(dfg)
    dfg._wl = (dfg.revision, colors)
    return colors


def _wl_refine(dfg: DFG) -> dict[int, str]:
    """The refinement itself (uncached; see :func:`refine_colors`)."""
    colors = {nid: _node_seed(dfg.node(nid)) for nid in dfg}
    n = len(colors)
    distinct = len(set(colors.values()))
    for _ in range(n):
        sigs: dict[int, str] = {}
        for nid in dfg:
            ins = sorted(
                f"{e.port}:{e.dist}:{colors[e.src]}"
                for e in dfg.in_edges(nid)
            )
            outs = sorted(
                f"{e.port}:{e.dist}:{colors[e.dst]}"
                for e in dfg.out_edges(nid)
            )
            sigs[nid] = _sha(
                colors[nid] + "<" + ";".join(ins) + ">" + ";".join(outs)
            )
        # Relabel into a canonical palette: color names depend only on
        # the sorted signature set, never on node ids.
        palette = {
            sig: f"c{i}" for i, sig in enumerate(sorted(set(sigs.values())))
        }
        colors = {nid: palette[sigs[nid]] for nid in dfg}
        now = len(set(colors.values()))
        if now == distinct:
            break
        distinct = now
    return colors


def canonical_ids(
    dfg: DFG, colors: dict[int, str] | None = None
) -> dict[int, int]:
    """Map each node id to its canonical index (0..n-1).

    Nodes are ordered by refined color, ties broken by node id.  Two
    isomorphic DFGs get the same canonical indexing whenever the
    refinement is discriminating (the overwhelmingly common case for
    labeled DAGs); symmetric ties translate along an automorphism.
    ``colors`` defaults to :func:`refine_colors`'s memoized ones.
    """
    if colors is None:
        colors = refine_colors(dfg)
    ordered = sorted(dfg, key=lambda nid: (colors[nid], nid))
    return {nid: i for i, nid in enumerate(ordered)}


def dfg_fingerprint(dfg: DFG) -> str:
    """Isomorphism-invariant digest of the application graph.

    Memoized on the graph per ``dfg.revision``, beside its colors.
    """
    memo = getattr(dfg, "_dfg_fp", None)
    if memo is not None and memo[0] == dfg.revision:
        return memo[1]
    colors = refine_colors(dfg)
    nodes = sorted(colors.values())
    edges = sorted(
        f"{colors[e.src]}>{colors[e.dst]}@{e.port}+{e.dist}"
        for e in dfg.edges()
    )
    body = f"n={len(nodes)};" + ",".join(nodes) + "|" + ",".join(edges)
    fp = _sha(body)[:DIGEST_LEN]
    dfg._dfg_fp = (dfg.revision, fp)
    return fp


def arch_fingerprint(cgra: CGRA) -> str:
    """Digest of every architecture parameter that affects feasibility.

    Memoized on the instance (like ``CGRA.distance_table``'s ``_dist``
    — arrays are immutable after construction), because the cache's
    hot path fingerprints the same array once per mapping call.
    """
    cached = getattr(cgra, "_arch_fp", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(
        (
            f"{cgra.width}x{cgra.height}"
            f"|share={int(cgra.route_shares_fu)}"
            f"|bypass={cgra.bypass_capacity}"
            f"|ctx={cgra.n_contexts}"
            f"|hwloop={int(cgra.hw_loop)}"
            f"|banks={cgra.memory_banks}"
        ).encode()
    )
    for cell in cgra.cells:
        ops = ",".join(sorted(op.value for op in cell.ops))
        h.update(
            (
                f"|{cell.cid}:{cell.x},{cell.y}:{cell.kind.value}"
                f":rf{cell.rf_size}:mem{int(cell.has_memory_port)}"
                f":cw{cell.const_width}:[{ops}]"
            ).encode()
        )
    h.update(str(sorted(cgra.links)).encode())
    fp = h.hexdigest()[:DIGEST_LEN]
    cgra._arch_fp = fp
    return fp


def problem_fingerprint(dfg: DFG, cgra: CGRA) -> str:
    """The combined (application, architecture) digest."""
    return f"{dfg_fingerprint(dfg)}{arch_fingerprint(cgra)}"
