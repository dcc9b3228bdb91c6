"""Ablation — routing discipline: greedy vs negotiated congestion.

The design choice DESIGN.md calls out: the constructive mappers route
greedily (first feasible path wins) while SPR negotiates congestion
PathFinder-style.  On congested instances, negotiation routes edge
sets the greedy router gives up on; on easy instances both succeed and
greedy is cheaper.

Runnable as a script too: ``python bench_routing_ablation.py
--engine flat|scalar|both`` runs the same cells through the chosen
search engine (``flat`` = the production :class:`Router` on the array
core in :mod:`repro.mappers.routecore`, ``scalar`` = the dict/heapq
``ReferenceRouter`` from ``tests/oracles``; see DESIGN.md §13) so the
disciplines can be compared on either implementation, or both side by
side.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.arch import presets
from repro.bench import ascii_table
from repro.core.resources import Occupancy
from repro.mappers.routing import RouteRequest, Router

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import ReferenceRouter  # noqa: E402

ROUTERS = {"flat": Router, "scalar": ReferenceRouter}


def _congested_instance(cgra):
    """A 3x3 instance where the straight paths are all blocked."""
    occ = Occupancy(cgra, ii=4)
    # Ops fill the centre column at the routing cycles.
    occ.place_op(90, 1, 1)
    occ.place_op(91, 4, 1)
    occ.place_op(92, 7, 1)
    reqs = [
        RouteRequest(0, src_cell=0, t_emit=0, dst_cell=2, t_consume=3),
        RouteRequest(3, src_cell=3, t_emit=0, dst_cell=5, t_consume=3),
        RouteRequest(6, src_cell=6, t_emit=0, dst_cell=8, t_consume=3),
    ]
    return occ, reqs


def _run(router_kind: str, engine: str = "flat"):
    cgra = presets.simple_cgra(3, 3)
    occ, reqs = _congested_instance(cgra)
    router = ROUTERS[engine](cgra)
    routed = 0
    total_len = 0
    t0 = time.perf_counter()
    history: dict = {}
    for req in reqs:
        if router_kind == "greedy":
            steps = router.find(occ, req)
        else:
            found = router.find_negotiated(occ, req, history=history)
            steps = found[0] if found else None
        if steps is not None:
            routed += 1
            total_len += len(steps)
    dt = 1000 * (time.perf_counter() - t0)
    return {
        "router": router_kind,
        "engine": engine,
        "routed": f"{routed}/{len(reqs)}",
        "steps": total_len,
        "time_ms": round(dt, 3),
        "_routed": routed,
    }


def test_routing_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: [_run("greedy"), _run("negotiated")],
        iterations=1, rounds=1,
    )
    print("\n" + ascii_table(
        [{k: v for k, v in r.items() if not k.startswith("_")}
         for r in rows],
        title="Routing ablation — congested 3x3",
    ))
    greedy, negotiated = rows
    # Negotiation never routes fewer edges than the greedy discipline,
    # and on this congested instance it routes them all.
    assert negotiated["_routed"] >= greedy["_routed"]
    assert negotiated["_routed"] == 3


def test_ablation_engine_independent(benchmark):
    """The ablation's conclusion must not depend on the engine: flat
    and scalar route the same edge sets with the same step counts."""
    rows = benchmark.pedantic(
        lambda: [
            _run(kind, engine)
            for kind in ("greedy", "negotiated")
            for engine in ("flat", "scalar")
        ],
        iterations=1, rounds=1,
    )
    by_kind = {}
    for r in rows:
        by_kind.setdefault(r["router"], []).append(r)
    for kind, pair in by_kind.items():
        assert pair[0]["routed"] == pair[1]["routed"], kind
        assert pair[0]["steps"] == pair[1]["steps"], kind


def test_easy_instance_both_succeed(benchmark):
    cgra = presets.simple_cgra(4, 4)

    def run():
        occ = Occupancy(cgra, ii=4)
        router = Router(cgra)
        req = RouteRequest(0, 0, 0, 5, 3)
        greedy = router.find(occ, req)
        nego = router.find_negotiated(occ, req)
        return greedy, nego

    greedy, nego = benchmark.pedantic(run, iterations=1, rounds=1)
    assert greedy is not None and nego is not None
    # Same path length on an uncongested fabric.
    assert len(greedy) == len(nego[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--engine", choices=["flat", "scalar", "both"], default="flat",
        help="route-search engine to ablate on (default flat; 'both'"
        " prints the two engines side by side)",
    )
    args = ap.parse_args(argv)
    engines = ["flat", "scalar"] if args.engine == "both" else [args.engine]
    rows = [
        _run(kind, engine)
        for engine in engines
        for kind in ("greedy", "negotiated")
    ]
    print(ascii_table(
        [{k: v for k, v in r.items() if not k.startswith("_")}
         for r in rows],
        title="Routing ablation — congested 3x3",
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
