"""Cold-start hygiene: the heuristic serve path loads neither scipy nor
networkx.

scipy backs only the exact ILP mappers and networkx only the
graph-drawing layout, so both are imported where those first run.
Each check starts a fresh interpreter: the test process itself has
long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.arch import presets
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels

from perfbench.inputs import SERVE_MAPPERS

SRC = str(Path(__file__).resolve().parents[2] / "src")
HEAVY = ("scipy", "networkx")
#: mappers whose first map imports a heavy module
LAZY_MAPPERS = ("ilp", "ilp_spatial", "graph_drawing")


def fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns the JSON document it
    prints last."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_serve_mappers_map_without_scipy_or_networkx():
    got = fresh(f"""
        import json, sys
        import repro.mappers
        from repro.arch import presets
        from repro.core.registry import create
        from repro.core.serialize import mapping_to_doc
        from repro.ir import kernels

        cgra = presets.by_name("simple4x4")
        iis = {{}}
        for name in {SERVE_MAPPERS!r}:
            mapping = create(name).map(kernels.kernel("relu"), cgra)
            mapping.validate()
            mapping_to_doc(mapping)
            iis[name] = mapping.ii
        print(json.dumps({{
            "loaded": [m for m in {HEAVY!r} if m in sys.modules],
            "iis": iis,
        }}))
    """)
    assert got["loaded"] == []
    assert sorted(got["iis"]) == sorted(SERVE_MAPPERS)


def test_warm_pool_worker_is_lean():
    got = fresh(f"""
        import json, os, sys
        from repro.parallel import pmap, warm_pool

        PARENT = os.getpid()

        def loaded():
            return [m for m in {HEAVY!r} if m in sys.modules]

        def report(_item):
            return os.getpid() != PARENT, loaded()

        warm_pool(2)
        results = pmap(report, [0, 1], jobs=2)
        print(json.dumps({{
            "parent": loaded(),
            "workers": [r.value for r in results],
        }}))
    """)
    assert got["parent"] == []
    # each answer comes from a forked worker, not the parent
    assert got["workers"] == [[True, []], [True, []]]


def test_lazy_mappers_serve_the_direct_bytes():
    # The daemon's workers fork without scipy or networkx, so each of
    # these requests imports its module on first use inside a worker.
    got = fresh(f"""
        import asyncio, json, sys
        from repro.serve import MappingServer, submit

        requests = [
            {{"id": m, "kernel": "dot_product", "arch": "simple4x4",
              "mapper": m}}
            for m in {LAZY_MAPPERS!r}
        ]

        def loaded():
            return [m for m in {HEAVY!r} if m in sys.modules]

        async def go():
            async with MappingServer(port=0, jobs=2) as server:
                started = loaded()
                port = server.bound_port
                responses, _ = await asyncio.get_running_loop(
                ).run_in_executor(
                    None, lambda: submit(requests, port=port, timeout=120)
                )
                return started, responses

        started, responses = asyncio.run(go())
        print(json.dumps({{
            "started": started, "after": loaded(), "responses": responses,
        }}))
    """)
    assert got["started"] == [] and got["after"] == []
    by_id = {r["id"]: r for r in got["responses"]}
    cgra = presets.by_name("simple4x4")
    for name in LAZY_MAPPERS:
        assert by_id[name]["ok"], by_id[name]
        direct = mapping_to_doc(
            create(name).map(kernels.kernel("dot_product"), cgra)
        )
        assert canonical(by_id[name]["mapping"]) == canonical(direct)


def test_deadline_during_scipy_import_does_not_poison():
    # The import takes most of a second cold, so a 20 ms deadline
    # lands inside it; the next solve must import and solve cleanly.
    got = fresh("""
        import json, sys
        from repro.parallel import TaskTimeout, time_limit
        from repro.solvers import ILP

        def solve():
            ilp = ILP()
            x = [ilp.add_var() for _ in range(3)]
            ilp.add_constraint({x[0]: 1, x[1]: 1, x[2]: 1}, "==", 1)
            ilp.set_objective({x[0]: 3.0, x[1]: 1.0, x[2]: 2.0})
            return ilp.solve()

        before = "scipy" in sys.modules
        try:
            with time_limit(0.02):
                solve()
            first = "solved"
        except TaskTimeout:
            first = "timeout"
        second = solve()
        print(json.dumps({
            "before": before, "first": first,
            "second": second.status.value, "objective": second.objective,
        }))
    """)
    assert got["before"] is False
    assert got["first"] == "timeout"
    assert got["second"] == "optimal"
    assert got["objective"] == pytest.approx(1.0)
