"""End-to-end contracts of the serve daemon.

One in-process daemon per test (port 0, shared worker pool left
running): mixed batches stream per-request results, valid responses
are byte-identical to a serial ``Mapper.map`` + ``mapping_to_doc``,
duplicates collapse onto one pool execution, malformed requests get
structured field-naming errors without killing their batch, and the
HTTP face serves the same batches plus ``/metrics`` and
``/healthz``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket

import pytest

from repro.arch import presets
from repro.core.registry import create
from repro.core.serialize import dfg_to_doc, mapping_to_doc
from repro.ir import kernels
from repro.obs.metrics import (
    POOL_STEALS_TOTAL,
    SERVE_BATCHES_TOTAL,
    SERVE_ERRORS_TOTAL,
    SERVE_REQUEST_LATENCY_MS,
    SERVE_REQUESTS_TOTAL,
)
from repro.serve import MappingServer, submit
from repro.serve.validate import (
    MAX_DEADLINE_MS,
    RequestError,
    validate_request,
)


def roundtrip(requests, **server_kw):
    """Run one batch against a fresh in-process daemon.

    Returns ``(responses, summary, metrics snapshot)``; responses are
    submission-ordered.
    """

    async def go():
        async with MappingServer(port=0, **server_kw) as server:
            loop = asyncio.get_running_loop()
            port = server.bound_port
            responses, summary = await loop.run_in_executor(
                None,
                lambda: submit(requests, port=port, timeout=120),
            )
            return responses, summary, server.registry.snapshot()

    return asyncio.run(go())


def serial_doc(kernel, arch="simple4x4", mapper="list_sched", ii=None):
    """The reference document: serial map + serialize, no daemon."""
    mapping = create(mapper).map(
        kernels.kernel(kernel), presets.by_name(arch), ii=ii
    )
    return mapping_to_doc(mapping)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
def test_mixed_batch_streams_every_outcome():
    requests = [
        {"id": "ok", "kernel": "dot_product", "arch": "simple4x4"},
        {"id": "dup", "kernel": "dot_product", "arch": "simple4x4"},
        {"id": "bad", "kernel": 42, "arch": "simple4x4"},
        {
            "id": "late",
            "kernel": "layered:60:3:7",
            "arch": "simple4x4",
            "deadline_ms": 0.01,
        },
        {"id": "fir", "kernel": "fir4", "arch": "simple4x4"},
    ]
    responses, summary, snap = roundtrip(requests, jobs=2)
    by_id = {r["id"]: r for r in responses}

    assert by_id["ok"]["ok"] and not by_id["ok"]["deduped"]
    assert by_id["dup"]["ok"] and by_id["dup"]["deduped"]
    # byte-identical to the serial pipeline, duplicate included
    reference = canonical(serial_doc("dot_product"))
    assert canonical(by_id["ok"]["mapping"]) == reference
    assert canonical(by_id["dup"]["mapping"]) == reference

    err = by_id["bad"]["error"]
    assert err["type"] == "validation"
    assert err["field"] == "requests[2].kernel"

    assert by_id["late"]["error"]["type"] == "timeout"
    assert "deadline" in by_id["late"]["error"]["detail"]

    assert by_id["fir"]["ok"]
    assert canonical(by_id["fir"]["mapping"]) == canonical(
        serial_doc("fir4")
    )

    assert summary["requests"] == 5
    assert summary["ok"] == 3
    assert summary["errors"] == 2
    assert summary["deduped"] == 1

    assert snap[SERVE_REQUESTS_TOTAL]["value"] == 5
    assert snap[SERVE_ERRORS_TOTAL]["value"] == 2
    assert snap[SERVE_BATCHES_TOTAL]["value"] == 1
    # only pool-run requests get a latency observation
    assert snap[SERVE_REQUEST_LATENCY_MS]["count"] == 4


def test_inline_dfg_request_maps_with_exact_node_ids():
    dfg = kernels.kernel("fir4")
    responses, summary, _ = roundtrip(
        [
            {"id": "inline", "dfg": dfg_to_doc(dfg), "arch": "simple4x4"},
            {"id": "named", "kernel": "fir4", "arch": "simple4x4"},
        ],
        jobs=2,
    )
    inline, named = responses
    assert inline["ok"] and named["ok"]
    # ids are preserved exactly, so both routes to the same graph
    # produce the same document — but the requests must NOT have
    # deduped onto each other (different key suffixes).
    assert canonical(inline["mapping"]) == canonical(named["mapping"])
    assert summary["deduped"] == 0


def test_relabeled_isomorphic_inline_dfgs_do_not_dedup():
    dfg = kernels.kernel("dot_product")
    doc = dfg_to_doc(dfg)
    shift = max(n["id"] for n in doc["nodes"]) + 1
    relabeled = {
        "name": doc["name"],
        "nodes": [
            {**n, "id": n["id"] + shift} for n in doc["nodes"]
        ],
        "edges": [
            [s + shift, d + shift, p, dist]
            for s, d, p, dist in doc["edges"]
        ],
    }
    responses, summary, _ = roundtrip(
        [
            {"id": "a", "dfg": doc, "arch": "simple4x4"},
            {"id": "b", "dfg": relabeled, "arch": "simple4x4"},
        ],
        jobs=2,
    )
    a, b = responses
    assert a["ok"] and b["ok"]
    # same content address, different labels: dedup would hand b a
    # document speaking a's node ids
    assert summary["deduped"] == 0
    b_ids = {int(k) for k in b["mapping"]["binding"]}
    assert b_ids and all(i >= shift for i in b_ids)
    a_ids = {int(k) for k in a["mapping"]["binding"]}
    assert b_ids == {i + shift for i in a_ids}


def test_requests_differing_only_in_options_do_not_dedup():
    """Options are part of the dedup key: a request is never answered
    with a mapping computed under another request's options."""
    base = {"kernel": "dot_product", "arch": "simple4x4", "mapper": "dresc"}
    responses, summary, _ = roundtrip(
        [
            {"id": "default", **base},
            {"id": "short", **base, "options": {"moves_per_temp": 5}},
        ],
        jobs=2,
    )
    assert summary["deduped"] == 0
    for r in responses:
        assert r["ok"] and not r["deduped"]
    dfg, cgra = kernels.kernel("dot_product"), presets.by_name("simple4x4")
    default, short = responses
    assert canonical(default["mapping"]) == canonical(
        mapping_to_doc(create("dresc").map(dfg, cgra))
    )
    assert canonical(short["mapping"]) == canonical(
        mapping_to_doc(create("dresc", moves_per_temp=5).map(dfg, cgra))
    )


def test_map_failure_is_a_structured_error_not_a_crash():
    # sobel_x cannot fit spatially on a 2x2: a deterministic MapFailure
    responses, summary, _ = roundtrip(
        [
            {
                "id": "nofit",
                "kernel": "sobel_x",
                "arch": "simple2x2",
                "mapper": "sa_spatial",
            },
            {"id": "fine", "kernel": "dot_product", "arch": "simple4x4"},
        ],
        jobs=2,
    )
    by_id = {r["id"]: r for r in responses}
    assert not by_id["nofit"]["ok"]
    assert by_id["nofit"]["error"]["type"] == "map_failure"
    assert "does not fit" in by_id["nofit"]["error"]["detail"]
    assert by_id["fine"]["ok"]
    assert summary["requests"] == 2 and summary["errors"] == 1


def test_batch_envelope_errors_are_structured():
    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port

            def talk():
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=30
                ) as sock:
                    stream = sock.makefile("rwb")
                    out = []
                    for payload in (b"[1, 2]\n", b"{not json\n"):
                        stream.write(payload)
                        stream.flush()
                        out.append(json.loads(stream.readline()))
                        out.append(json.loads(stream.readline()))
                    return out

            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, talk)

    shape_err, shape_sum, parse_err, parse_sum = asyncio.run(go())
    assert shape_err["error"]["type"] == "validation"
    assert shape_err["error"]["field"] == "batch"
    assert shape_sum["batch"]["errors"] == 1
    assert parse_err["error"]["field"] == "batch"
    assert "not valid JSON" in parse_err["error"]["detail"]
    assert parse_sum["batch"]["requests"] == 0


def test_connection_serves_multiple_batches():
    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port

            def talk():
                batch = json.dumps({
                    "requests": [
                        {"kernel": "dot_product", "arch": "simple4x4"}
                    ]
                }).encode() + b"\n"
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=120
                ) as sock:
                    stream = sock.makefile("rwb")
                    summaries = []
                    for _ in range(2):
                        stream.write(batch)
                        stream.flush()
                        while True:
                            doc = json.loads(stream.readline())
                            if "batch" in doc:
                                summaries.append(doc["batch"])
                                break
                    return summaries

            loop = asyncio.get_running_loop()
            summaries = await loop.run_in_executor(None, talk)
            return summaries, server.registry.snapshot()

    summaries, snap = asyncio.run(go())
    assert [s["ok"] for s in summaries] == [1, 1]
    assert snap[SERVE_BATCHES_TOTAL]["value"] == 2


def test_http_face_serves_map_metrics_and_health():
    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port

            def http(method, path, body=b""):
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=120
                ) as sock:
                    head = (
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: x\r\nContent-Length: {len(body)}\r\n"
                        "\r\n"
                    ).encode()
                    sock.sendall(head + body)
                    chunks = []
                    while True:
                        got = sock.recv(65536)
                        if not got:
                            return b"".join(chunks)
                        chunks.append(got)

            loop = asyncio.get_running_loop()
            body = json.dumps({
                "requests": [
                    {"id": "h", "kernel": "dot_product",
                     "arch": "simple4x4"},
                ]
            }).encode()
            mapped = await loop.run_in_executor(
                None, lambda: http("POST", "/map", body)
            )
            metrics = await loop.run_in_executor(
                None, lambda: http("GET", "/metrics")
            )
            health = await loop.run_in_executor(
                None, lambda: http("GET", "/healthz")
            )
            missing = await loop.run_in_executor(
                None, lambda: http("GET", "/nope")
            )
            return mapped, metrics, health, missing

    mapped, metrics, health, missing = asyncio.run(go())
    head, _, payload = mapped.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"application/x-ndjson" in head
    lines = [json.loads(x) for x in payload.splitlines() if x.strip()]
    assert lines[0]["ok"] is True
    assert canonical(lines[0]["mapping"]) == canonical(
        serial_doc("dot_product")
    )
    assert lines[-1]["batch"]["ok"] == 1
    assert b"repro_serve_requests_total 1" in metrics
    assert health.partition(b"\r\n\r\n")[2] == b"ok\n"
    assert missing.startswith(b"HTTP/1.1 404")


def test_metrics_count_requests_taken_over_from_a_slow_worker():
    # dresc on sad is the slow head; the request prefetched behind it
    # is taken over by the worker that cleared the other two
    requests = [
        {"id": "slow", "kernel": "sad", "arch": "simple4x4",
         "mapper": "dresc"},
        {"id": "a", "kernel": "dot_product", "arch": "simple4x4"},
        {"id": "b", "kernel": "fir4", "arch": "simple4x4"},
        {"id": "c", "kernel": "sobel_x", "arch": "simple4x4"},
    ]
    responses, summary, snap = roundtrip(requests, jobs=2)
    assert [r["id"] for r in responses] == ["slow", "a", "b", "c"]
    assert summary["ok"] == 4
    assert snap[POOL_STEALS_TOTAL]["value"] >= 1


def test_aclose_drains_and_double_close_is_noop():
    async def go():
        server = MappingServer(port=0, jobs=2)
        await server.start()
        loop = asyncio.get_running_loop()
        port = server.bound_port
        responses, _ = await loop.run_in_executor(
            None,
            lambda: submit(
                [{"kernel": "dot_product", "arch": "simple4x4"}],
                port=port, timeout=120,
            ),
        )
        await server.aclose()
        await server.aclose()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)
        return responses

    responses = asyncio.run(go())
    assert responses[0]["ok"]


def test_cli_serve_submit_and_sigterm_drain(tmp_path):
    """The whole CLI path: boot `repro serve`, drive it with
    `repro submit`, then SIGTERM it and verify a clean drain with no
    orphaned pool workers."""
    import os
    import re
    import signal
    import subprocess
    import sys
    import time

    env = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--grace", "2.0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        assert m, f"no readiness line, got {line!r}"
        port = int(m.group(1))

        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "requests": [
                {"id": "a", "kernel": "dot_product", "arch": "simple4x4"},
                {"id": "b", "kernel": "dot_product", "arch": "simple4x4"},
                {"id": "bad", "arch": "simple4x4"},
                {"id": "c", "kernel": "fir4", "arch": "simple4x4"},
            ]
        }))
        out = subprocess.run(
            [sys.executable, "-m", "repro", "submit", str(batch),
             "--port", str(port)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 1  # the malformed request failed
        lines = [json.loads(x) for x in out.stdout.splitlines()]
        summary = lines[-1]["batch"]
        assert summary["requests"] == 4 and summary["ok"] == 3
        assert summary["deduped"] == 1
        by_id = {d["id"]: d for d in lines[:-1]}
        assert canonical(by_id["a"]["mapping"]) == canonical(
            serial_doc("dot_product")
        )
        assert by_id["bad"]["error"]["field"] == "requests[2].kernel"

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
        tail = proc.stdout.read()
        assert "drained and stopped" in tail
        # no orphaned workers: every child of the daemon is gone
        procs = subprocess.run(
            ["ps", "--ppid", str(proc.pid), "-o", "pid="],
            capture_output=True, text=True,
        )
        assert procs.stdout.strip() == ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# long lines, disconnects and overlapping batches
# ---------------------------------------------------------------------------
#: a request that runs until its 1.5 s deadline (dresc needs ~15 s here)
SLOW = {
    "id": "slow", "kernel": "layered:60:3:7", "arch": "simple4x4",
    "mapper": "dresc", "deadline_ms": 1500,
}


def ndjson_exchange(port, payload):
    """Send raw bytes, then read response lines until the batch summary
    or the server's close; returns the parsed documents."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        stream = sock.makefile("rwb")
        stream.write(payload)
        stream.flush()
        docs = []
        while True:
            line = stream.readline()
            if not line:
                return docs
            docs.append(json.loads(line))
            if "batch" in docs[-1]:
                return docs


def padded_batch(requests, size):
    """One NDJSON batch line of ``size`` bytes (JSON whitespace pad)."""
    text = json.dumps({"requests": requests})
    return (text[:-1] + " " * (size - len(text) - 1) + "}\n").encode()


def test_ndjson_line_over_64_kib_is_served():
    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            payload = padded_batch(
                [{"id": "big", "kernel": "dot_product",
                  "arch": "simple4x4"}],
                100_000,
            )
            assert len(payload) == 100_000 > 64 * 1024
            return await asyncio.get_running_loop().run_in_executor(
                None, lambda: ndjson_exchange(server.bound_port, payload)
            )

    resp, summary = asyncio.run(go())
    assert resp["id"] == "big" and resp["ok"]
    assert canonical(resp["mapping"]) == canonical(
        serial_doc("dot_product")
    )
    assert summary["batch"]["ok"] == 1


@pytest.mark.parametrize("first", [True, False])
def test_ndjson_line_over_the_cap_gets_a_batch_error(monkeypatch, first):
    from repro.serve import protocol

    monkeypatch.setattr(protocol, "MAX_BODY_BYTES", 4096)
    ok_line = json.dumps({"requests": [
        {"kernel": "dot_product", "arch": "simple4x4"}
    ]}).encode() + b"\n"
    long_line = padded_batch(
        [{"kernel": "dot_product", "arch": "simple4x4"}], 10_000
    )
    payload = long_line if first else ok_line + long_line

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port

            def talk():
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=120
                ) as sock:
                    sock.sendall(payload)
                    # every line up to the server's close
                    return [json.loads(x) for x in sock.makefile("rb")]

            return await asyncio.get_running_loop().run_in_executor(
                None, talk
            )

    docs = asyncio.run(go())
    if not first:
        assert docs[0]["ok"] and docs[1]["batch"]["ok"] == 1
        docs = docs[2:]
    error, summary = docs  # then the connection closed
    assert error["error"]["type"] == "validation"
    assert error["error"]["field"] == "batch"
    assert "4096-byte cap" in error["error"]["detail"]
    assert summary["batch"]["errors"] == 1


def test_client_gone_mid_batch_leaves_the_pool_whole():
    from repro.parallel import pool as pool_mod

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port
            pool = pool_mod._POOL  # read only: the owner thread drives it
            pids = pool.pids()

            def leave_early():
                batch = json.dumps({"requests": [
                    SLOW, {"id": "fast", "kernel": "fir4",
                           "arch": "simple4x4"},
                ]}).encode() + b"\n"
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=120
                ) as sock:
                    sock.sendall(batch)
                    first = json.loads(sock.makefile("rb").readline())
                return first  # gone while the slow request still runs

            loop = asyncio.get_running_loop()
            first = await loop.run_in_executor(None, leave_early)
            responses, summary = await loop.run_in_executor(
                None,
                lambda: submit(
                    [{"id": "b", "kernel": "dot_product",
                      "arch": "simple4x4"},
                     {"id": "c", "kernel": "sobel_x",
                      "arch": "simple4x4"}],
                    port=port, timeout=120,
                ),
            )
            owner = server._owner
        return first, responses, summary, owner, pool, pids

    first, responses, summary, owner, pool, pids = asyncio.run(go())
    assert first["id"] == "fast" and first["ok"]
    assert [r["id"] for r in responses] == ["b", "c"]
    assert all(r["ok"] for r in responses) and summary["ok"] == 2
    # the owner settled the abandoned group and handed the pool back
    assert not owner.is_alive()
    assert pool._holder is None and pool.open_groups == 0
    assert all(
        w.running is None and w.prefetched is None for w in pool._workers
    )
    for pid in pids:
        os.kill(pid, 0)  # every worker still alive, none replaced
    assert pool.pids() == pids


def test_overlapping_batches_keep_serve_metrics_exact(monkeypatch):
    from repro.obs.metrics import SERVE_INFLIGHT, Gauge

    seen: list[float] = []
    for name in ("inc", "dec", "set"):
        original = getattr(Gauge, name)

        def record(self, *args, _original=original):
            _original(self, *args)
            if self.name == SERVE_INFLIGHT:
                seen.append(self.value)

        monkeypatch.setattr(Gauge, name, record)

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port
            loop = asyncio.get_running_loop()
            first = loop.run_in_executor(None, lambda: submit(
                [SLOW, {"id": "a", "kernel": "fir4", "arch": "simple4x4"}],
                port=port, timeout=120,
            ))
            second = loop.run_in_executor(None, lambda: submit(
                [{"id": "b", "kernel": "dot_product", "arch": "simple4x4"},
                 {"id": "c", "kernel": "sobel_x", "arch": "simple4x4"},
                 {"id": "d", "kernel": "fir4", "arch": "simple4x4"}],
                port=port, timeout=120,
            ))
            done = await asyncio.gather(first, second)
            return done, server.registry.snapshot()

    ((r1, s1), (r2, s2)), snap = asyncio.run(go())
    assert r1[0]["error"]["type"] == "timeout" and r1[1]["ok"]
    assert s1["requests"] == 2 and s2["ok"] == 3
    assert snap[SERVE_REQUESTS_TOTAL]["value"] == 5
    assert snap[SERVE_BATCHES_TOTAL]["value"] == 2
    assert snap["serve_inflight"]["value"] == 0
    # more in flight than either batch alone: they overlapped
    assert max(seen) > 3
    assert min(seen) >= 0


def test_concurrent_batch_flood_is_answered_in_full():
    """More clients than cores, with a short thread switch interval so
    the event loop and the pool-owner thread interleave finely."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    kernels_ = ["dot_product", "fir4", "sobel_x", "sad"]
    clients = 6

    def batch(c):
        return [
            {"id": f"{c}-{k}", "kernel": kernels_[(c + k) % 4],
             "arch": "simple4x4"}
            for k in range(3)
        ]

    async def go():
        async with MappingServer(port=0, jobs=2) as server:
            port = server.bound_port
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(clients) as threads:
                done = await asyncio.gather(*(
                    loop.run_in_executor(
                        threads,
                        lambda c=c: submit(batch(c), port=port, timeout=120),
                    )
                    for c in range(clients)
                ))
            return done, server.registry.snapshot()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        done, snap = asyncio.run(go())
    finally:
        sys.setswitchinterval(interval)
    for c, (responses, summary) in enumerate(done):
        assert [r["id"] for r in responses] == [d["id"] for d in batch(c)]
        assert all(r["ok"] for r in responses) and summary["ok"] == 3
    assert snap[SERVE_REQUESTS_TOTAL]["value"] == 3 * clients
    assert snap[SERVE_BATCHES_TOTAL]["value"] == clients
    assert snap["serve_inflight"]["value"] == 0


# ---------------------------------------------------------------------------
# validation unit drills
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "doc,field",
    [
        ("nope", "requests[0]"),
        ({}, "requests[0].kernel"),
        ({"kernel": "dot_product", "dfg": {"nodes": []}},
         "requests[0].kernel"),
        ({"kernel": "no_such_kernel", "arch": "simple4x4"},
         "requests[0].kernel"),
        ({"kernel": "dot_product"}, "requests[0].arch"),
        ({"kernel": "dot_product", "arch": "atari2600"},
         "requests[0].arch"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "mapper": "magic"}, "requests[0].mapper"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "options": {"bogus_opt": 1}}, "requests[0].options"),
        ({"kernel": "dot_product", "arch": "simple4x4", "ii": 0},
         "requests[0].ii"),
        ({"kernel": "dot_product", "arch": "simple4x4", "ii": True},
         "requests[0].ii"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "deadline_ms": -5}, "requests[0].deadline_ms"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "turbo": True}, "requests[0].turbo"),
        ({"id": 7, "kernel": "dot_product", "arch": "simple4x4"},
         "requests[0].id"),
        ({"dfg": {"nodes": "x"}, "arch": "simple4x4"},
         "requests[0].dfg"),
        # json.loads reads NaN, Infinity and 1e400 (as inf): none can
        # arm a worker's timer
        ({"kernel": "dot_product", "arch": "simple4x4",
          "deadline_ms": float("nan")}, "requests[0].deadline_ms"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "deadline_ms": float("inf")}, "requests[0].deadline_ms"),
        ({"kernel": "dot_product", "arch": "simple4x4",
          "deadline_ms": MAX_DEADLINE_MS + 1}, "requests[0].deadline_ms"),
    ],
)
def test_validate_request_names_the_offending_field(doc, field):
    with pytest.raises(RequestError) as exc:
        validate_request(doc, 0)
    assert exc.value.field == field


def test_validate_request_accepts_the_full_shape():
    p = validate_request(
        {
            "id": "r9",
            "kernel": "dot_product",
            "arch": "simple4x4",
            "mapper": "list_sched",
            "deadline_ms": 1500,
        },
        3,
    )
    assert p.rid == "r9" and p.index == 3
    assert p.budget == pytest.approx(1.5)
    assert p.key.endswith("+k:dot_product")
    kind, spec, arch, mapper, ii, options = p.item()
    assert (kind, spec, arch, mapper) == (
        "kernel", "dot_product", "simple4x4", "list_sched"
    )
