"""The asyncio mapping daemon.

A single process, a single port, no dependencies beyond the stdlib:
``asyncio.start_server`` accepts connections, :mod:`.protocol`
decides NDJSON vs HTTP, :mod:`.validate` turns batch documents into
validated requests, and :mod:`.scheduler` runs them over the
persistent worker pool.  Results stream back per request as they
settle.

Concurrency model: the event loop owns all sockets and all serve
metrics; one long-lived pool-owner thread owns the worker pool (the
pool is neither thread-safe nor reentrant).  A validated batch goes
into the owner thread's inbox — a thread-safe queue plus a wake-up
socket the pool loop waits on beside its worker pipes — and becomes
one task group of the pool's dispatch/settle core.  Groups share one
FIFO queue, so the next batch starts on a worker the moment that
worker frees up from the previous batch's slow tail; each settled
response hops back to the loop via ``call_soon_threadsafe``.
Connections multiplex freely and a batch's validation errors are
answered immediately.

Deadline semantics: a request's ``deadline_ms`` (or the daemon-wide
default) becomes the pool task's wall-clock budget — SIGALRM inside
the worker, the head-of-line backstop behind it — so an over-deadline
request settles as a structured ``timeout`` error while the rest of
its batch proceeds.

Shutdown: SIGTERM/SIGINT stop the listener, in-flight batches drain
(their responses still stream out), the owner thread exits once its
last group settles, then the worker pool tears down through its
bounded escalation ladder — no orphaned workers.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import queue
import signal
import socket
import threading
import time
from typing import Any, Awaitable, Callable

from repro.obs.metrics import (
    POOL_STEALS_TOTAL,
    MetricsRegistry,
    SERVE_BATCHES_TOTAL,
    SERVE_ERRORS_TOTAL,
    SERVE_INFLIGHT,
    SERVE_REQUEST_LATENCY_MS,
    SERVE_REQUESTS_TOTAL,
    render_prometheus,
    set_metrics,
)
from repro.parallel import (
    WorkerPool,
    get_pool,
    shutdown as pool_shutdown,
    warm_pool,
)
from repro.serve import protocol
from repro.serve.scheduler import open_batch
from repro.serve.validate import Prepared, RequestError, validate_batch

__all__ = ["MappingServer"]

_log = logging.getLogger("repro.serve.daemon")

Send = Callable[[dict[str, Any]], Awaitable[None]]


def _sender(writer: asyncio.StreamWriter) -> Send:
    """Write response documents to ``writer`` as NDJSON lines."""

    async def send(doc: dict[str, Any]) -> None:
        writer.write(protocol.ndjson_line(doc))
        await writer.drain()

    return send


class MappingServer:
    """The serve daemon; see the module docstring for the model.

    Use as an async context manager, or ``start()``/``aclose()``
    explicitly; ``run_until_signalled()`` is the CLI entry point.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 2,
        timeout: float | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = max(1, jobs)
        self.default_budget = timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self._prev_registry: Any = None
        self._closed = False
        self._conns: set[asyncio.StreamWriter] = set()
        #: batches being served, and an event set whenever there are none
        self._running = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: the pool-owner thread, its inbox and its wake-up socket pair
        self._owner: threading.Thread | None = None
        self._inbox: queue.SimpleQueue[tuple] = queue.SimpleQueue()
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._stopping = False
        #: the pool's steal count already published on /metrics
        self._steals_seen = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual port (after binding port 0)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        # Fork the workers before the loop breeds threads: forking
        # from a threaded parent risks inheriting a lock mid-hold.
        warm_pool(self.jobs)
        self._prev_registry = set_metrics(self.registry)
        # NDJSON batches arrive as single lines: let one be as long as
        # an HTTP body may be.
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=protocol.MAX_BODY_BYTES,
        )
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._owner = threading.Thread(
            target=self._own_pool, name="repro-pool-owner", daemon=True
        )
        self._owner.start()
        _log.info("serve: listening on %s:%s", self.host, self.bound_port)

    async def aclose(
        self, *, stop_pool: bool = False, grace: float | None = None
    ) -> None:
        """Stop accepting, drain the in-flight batches, tear down.

        ``stop_pool=True`` additionally shuts the worker pool down
        (the CLI path — its atexit re-run is a no-op); in-process test
        servers leave the shared pool running.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()  # drain: every batch has streamed out
        loop = asyncio.get_running_loop()
        if self._owner is not None:
            # The owner settles the groups of clients that left
            # mid-batch, then returns the pool to this thread.
            self._stopping = True
            self._wake()
            await loop.run_in_executor(None, self._owner.join)
            self._wake_r.close()
            self._wake_w.close()
        # Nudge idle keep-alive connections: their handlers see EOF
        # and finish; streamed batch responses already went out.
        for writer in list(self._conns):
            try:
                writer.close()
            except Exception:
                pass
        set_metrics(self._prev_registry)
        if stop_pool:
            await loop.run_in_executor(
                None, functools.partial(pool_shutdown, grace)
            )

    async def __aenter__(self) -> "MappingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def run_until_signalled(
        self, *, grace: float | None = None, ready: Callable | None = None
    ) -> None:
        """Serve until SIGTERM/SIGINT, then drain and stop the pool."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        try:
            if ready is not None:
                ready(self)
            await stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.aclose(stop_pool=True, grace=grace)

    # -- the pool-owner thread -----------------------------------------
    def _own_pool(self) -> None:
        """Drive the pool until told to stop with nothing left open."""
        pool = get_pool(self.jobs)
        self._steals_seen = pool.steals
        try:
            pool.drive(
                lambda: (
                    self._stopping
                    and not pool.open_groups
                    and self._inbox.empty()
                ),
                wake=self._wake_r,
                on_wake=lambda: self._admit(pool),
            )
        except Exception:
            _log.exception("serve: the pool-owner thread failed")

    def _admit(self, pool: WorkerPool) -> None:
        """Owner thread: drain the wake-up socket, then open one group
        per batch waiting in the inbox."""
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass
        while True:
            try:
                prepared, on_settle, on_done = self._inbox.get_nowait()
            except queue.Empty:
                return
            open_batch(
                pool, prepared, jobs=self.jobs, on_settle=on_settle,
                on_done=functools.partial(self._batch_done, pool, on_done),
            )

    def _batch_done(self, pool: WorkerPool, on_done: Callable) -> None:
        """Owner thread: publish the pool's new steals, then let the
        batch's handler finish.  Steals go on the daemon's registry
        only, not on an ambient one, because they are scheduling
        events: a sweep's metric totals must not depend on ``jobs``."""
        self.registry.counter(POOL_STEALS_TOTAL).inc(
            pool.steals - self._steals_seen
        )
        self._steals_seen = pool.steals
        on_done()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except BlockingIOError:
            pass  # the socket is full: the owner has wake-ups pending

    def _submit(
        self,
        prepared: list[Prepared],
        on_settle: Callable[[dict[str, Any]], None],
        on_done: Callable[[], None],
    ) -> None:
        """Hand a validated batch to the pool-owner thread."""
        if self._owner is None or not self._owner.is_alive():
            raise RuntimeError("the pool-owner thread is not running")
        self._inbox.put((prepared, on_settle, on_done))
        self._wake()

    # -- connection handling -------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        send = _sender(writer)
        try:
            first = await self._readline(reader, send)
            if not first:
                return
            if first.lstrip()[:1] in (b"{", b"["):
                await self._serve_ndjson(first, reader, send)
            else:
                await self._serve_http(first, reader, writer, send)
        except (
            ConnectionResetError, BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # loop teardown mid-connection; just close below
        except Exception:
            _log.exception("serve: connection handler failed")
        finally:
            self._conns.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                pass  # already closing; ending non-cancelled keeps
                # asyncio's stream callback from logging the teardown

    async def _readline(
        self, reader: asyncio.StreamReader, send: Send
    ) -> bytes:
        """The next line, or ``b""`` at EOF.  A line past
        ``protocol.MAX_BODY_BYTES`` is answered with a batch error and
        ends the connection (``b""``)."""
        try:
            return await reader.readline()
        except ValueError:  # asyncio's LimitOverrunError, re-raised
            await self._send_batch_error(
                send, "batch",
                f"line exceeds the {protocol.MAX_BODY_BYTES}-byte cap",
            )
            return b""

    async def _serve_ndjson(
        self, first: bytes, reader: asyncio.StreamReader, send: Send
    ) -> None:
        line = first
        while line:
            text = line.strip()
            if text:
                await self._serve_batch_text(text, send)
            line = await self._readline(reader, send)

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        send: Send,
    ) -> None:
        try:
            method, path = protocol.parse_request_line(first)
            headers = await protocol.read_headers(reader)
            if method == "POST" and path == "/map":
                body = await protocol.read_body(reader, headers)
                writer.write(protocol.response_head(
                    200, "OK", content_type="application/x-ndjson"
                ))
                await self._serve_batch_text(body, send)
                return
            if method == "GET" and path == "/metrics":
                writer.write(protocol.simple_response(
                    200, "OK", render_prometheus(self.registry) + "\n"
                ))
                return
            if method == "GET" and path in ("/healthz", "/health"):
                writer.write(protocol.simple_response(200, "OK", "ok\n"))
                return
            writer.write(protocol.simple_response(
                404, "Not Found", f"no route {method} {path}\n"
            ))
        except protocol.HttpError as ex:
            writer.write(protocol.simple_response(
                ex.status, ex.reason, ex.reason + "\n"
            ))
        await writer.drain()

    # -- batch execution -----------------------------------------------
    async def _serve_batch_text(self, raw: bytes, send: Send) -> None:
        """Parse and run one batch; every defect becomes a response."""
        if self._closed:
            await self._send_batch_error(
                send, "batch", "the server is shutting down"
            )
            return
        self._running += 1
        self._idle.clear()
        try:
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as ex:
                await self._send_batch_error(
                    send, "batch", f"not valid JSON: {ex}"
                )
                return
            try:
                await self._run_batch(doc, send)
            except RequestError as ex:  # mis-shaped batch envelope
                await self._send_batch_error(send, ex.field, ex.detail)
        finally:
            self._running -= 1
            if not self._running:
                self._idle.set()

    async def _send_batch_error(
        self, send: Send, field: str, detail: str
    ) -> None:
        self.registry.counter(SERVE_ERRORS_TOTAL).inc()
        await send({
            "ok": False,
            "error": {
                "type": "validation", "field": field, "detail": detail,
            },
        })
        await send({"batch": {
            "requests": 0, "ok": 0, "errors": 1, "deduped": 0,
        }})

    async def _run_batch(self, doc: Any, send: Send) -> None:
        t0 = time.monotonic()
        reg = self.registry
        prepared, bad = validate_batch(
            doc, default_budget=self.default_budget
        )
        reg.counter(SERVE_REQUESTS_TOTAL).inc(len(prepared) + len(bad))
        n_ok, n_err, n_dedup = 0, 0, 0
        for index, rid, ex in bad:
            reg.counter(SERVE_ERRORS_TOTAL).inc()
            n_err += 1
            await send({
                "id": rid,
                "index": index,
                "ok": False,
                "error": {
                    "type": "validation",
                    "field": ex.field,
                    "detail": ex.detail,
                },
            })
        if prepared:
            loop = asyncio.get_running_loop()
            # each response as it settles, then None once the batch's
            # metrics and cache stats are folded
            settled: asyncio.Queue[dict[str, Any] | None] = asyncio.Queue()

            def to_loop(resp: dict[str, Any] | None) -> None:
                loop.call_soon_threadsafe(settled.put_nowait, resp)

            accepted = time.monotonic()
            unsettled = len(prepared)
            reg.gauge(SERVE_INFLIGHT).inc(unsettled)
            try:
                self._submit(prepared, to_loop, lambda: to_loop(None))
                while (resp := await settled.get()) is not None:
                    unsettled -= 1
                    reg.gauge(SERVE_INFLIGHT).dec()
                    reg.histogram(SERVE_REQUEST_LATENCY_MS).observe(
                        1000 * (time.monotonic() - accepted)
                    )
                    if resp.get("ok"):
                        n_ok += 1
                    else:
                        reg.counter(SERVE_ERRORS_TOTAL).inc()
                        n_err += 1
                    if resp.get("deduped"):
                        n_dedup += 1
                    await send(resp)
            finally:
                # a client gone mid-batch leaves the rest unsettled
                reg.gauge(SERVE_INFLIGHT).dec(unsettled)
            reg.counter(SERVE_BATCHES_TOTAL).inc()
        await send({"batch": {
            "requests": len(prepared) + len(bad),
            "ok": n_ok,
            "errors": n_err,
            "deduped": n_dedup,
            "elapsed_ms": round(1000 * (time.monotonic() - t0), 3),
        }})
