"""The live admission server: asyncio transport + deterministic merge.

:class:`AdmissionServer` listens on a TCP socket, speaks the framed
protocol of :mod:`repro.serve.protocol`, and drives exactly one backend
(:mod:`repro.serve.backend`).  All simulation work happens on a single
dispatcher task, so concurrency never races the simulation itself — the
interesting problem is *ordering*: when several clients submit tasks
concurrently, which submission does the backend see first?

Watermark merge
---------------
Each connection's requests form a strict FIFO queue.  A connection with
an *open stream* (explicit ``stream_open``, or implicit on its first
``submit``) is a declared submitter.  The dispatcher repeats two steps:

1. **Control first** — any non-``submit`` request at the head of any
   queue is handled immediately (probe / status / cancel never wait on
   the barrier).
2. **Barrier merge** — a ``submit`` dispatches only when *every* open
   stream has a ``submit`` at its head (or has ended); among the heads,
   the one with the smallest ``(arrival, task_id)`` wins.

Submissions released at the same watermark are **coalesced**: once the
barrier holds, the dispatcher keeps popping the smallest head for as
long as every open stream still shows a ``submit`` at its head, and
hands the whole run to the backend as one ``submit_many`` pass.  The
batch boundary is exactly where the serial loop would have stopped
submitting (a control surfaced, or a queue ran dry), so the merged
order — and therefore every decision — is identical to one-at-a-time
dispatch; what coalescing saves is the per-submit barrier re-scan and
one response write+drain per request (batched frames, one drain per
connection per batch).

The merged submission order therefore depends only on the tasks
themselves, never on network timing — N clients replaying disjoint
shards of a trace produce the exact submission sequence of one client
replaying the whole trace, which is what makes the loopback guarantee
hold under concurrency (``tests/test_serve.py`` asserts it).  The cost
is a liveness obligation: an open stream that stops submitting without
``stream_end`` stalls every other submitter (disconnecting releases the
barrier too, discarding the connection's unprocessed requests).

``--once`` mode (the replay harness) stops the server after the first
successful ``finalize``; a ``shutdown`` request stops it on demand.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from collections import deque
from time import perf_counter
from typing import Any

from repro.core.errors import InvalidParameterError, ReproError
from repro.obs import Observability, merge_snapshots, render_prometheus
from repro.obs.metrics import LATENCY_BUCKETS
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ServiceProtocolError,
    available_codecs,
    decode_payload,
    decode_task,
    encode_frame,
)

__all__ = ["AdmissionServer", "BackgroundServer"]

_HEADER_SIZE = 5  # codec byte + 4-byte length

#: Bucket bounds for the coalesced-batch-size histogram (batch sizes are
#: small integers; the top bucket catches wide-open 16-client barriers).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def _error_frame(seq: Any, exc: Exception) -> dict[str, Any]:
    """The response to a request that failed with ``exc``."""
    return {
        "seq": seq,
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
    }


class _Connection:
    """Per-connection state: FIFO request queue, codec, stream flag."""

    __slots__ = ("queue", "writer", "codec", "stream_open", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.queue: deque[dict[str, Any]] = deque()
        self.writer = writer
        self.codec = "json"
        self.stream_open = False
        self.closed = False


class AdmissionServer:
    """One backend served over TCP with deterministic submission merging.

    Parameters
    ----------
    backend:
        A :class:`~repro.serve.backend.ClusterBackend` or
        :class:`~repro.serve.backend.FleetBackend`.
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`address` after :meth:`start`).
    once:
        Stop the server after the first successful ``finalize`` — the
        replay harness's fire-and-forget mode.
    obs:
        Optional :class:`repro.obs.Observability` bundle for the server
        itself (request counters per op, wall-clock request latency, and
        — when its tracer is set — request-lifecycle spans).  Distinct
        from the backend's simulation registry; the ``metrics`` op and
        the Prometheus endpoint merge both.
    metrics_port:
        When given, additionally serve the merged registry snapshot in
        Prometheus text exposition format over plain HTTP on this port
        (``GET`` anything; port ``0`` picks an ephemeral one, read back
        from :attr:`metrics_address`).
    """

    def __init__(
        self,
        backend: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        once: bool = False,
        obs: Observability | None = None,
        metrics_port: int | None = None,
    ) -> None:
        self.backend = backend
        self.host = host
        self.port = port
        self.once = once
        self.obs = obs if obs is not None else Observability()
        self.metrics_port = metrics_port
        self._latency = self.obs.registry.histogram(
            "serve_request_seconds",
            LATENCY_BUCKETS,
            "Wall-clock time spent handling each request.",
            wall=True,
        )
        self._batch_sizes = self.obs.registry.histogram(
            "serve_coalesced_batch_size",
            _BATCH_SIZE_BUCKETS,
            "Submissions dispatched per coalesced backend pass.",
            wall=True,
        )
        #: Per-op request counters, resolved once — the get-or-create
        #: registry lookup (name mangling + type check) is too slow for
        #: the per-submit hot path.
        self._op_counters: dict[str, Any] = {}
        #: Monotone logical clock for serve-side trace timestamps (the
        #: service has no simulation clock of its own).
        self._trace_clock = 0
        self._conns: list[_Connection] = []
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._stopping = False
        self._server: asyncio.base_events.Server | None = None
        self._metrics_server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        #: The backend exception that stopped the server, if any.
        self.failure: Exception | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None:
            raise InvalidParameterError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def metrics_address(self) -> tuple[str, int] | None:
        """The Prometheus endpoint's ``(host, port)``; ``None`` when off."""
        if self._metrics_server is None:
            return None
        sock = self._metrics_server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> None:
        """Bind the listening socket and launch the dispatcher task."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http, self.host, self.metrics_port
            )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def wait_closed(self) -> None:
        """Block until the server has fully stopped."""
        await self._stopped.wait()

    def request_stop(self) -> None:
        """Ask the dispatcher to shut the server down (idempotent)."""
        self._stopping = True
        self._wake.set()

    # -- connection reader --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read frames into the connection's FIFO queue until EOF.

        A header announcing more than ``MAX_FRAME_BYTES`` gets an error
        frame and ends the connection before any of its payload is read,
        so one bad header cannot make the server buffer gigabytes.
        """
        conn = _Connection(writer)
        self._conns.append(conn)
        try:
            while not self._stopping:
                try:
                    header = await reader.readexactly(_HEADER_SIZE)
                except asyncio.IncompleteReadError:
                    break
                length = int.from_bytes(header[1:5], "big")
                if length > MAX_FRAME_BYTES:
                    await self._send_error(
                        conn,
                        None,
                        ServiceProtocolError(
                            f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte cap; closing the connection"
                        ),
                    )
                    break
                payload = await reader.readexactly(length)
                try:
                    message = decode_payload(header[0], payload)
                    if message.get("op") == "submit":
                        # Decode eagerly: the merge needs (arrival, id)
                        # before dispatch, and a malformed task must not
                        # poison the queue.
                        message["task"] = decode_task(message.get("task", {}))
                except ReproError as exc:
                    await self._send_error(conn, None, exc)
                    continue
                conn.queue.append(message)
                if self.obs.tracer is not None:
                    # Decode done, dispatch pending: the gap between this
                    # event and the request's span is the barrier wait.
                    self._trace_clock += 1
                    self.obs.tracer.event(
                        "serve.enqueued",
                        "serve",
                        float(self._trace_clock),
                        op=message.get("op"),
                        seq=message.get("seq"),
                    )
                self._wake.set()
        except (ConnectionError, OSError):  # pragma: no cover - peer races
            pass
        finally:
            conn.closed = True
            conn.stream_open = False
            conn.queue.clear()  # unprocessed requests die with the peer
            self._wake.set()
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _write(self, conn: _Connection, message: dict[str, Any]) -> None:
        """Buffer one response frame (no-op once the peer is gone)."""
        if conn.closed:
            return
        try:
            conn.writer.write(encode_frame(message, conn.codec))
        except (ConnectionError, OSError):  # pragma: no cover - peer races
            conn.closed = True

    async def _flush(self, conn: _Connection) -> None:
        """Drain a connection's buffered frames to the transport."""
        if conn.closed:
            return
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer races
            conn.closed = True

    async def _send(self, conn: _Connection, message: dict[str, Any]) -> None:
        """Write one response frame and drain it immediately."""
        self._write(conn, message)
        await self._flush(conn)

    # -- dispatcher ---------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Single-task event loop: control first, then the barrier merge."""
        try:
            while not self._stopping:
                self._wake.clear()
                progressed = await self._drain_ready()
                if self._stopping:
                    break
                if not progressed:
                    await self._wake.wait()
        finally:
            await self._shutdown()

    async def _drain_ready(self) -> bool:
        """Process everything currently dispatchable; report progress."""
        progressed = False
        while not self._stopping:
            did = False
            for conn in list(self._conns):
                if conn.closed:
                    self._conns.remove(conn)
                    did = True
                    continue
                while (
                    conn.queue
                    and conn.queue[0].get("op") != "submit"
                    and not self._stopping
                ):
                    await self._handle_control(conn, conn.queue.popleft())
                    did = True
            if self._stopping:
                return True
            # Implicit stream open: a submit reaching its queue head
            # declares the connection a submitter.
            for conn in self._conns:
                if conn.queue and conn.queue[0].get("op") == "submit":
                    conn.stream_open = True
            open_conns = [c for c in self._conns if c.stream_open]
            heads = [
                c
                for c in open_conns
                if c.queue and c.queue[0].get("op") == "submit"
            ]
            if open_conns and len(heads) == len(open_conns):
                # Coalesce: keep popping the smallest head while every
                # open stream still has a submit at its head — exactly
                # the run of submissions the serial loop would dispatch
                # back to back, in the identical merged order.  A heap
                # over the heads makes each pop O(log clients); the index
                # tie-breaker can never decide a winner ((arrival,
                # task_id) keys are unique) — it only keeps the heap from
                # ever comparing two _Connection objects.
                merge: list[tuple[float, int, int, _Connection]] = []
                for index, conn in enumerate(heads):
                    task = conn.queue[0]["task"]
                    merge.append((task.arrival, task.task_id, index, conn))
                heapq.heapify(merge)
                batch: list[tuple[_Connection, dict[str, Any]]] = []
                while True:
                    _, _, index, conn = merge[0]
                    batch.append((conn, conn.queue.popleft()))
                    head = conn.queue[0] if conn.queue else None
                    if head is None or head.get("op") != "submit":
                        break
                    task = head["task"]
                    heapq.heapreplace(
                        merge, (task.arrival, task.task_id, index, conn)
                    )
                await self._handle_submit_batch(batch)
                did = True
            if not did:
                return progressed
            progressed = True
        return progressed

    def merged_metrics(self) -> dict[str, Any]:
        """One flat snapshot: backend simulation metrics plus the server's.

        This is what the ``metrics`` op returns and what the Prometheus
        endpoint renders — the backend's live registry (the same
        instruments an offline run snapshots onto its summary) merged
        with the server's request counters and latency histogram.
        """
        return merge_snapshots(
            [
                self.backend.metrics(),
                self.obs.registry.snapshot(include_wall=True),
            ]
        )

    def _finish_request(self, op: str, started: float) -> None:
        """Count one handled request and record its wall-clock latency."""
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self.obs.registry.counter(
                "serve_requests_total",
                "Requests handled, by operation.",
                labels={"op": op},
            )
            self._op_counters[op] = counter
        counter.inc()
        self._latency.observe(perf_counter() - started)

    async def _handle_submit_batch(
        self, batch: list[tuple[_Connection, dict[str, Any]]]
    ) -> None:
        """Run one coalesced run of merged submissions through the backend.

        The batch is already in merged ``(arrival, task_id)`` order; the
        backend applies each submission with the identical per-task step
        serial dispatch used, so decisions are unchanged.  Responses are
        buffered per connection and drained once per connection — the
        other half of the coalescing win.
        """
        started = perf_counter()
        tracer = self.obs.tracer
        self._trace_clock += 1
        tasks = [request["task"] for _conn, request in batch]
        if tracer is None:
            results = self.backend.submit_many(tasks)
        else:
            with tracer.span(
                "serve.submit_batch",
                "serve",
                float(self._trace_clock),
                size=len(batch),
                first_task=tasks[0].task_id,
            ):
                results = self.backend.submit_many(tasks)
        self._batch_sizes.observe(float(len(batch)))
        pending: list[_Connection] = []
        for (conn, request), result in zip(batch, results):
            seq = request.get("seq")
            self._finish_request("submit", started)
            if isinstance(result, Exception):
                message = _error_frame(seq, result)
            else:
                message = {"seq": seq, "ok": True, **result}
            self._write(conn, message)
            if conn not in pending:
                pending.append(conn)
        failure = results[-1]
        if isinstance(failure, Exception) and not isinstance(failure, ReproError):
            self._fail_stop(failure, batch[len(results):])
            pending = list(self._conns)
        for conn in pending:
            await self._flush(conn)

    def _fail_stop(
        self,
        exc: Exception,
        unanswered: list[tuple[_Connection, dict[str, Any]]],
    ) -> None:
        """Answer everything still pending with ``exc``, then stop.

        The backend raised something other than a :class:`ReproError`, so
        its state can no longer be trusted.  The popped but unapplied
        rest of the batch and every request still queued on any
        connection get an error frame naming the exception's class, and
        the server shuts down; :attr:`failure` keeps the exception.
        """
        self.failure = exc
        for conn, request in unanswered:
            self._write(conn, _error_frame(request.get("seq"), exc))
        for conn in self._conns:
            while conn.queue:
                request = conn.queue.popleft()
                self._write(conn, _error_frame(request.get("seq"), exc))
        self.request_stop()

    async def _handle_control(
        self, conn: _Connection, request: dict[str, Any]
    ) -> None:
        """Handle one non-submit request at a queue head."""
        seq = request.get("seq")
        op = request.get("op")
        started = perf_counter()
        tracer = self.obs.tracer
        self._trace_clock += 1
        span = None
        if tracer is not None:
            span = tracer.span(
                "serve.control", "serve", float(self._trace_clock), op=op, seq=seq
            )
            span.__enter__()
        try:
            if op == "hello":
                wanted = request.get("codec")
                if wanted in available_codecs():
                    conn.codec = wanted
                await self._send(
                    conn,
                    {
                        "seq": seq,
                        "ok": True,
                        "protocol": PROTOCOL_VERSION,
                        "codec": conn.codec,
                        "codecs": list(available_codecs()),
                        "server": self.backend.describe(),
                    },
                )
            elif op == "stream_open":
                conn.stream_open = True
                await self._send(conn, {"seq": seq, "ok": True})
            elif op == "stream_end":
                conn.stream_open = False
                await self._send(conn, {"seq": seq, "ok": True})
            elif op == "probe":
                result = self.backend.probe(decode_task(request.get("task", {})))
                await self._send(conn, {"seq": seq, "ok": True, **result})
            elif op == "status":
                task_id = request.get("task_id")
                status = (
                    self.backend.snapshot()
                    if task_id is None
                    else self.backend.task_status(int(task_id))
                )
                await self._send(conn, {"seq": seq, "ok": True, "status": status})
            elif op == "cancel":
                cancelled = self.backend.cancel(int(request["task_id"]))
                await self._send(
                    conn, {"seq": seq, "ok": True, "cancelled": cancelled}
                )
            elif op == "finalize":
                open_streams = sum(1 for c in self._conns if c.stream_open)
                if open_streams:
                    raise InvalidParameterError(
                        f"cannot finalize with {open_streams} stream(s) still "
                        "open; every submitter must stream_end first"
                    )
                result = self.backend.finalize()
                await self._send(
                    conn, {"seq": seq, "ok": True, "result": result}
                )
                if self.once:
                    self.request_stop()
            elif op == "metrics":
                await self._send(
                    conn,
                    {"seq": seq, "ok": True, "metrics": self.merged_metrics()},
                )
            elif op == "shutdown":
                await self._send(conn, {"seq": seq, "ok": True})
                self.request_stop()
            else:
                raise InvalidParameterError(f"unknown op {op!r}")
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            await self._send_error(conn, seq, exc)
        finally:
            if span is not None:
                span.__exit__(None, None, None)
            self._finish_request(str(op), started)

    async def _send_error(
        self, conn: _Connection, seq: Any, exc: Exception
    ) -> None:
        """Report a failed request without dropping the connection."""
        await self._send(conn, _error_frame(seq, exc))

    # -- metrics endpoint ---------------------------------------------------
    async def _handle_metrics_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one Prometheus scrape (one HTTP/1.0 response, then close).

        The handler runs on the same event loop as the dispatcher, so it
        reads the backend's registries between dispatch steps — never
        mid-submission.
        """
        try:
            while True:  # consume the request line + headers
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_prometheus(self.merged_metrics()).encode()
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - peer races
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    async def _shutdown(self) -> None:
        """Close every connection and the listening socket."""
        for conn in self._conns:
            conn.closed = True
            try:
                conn.writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._conns.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        self._stopped.set()


class BackgroundServer:
    """Run an :class:`AdmissionServer` on a daemon thread.

    The in-process harness the tests and the decisions/sec benchmark use:
    the server gets its own event loop on its own thread, the caller gets
    a bound address to point synchronous clients at, and ``stop()`` (or
    leaving the context manager) tears everything down::

        with BackgroundServer(backend) as bg:
            client = AdmissionClient(*bg.address)
            ...
    """

    def __init__(
        self,
        backend: Any,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        obs: Observability | None = None,
        metrics_port: int | None = None,
    ) -> None:
        self._backend = backend
        self._host = host
        self._port = port
        self._obs = obs
        self._metrics_port = metrics_port
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: AdmissionServer | None = None
        self._startup_error: BaseException | None = None
        self.address: tuple[str, int] = ("", 0)
        #: Bound Prometheus endpoint address (set when ``metrics_port``
        #: was requested).
        self.metrics_address: tuple[str, int] | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "BackgroundServer":
        """Start the server thread and wait for the bound address."""
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise InvalidParameterError("background server failed to start")
        if self._startup_error is not None:
            raise InvalidParameterError(
                f"background server failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Stop the server and join its thread."""
        self.stop()

    def stop(self) -> None:
        """Request shutdown and wait for the server thread to finish."""
        if self._loop is not None and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._server.request_stop)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread.is_alive():
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        """Thread body: own event loop, serve until stopped."""
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup races
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        """Start the server, publish the address, serve until stopped."""
        self._loop = asyncio.get_running_loop()
        self._server = AdmissionServer(
            self._backend,
            host=self._host,
            port=self._port,
            obs=self._obs,
            metrics_port=self._metrics_port,
        )
        await self._server.start()
        self.address = self._server.address
        if self._metrics_port is not None:
            self.metrics_address = self._server.metrics_address
        self._ready.set()
        await self._server.wait_closed()
