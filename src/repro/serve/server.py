"""The asyncio compile server.

One :class:`CompileServer` owns:

* a shared, thread-safe :class:`~repro.session.session.Session` whose
  artifact cache is (optionally) a
  :class:`~repro.serve.store.PersistentStore`, so every request
  amortizes every previous request — across restarts;
* a bounded ``ThreadPoolExecutor`` of ``jobs`` workers that runs the
  actual stage computation (the pipeline is pure-Python CPU work; the
  event loop only parses frames and shuffles bytes);
* **backpressure**: at most ``queue_limit`` compile requests may be in
  flight; the next one is answered *immediately* with a typed
  ``E_OVERLOADED`` frame — the server never builds an unbounded queue
  and never silently stalls a client;
* **deadlines**: a compile request that exceeds ``deadline_ms`` gets a
  typed ``E_TIMEOUT`` frame.  The worker thread cannot be killed
  mid-computation, but its slot stays accounted until it finishes, so
  backpressure stays honest; a request still queued is cancelled
  outright;
* **cancellation**: when a client disconnects, its outstanding requests
  are cancelled (queued work is dropped; running work is abandoned and
  its result discarded);
* **graceful drain**: SIGTERM (or a ``shutdown`` request) stops
  accepting connections, answers new compile requests on existing
  connections with ``E_SHUTDOWN``, completes every in-flight request,
  then exits.  No request is ever dropped without a response frame.

Failure contract: *every* outcome of a request is a frame — a typed
result or a typed error.  A worker exception becomes an ``E_INTERNAL``
(or more specific taxonomy) frame, never a hung socket, and a result
whose frame would exceed ``MAX_FRAME_BYTES`` an ``E_PROTOCOL`` frame.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import signal
from typing import Callable, Optional

from repro._version import __version__
from repro.errors import (
    DeadlineExceeded,
    OverloadedError,
    ProtocolError,
    ShuttingDown,
    error_code,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.protocol import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    validate_request,
)
from repro.serve.store import PersistentStore
from repro.session.session import Session

__all__ = ["CompileServer", "default_worker"]


def default_worker(
    session: Session, stage: str, source: str, options: dict
) -> dict:
    """Compute one compile request's wire payload (runs on a pool thread).

    Delegates to the typed facade, so a server response is bit-identical
    to the in-process ``api.compile_source(...).as_dict()``.
    """
    from repro import api

    return api.compile_source(source, stage, options, session=session).as_dict()


class CompileServer:
    """JSON-lines-over-TCP compile service over the Session stage graph.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (``self.port``
        holds the real one after :meth:`start`).
    jobs:
        Worker threads for stage computation (default: CPU count,
        capped at 8).
    store_dir:
        Directory for the persistent artifact store; ``None`` keeps the
        cache in memory only (it then dies with the process).
    deadline_ms:
        Per-request stage deadline; ``None`` disables deadlines.
    queue_limit:
        In-flight compile-request cap (default ``4 × jobs``); beyond it
        requests are refused with ``E_OVERLOADED``.
    max_entries:
        Memory-tier LRU bound of the artifact cache.
    session, worker:
        Injection points for tests: a pre-built session, and/or a
        replacement for :func:`default_worker` (fault injection).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        jobs: Optional[int] = None,
        store_dir: Optional[str] = None,
        deadline_ms: Optional[float] = 30_000.0,
        queue_limit: Optional[int] = None,
        max_entries: Optional[int] = None,
        session: Optional[Session] = None,
        worker: Optional[Callable[[Session, str, str, dict], dict]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.jobs = jobs if jobs is not None else min(8, os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.deadline_ms = deadline_ms
        self.queue_limit = (
            queue_limit if queue_limit is not None else 4 * self.jobs
        )
        self.store: Optional[PersistentStore] = None
        if session is not None:
            self.session = session
            if isinstance(session.cache, PersistentStore):
                self.store = session.cache
        else:
            if store_dir is not None:
                self.store = PersistentStore(store_dir, max_entries=max_entries)
                self.session = Session(cache=self.store)
            else:
                self.session = Session(max_entries=max_entries)
        self.worker = worker if worker is not None else default_worker
        self.metrics = MetricsRegistry()

        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.jobs, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight = 0
        self._request_tasks: set = set()
        self._writers: set = set()
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self._started_at = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the (host, port) bound."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._started_at = self._loop.time()
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=MAX_FRAME_BYTES + 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def run_async(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> None:
        """Start, install signal handlers, and serve until drained."""
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        if ready is not None:
            ready(self.host, self.port)
        await self._drained.wait()

    def run(self, ready: Optional[Callable[[str, int], None]] = None) -> int:
        """Blocking entry point (what ``repro serve`` calls)."""
        asyncio.run(self.run_async(ready))
        return 0

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; callable from the loop)."""
        if self._loop is None:
            return
        asyncio.ensure_future(self.drain())

    def request_drain_threadsafe(self) -> None:
        """Begin a graceful drain from any thread (test harnesses)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_drain)

    async def drain(self) -> None:
        """Stop accepting, finish in-flight requests, release resources."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests run to completion and get their frames.
        while self._request_tasks:
            await asyncio.gather(
                *list(self._request_tasks), return_exceptions=True
            )
        # Abandoned (timed-out) workers may still be running; don't wait
        # on them — their results are already discarded.
        self._executor.shutdown(wait=False, cancel_futures=True)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:  # pragma: no cover - best-effort close
                pass
        self._drained.set()

    @property
    def draining(self) -> bool:
        return self._draining

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        own_tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break  # client closed its end
                task = asyncio.create_task(self._handle_line(line, writer))
                for book in (own_tasks, self._request_tasks):
                    book.add(task)
                    task.add_done_callback(book.discard)
        finally:
            # Client gone: cancel whatever it was still waiting for.
            for task in list(own_tasks):
                task.cancel()
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # pragma: no cover - peer already reset
                pass

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        await self._write(writer, encode_frame(frame))

    async def _write(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass  # client vanished between compute and reply

    async def _send_ok(
        self, writer: asyncio.StreamWriter, request_id, result: dict, t0: float
    ) -> None:
        """Count and send an ok response.  A reply over the frame cap
        becomes an ``E_PROTOCOL`` error frame instead: no client could
        read it."""
        elapsed_ms = (self._loop.time() - t0) * 1e3
        data = encode_frame(ok_response(request_id, result, elapsed_ms))
        if len(data) > MAX_FRAME_BYTES:
            exc = ProtocolError(
                f"reply of {len(data)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame cap"
            )
            self._count(ok=False, exc=exc)
            await self._send(writer, error_response(request_id, exc, elapsed_ms))
            return
        self._count(ok=True)
        await self._write(writer, data)

    def _count(self, ok: bool, exc: Optional[BaseException] = None) -> None:
        self.metrics.counter("serve.requests").inc()
        if ok:
            self.metrics.counter("serve.ok").inc()
        else:
            code = error_code(exc) if exc is not None else "E_INTERNAL"
            self.metrics.counter(f"serve.errors.{code}").inc()

    async def _handle_line(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        t0 = self._loop.time()
        request_id = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            request = validate_request(frame)
        except ProtocolError as exc:
            self._count(ok=False, exc=exc)
            await self._send(writer, error_response(request_id, exc))
            return

        kind = request["kind"]
        if kind == "ping":
            await self._send_ok(
                writer, request_id, {"pong": True, "version": __version__}, t0
            )
        elif kind == "ops":
            await self._send_ok(writer, request_id, self.ops_payload(), t0)
        elif kind == "shutdown":
            await self._send_ok(writer, request_id, {"draining": True}, t0)
            self.request_drain()
        else:
            await self._handle_compile(request, writer, t0)

    async def _handle_compile(
        self, request: dict, writer: asyncio.StreamWriter, t0: float
    ) -> None:
        request_id = request["id"]
        stage = request["stage"]
        if self._draining:
            exc = ShuttingDown()
            self._count(ok=False, exc=exc)
            await self._send(writer, error_response(request_id, exc))
            return
        if self._inflight >= self.queue_limit:
            exc = OverloadedError(self._inflight, self.queue_limit)
            self._count(ok=False, exc=exc)
            await self._send(writer, error_response(request_id, exc))
            return

        self._inflight += 1
        future = self._loop.run_in_executor(
            self._executor,
            self.worker,
            self.session,
            stage,
            request["source"],
            request["options"],
        )
        future.add_done_callback(self._work_finished)
        timeout = None if self.deadline_ms is None else self.deadline_ms / 1e3
        try:
            payload = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            future.cancel()  # drops it if still queued; else abandons
            exc = DeadlineExceeded(stage, self.deadline_ms)
            self._count(ok=False, exc=exc)
            await self._send(
                writer,
                error_response(
                    request_id, exc, (self._loop.time() - t0) * 1e3
                ),
            )
            return
        except asyncio.CancelledError:
            future.cancel()
            raise
        except Exception as exc:  # worker raised: typed frame, not a hang
            self._count(ok=False, exc=exc)
            await self._send(
                writer,
                error_response(
                    request_id, exc, (self._loop.time() - t0) * 1e3
                ),
            )
            return
        self.metrics.histogram(f"serve.stage.{stage}.ms").observe(
            (self._loop.time() - t0) * 1e3
        )
        await self._send_ok(writer, request_id, payload, t0)

    def _work_finished(self, future) -> None:
        """Executor-future bookkeeping (runs on the event loop)."""
        self._inflight -= 1
        if not future.cancelled():
            future.exception()  # consume, so abandoned failures don't warn

    # -- health / metrics ----------------------------------------------------

    def ops_payload(self) -> dict:
        """The ``ops`` response: health, queue, cache, store, latencies."""
        counters = self.metrics.counters
        errors = {
            name[len("serve.errors."):]: counter.value
            for name, counter in sorted(counters.items())
            if name.startswith("serve.errors.")
        }
        stages = {}
        prefix, suffix = "serve.stage.", ".ms"
        for name, hist in sorted(self.metrics.histograms.items()):
            if name.startswith(prefix) and name.endswith(suffix):
                summary = hist.summary()
                stages[name[len(prefix):-len(suffix)]] = {
                    "count": summary["count"],
                    "mean_ms": round(summary["mean"], 3),
                    "p50_ms": round(summary["p50"], 3),
                    "p90_ms": round(summary["p90"], 3),
                    "p99_ms": round(summary["p99"], 3),
                    "max_ms": round(summary["max"], 3),
                }
        uptime_ms = 0.0
        if self._loop is not None:
            uptime_ms = (self._loop.time() - self._started_at) * 1e3
        total = counters["serve.requests"].value if "serve.requests" in counters else 0
        ok = counters["serve.ok"].value if "serve.ok" in counters else 0
        return {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_ms": round(uptime_ms, 3),
            "jobs": self.jobs,
            "queue_depth": self._inflight,
            "queue_limit": self.queue_limit,
            "draining": self._draining,
            "deadline_ms": self.deadline_ms,
            "requests": {"total": total, "ok": ok, "errors": errors},
            "cache": self.session.cache_stats().as_dict(),
            "store": (
                self.store.store_stats.as_dict()
                if self.store is not None
                else None
            ),
            "stages": stages,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CompileServer({self.host}:{self.port}, jobs={self.jobs}, "
            f"inflight={self._inflight}, draining={self._draining})"
        )
