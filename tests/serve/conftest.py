"""Fixtures for the compile-service suite.

The harness runs a real :class:`CompileServer` on a background thread
bound to an ephemeral port (``port=0``), waits for the ready callback,
and drains it at teardown.  Tests talk to it over real sockets with
:class:`ServeClient` — the same path production traffic takes.
"""

from __future__ import annotations

import contextvars
import threading
from pathlib import Path

import pytest

from repro.serve.client import RetryPolicy, ServeClient
from repro.serve.server import CompileServer

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def example_sources() -> dict[str, str]:
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(EXAMPLES.glob("*.par"))
    }


class ServerHarness:
    """A live server on a daemon thread, stopped by graceful drain.

    The thread runs in a copy of the creator's context, so a server
    built inside ``use_tracer(t)`` records every request into ``t``.
    """

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self.server = CompileServer(**kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(self.server.run, self._on_ready),
            daemon=True,
        )

    def _on_ready(self, host: str, port: int) -> None:
        self._ready.set()

    def start(self) -> "ServerHarness":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("server failed to start within 15s")
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kwargs) -> ServeClient:
        kwargs.setdefault("timeout", 15.0)
        return ServeClient(self.host, self.port, **kwargs)

    def no_retry_client(self, **kwargs) -> ServeClient:
        return self.client(retry=RetryPolicy(attempts=1), **kwargs)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def stop(self) -> None:
        self.server.request_drain_threadsafe()
        self._thread.join(timeout=15)
        if self._thread.is_alive():  # pragma: no cover - a hang is the bug
            raise RuntimeError("server did not drain within 15s")


@pytest.fixture
def serve_factory():
    """Build any number of live servers; all drained at teardown."""
    harnesses: list[ServerHarness] = []

    def make(**kwargs) -> ServerHarness:
        harness = ServerHarness(**kwargs).start()
        harnesses.append(harness)
        return harness

    yield make
    for harness in harnesses:
        if harness.alive:
            harness.stop()


@pytest.fixture
def server(serve_factory):
    """One default live server."""
    return serve_factory()
