"""SERVE — the compile service's performance claims, quantified.

Two numbers justify ``repro.serve``'s existence:

1. **The persistent store beats recomputation.**  A *store-warm*
   request — a fresh process whose memory cache is empty but whose
   disk store holds the artifacts — must be at least 2× faster than a
   *cold* single-shot facade call that recomputes the whole stage
   journey.  This is the restart story: a redeployed server answers
   its first request from disk, not from the parser up.
2. **The wire costs little.**  A warm request through a real TCP
   round trip (client → server → worker pool → back) is measured
   against the same warm request in-process; the overhead is reported
   (and sanity-bounded, loosely — CI machines jitter).
"""

import os
import tempfile
import threading

from repro import api
from repro.bench import register
from repro.serve.client import ServeClient
from repro.serve.server import CompileServer
from repro.serve.store import PersistentStore
from repro.session import Session

from benchmarks.common import FIGURE_CORPUS, best_of

#: the measured journey: every figure through diagnostics + optimized
_STAGES = ("diagnostics", "optimized")


def _journey(session: Session) -> None:
    for source in FIGURE_CORPUS.values():
        for stage in _STAGES:
            result = api.compile_source(source, stage, session=session)
            assert result.stage == stage


def measure_store(store_dir: str) -> dict:
    """Cold recompute vs store-warm (fresh memory, warm disk)."""

    def cold() -> None:
        _journey(Session())

    cold_s = best_of(cold)

    # Populate the store once, then measure with a fresh memory tier
    # per run — exactly what a restarted server sees.
    _journey(Session(cache=PersistentStore(store_dir)))

    def store_warm() -> None:
        _journey(Session(cache=PersistentStore(store_dir)))

    warm_s = best_of(store_warm)
    return {
        "cold_ms": round(cold_s * 1e3, 3),
        "store_warm_ms": round(warm_s * 1e3, 3),
        "speedup": round(cold_s / warm_s, 2),
    }


def measure_wire(store_dir: str) -> dict:
    """Warm in-process vs warm over a real TCP round trip."""
    server = CompileServer(port=0, store_dir=store_dir, jobs=2)
    ready = threading.Event()
    thread = threading.Thread(
        target=server.run, args=(lambda h, p: ready.set(),), daemon=True
    )
    thread.start()
    assert ready.wait(timeout=15)
    try:
        with ServeClient(server.host, server.port, timeout=15.0) as client:
            _journey_wire(client)  # warm the server's memory tier

            def wire() -> None:
                _journey_wire(client)

            wire_s = best_of(wire)
            ops = client.ops()
    finally:
        server.request_drain_threadsafe()
        thread.join(timeout=15)

    warm_session = Session(cache=PersistentStore(store_dir))
    _journey(warm_session)

    def inproc() -> None:
        _journey(warm_session)

    inproc_s = best_of(inproc)
    requests = len(FIGURE_CORPUS) * len(_STAGES)
    return {
        "warm_inproc_ms": round(inproc_s * 1e3, 3),
        "warm_wire_ms": round(wire_s * 1e3, 3),
        "wire_overhead_ms_per_request": round(
            (wire_s - inproc_s) * 1e3 / requests, 3
        ),
        "server_stage_p50_ms": {
            stage: stats["p50_ms"] for stage, stats in ops["stages"].items()
        },
        "server_requests_ok": ops["requests"]["ok"],
    }


def _journey_wire(client: ServeClient) -> None:
    for source in FIGURE_CORPUS.values():
        for stage in _STAGES:
            result = client.compile(source, stage)
            assert result.stage == stage


@register(
    "serve",
    group="fast",
    repeat=1,
    summary="compile service: store-warm vs cold latency, wire overhead",
)
def bench_serve() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store = measure_store(os.path.join(tmp, "store"))
        wire = measure_wire(os.path.join(tmp, "store"))

    # The acceptance bar: a store-warm request beats cold recompute 2×.
    assert store["speedup"] >= 2.0, (
        f"persistent store speedup {store['speedup']}x < 2x "
        f"(cold {store['cold_ms']}ms, warm {store['store_warm_ms']}ms)"
    )
    assert wire["server_requests_ok"] >= 2 * len(FIGURE_CORPUS) * len(_STAGES)
    return {"store": store, "wire": wire}

