"""Concurrent requests keep their own accounting.

The ambient tracer is context-local, so requests that overlap — threads
calling :func:`repro.api.compile_source` in process, or pool workers of
a :class:`~repro.serve.server.CompileServer` — never record into each
other's tracers: each payload, ``work`` and ``provenance`` included,
equals the serial one.  An ambient tracer the server was started under
still receives every request's capture.
"""

import threading

from repro import api
from repro.obs.prof import total_work, work_counters
from repro.obs.trace import Tracer, use_tracer
from repro.synth import GeneratorConfig, generate_source

#: three distinct generated programs, large enough that their journeys
#: overlap when started together
SOURCES = [
    generate_source(
        GeneratorConfig(
            seed=s,
            n_threads=2,
            stmts_per_thread=s,
            n_shared=6,
            n_locks=2,
            p_critical=0.6,
            p_if=0.2,
        )
    )
    for s in (12, 14, 16)
]
STAGE = "optimized"


def _serial() -> list[dict]:
    return [api.compile_source(source, STAGE).as_dict() for source in SOURCES]


def _together(call) -> list:
    """Run ``call(i)`` for every source on its own thread, all released
    at once; returns the results in source order."""
    barrier = threading.Barrier(len(SOURCES))
    results: list = [None] * len(SOURCES)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            results[index] = call(index)
        except BaseException as exc:  # surfaced by the caller's assert
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(len(SOURCES))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    return results


def test_concurrent_in_process_payloads_equal_serial():
    expected = _serial()
    got = _together(
        lambda i: api.compile_source(SOURCES[i], STAGE).as_dict()
    )
    for payload, reference in zip(got, expected):
        assert payload["work"] == reference["work"]
        assert payload["provenance"] == reference["provenance"]
        assert payload == reference


def test_concurrent_wire_payloads_equal_in_process(serve_factory):
    expected = _serial()
    harness = serve_factory(jobs=2)

    def request(index: int) -> dict:
        with harness.client() as client:
            return client.request(SOURCES[index], STAGE)

    for response, reference in zip(_together(request), expected):
        assert response["ok"], response
        assert response["result"]["work"] == reference["work"]
        assert response["result"] == reference


def test_server_started_under_a_tracer_receives_every_capture(serve_factory):
    tracer = Tracer()
    with use_tracer(tracer):
        harness = serve_factory(jobs=2)

    def request(index: int) -> dict:
        with harness.client() as client:
            return client.request(SOURCES[index], STAGE)

    responses = _together(request)
    assert all(r["ok"] for r in responses), responses
    wire_work = sum(sum(r["result"]["work"].values()) for r in responses)
    assert wire_work > 0
    assert total_work(work_counters(tracer)) == wire_work
