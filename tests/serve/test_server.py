"""Live-server behaviour: parity with the in-process facade, caching,
concurrency, ops metrics, and graceful drain."""

import threading

import pytest

from repro import api
from repro._version import __version__
from repro.errors import E_PARSE, E_UNSUPPORTED, RemoteError, UnsupportedRequest
from repro.results import DiagnoseResult
from repro.session import Session
from tests.serve.conftest import example_sources

EXAMPLES = example_sources()
PARITY_STAGES = ("analyze", "diagnostics", "optimized", "dot", "bytecode")

#: option values the stage schema rejects: a value of another type than
#: the default's (a bool is not an int), an unknown pass, a negative count
BAD_OPTIONS = [
    ("optimized", {"passes": "licm"}),
    ("optimized", {"passes": ["nope"]}),
    ("optimized", {"use_mutex": 0}),
    ("analyze", {"prune": "no"}),
    ("audit", {"runs": "3"}),
    ("audit", {"runs": True}),
    ("audit", {"runs": -1}),
    ("dot", {"title": 7}),
]


class TestBasics:
    def test_ping(self, server):
        with server.client() as client:
            pong = client.ping()
        assert pong == {"pong": True, "version": __version__}

    def test_compile_returns_typed_result(self, server):
        with server.client() as client:
            result = client.compile(EXAMPLES["figure1.par"], "diagnostics")
        assert isinstance(result, DiagnoseResult)
        assert result.races

    def test_parse_error_is_a_typed_frame(self, server):
        with server.client() as client:
            with pytest.raises(RemoteError) as info:
                client.compile("lock(L; a = ;", "diagnostics")
        assert info.value.code == E_PARSE
        # The connection (and server) survive the error.
        with server.client() as client:
            assert client.ping()["pong"] is True

    def test_unsupported_stage(self, server):
        with server.client() as client:
            with pytest.raises(RemoteError) as info:
                client.compile("a = 1;", "transmogrify")
        assert info.value.code == E_UNSUPPORTED

    def test_pipelined_requests_on_one_connection(self, server):
        with server.client() as client:
            for _ in range(3):
                assert client.ping()["pong"] is True
            result = client.compile("a = 1; print(a);", "bytecode")
        assert result.artifacts["instructions"] > 0


class TestOptionValidation:
    @pytest.mark.parametrize(
        "stage,options", BAD_OPTIONS, ids=[repr(o) for _, o in BAD_OPTIONS]
    )
    def test_bad_option_value_is_unsupported(self, server, stage, options):
        source = EXAMPLES["figure1.par"]
        with pytest.raises(UnsupportedRequest):
            api.compile_source(source, stage, options)
        with server.client() as client:
            with pytest.raises(RemoteError) as info:
                client.compile(source, stage, options)
        assert info.value.code == E_UNSUPPORTED


class TestGoldenParity:
    def test_server_matches_in_process_facade(self, server):
        """The wire payload is bit-identical to api.compile_source().

        Both sides start from a fresh session and process the same
        (example, stage) sequence in the same order, so even the cache
        provenance must agree.
        """
        local = Session()
        with server.client() as client:
            for name, source in EXAMPLES.items():
                for stage in PARITY_STAGES:
                    expected = api.compile_source(
                        source, stage, session=local
                    ).as_dict()
                    got = client.request(source, stage)
                    assert got["ok"], f"{name}/{stage}: {got.get('error')}"
                    assert got["result"] == expected, f"{name}/{stage}"

    def test_audit_parity(self, server):
        source = EXAMPLES["figure1.par"]
        options = {"runs": 3, "explore": False}
        expected = api.compile_source(
            source, "audit", options, session=Session()
        ).as_dict()
        with server.client() as client:
            result = client.compile(source, "audit", options)
        assert result.as_dict() == expected


class TestCaching:
    def test_second_request_is_warm(self, server):
        source = EXAMPLES["figure2.par"]
        with server.client() as client:
            cold = client.compile(source, "diagnostics")
            warm = client.compile(source, "diagnostics")
        assert cold.provenance.cache_misses > 0
        assert warm.provenance.cache_misses == 0
        assert warm.provenance.cache_hits > 0
        assert cold.artifacts == warm.artifacts

    def test_store_survives_restart(self, serve_factory, tmp_path):
        source = EXAMPLES["figure1.par"]
        store_dir = str(tmp_path / "store")

        first = serve_factory(store_dir=store_dir)
        with first.client() as client:
            cold = client.compile(source, "diagnostics")
        first.stop()
        assert not first.alive

        second = serve_factory(store_dir=store_dir)
        with second.client() as client:
            warm = client.compile(source, "diagnostics")
            ops = client.ops()
        assert warm.provenance.cache_misses == 0
        assert warm.as_dict()["artifacts"] == cold.as_dict()["artifacts"]
        assert ops["store"]["disk_hits"] > 0


class TestOps:
    def test_ops_payload_shape(self, server):
        with server.client() as client:
            client.compile("a = 1; print(a);", "diagnostics")
            ops = client.ops()
        assert ops["version"] == __version__
        assert ops["protocol"] == 1
        assert ops["jobs"] >= 1
        assert ops["queue_depth"] == 0
        assert ops["draining"] is False
        assert ops["requests"]["total"] >= 1
        assert ops["requests"]["ok"] >= 1
        assert "hits" in ops["cache"] and "misses" in ops["cache"]
        stage = ops["stages"]["diagnostics"]
        assert stage["count"] == 1
        for key in ("mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"):
            assert stage[key] >= 0.0

    def test_error_counters(self, server):
        with server.no_retry_client() as client:
            with pytest.raises(RemoteError):
                client.compile("lock(L; a = ;", "diagnostics")
            ops = client.ops()
        assert ops["requests"]["errors"].get("E_PARSE") == 1


class TestConcurrency:
    def test_many_clients_many_files(self, serve_factory):
        server = serve_factory(jobs=4)
        reference = {
            name: api.compile_source(source, "diagnostics").as_dict()["artifacts"]
            for name, source in EXAMPLES.items()
        }
        failures: list[str] = []

        def hammer() -> None:
            try:
                with server.client() as client:
                    for name, source in EXAMPLES.items():
                        result = client.compile(source, "diagnostics")
                        if result.as_dict()["artifacts"] != reference[name]:
                            failures.append(f"mismatch on {name}")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures[:5]
        with server.client() as client:
            ops = client.ops()
        assert ops["requests"]["ok"] >= 8 * len(EXAMPLES)


class TestDrain:
    def test_shutdown_request_drains(self, serve_factory):
        server = serve_factory()
        with server.client() as client:
            assert client.shutdown() == {"draining": True}
        server._thread.join(timeout=15)
        assert not server.alive

    def test_draining_refuses_new_connections(self, serve_factory):
        server = serve_factory()
        host, port = server.host, server.port
        with server.client() as client:
            client.shutdown()
        server._thread.join(timeout=15)
        import socket

        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2).close()
