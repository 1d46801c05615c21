"""Fault injection: every failure becomes a typed frame, never a hang.

The ``worker=`` injection point of :class:`CompileServer` lets these
tests script the stage computation — crash it, stall it, or gate it on
an event — while the protocol, backpressure, deadline, and drain
machinery under test is the real production code.
"""

import threading
import time

import pytest

from repro.errors import (
    E_INTERNAL,
    E_OVERLOADED,
    E_PROTOCOL,
    E_SHUTDOWN,
    E_TIMEOUT,
    RemoteError,
)


def _payload(stage: str) -> dict:
    """A minimal well-formed wire payload for scripted workers."""
    return {
        "stage": stage,
        "artifacts": {"ok": True},
        "diagnostics": [],
        "work": {},
        "provenance": {
            "source_key": "0" * 64,
            "stage": stage,
            "artifact_key": None,
            "cache_hits": 0,
            "cache_misses": 0,
        },
    }


class TestWorkerCrash:
    def test_worker_exception_becomes_internal_frame(self, serve_factory):
        def exploding(session, stage, source, options):
            raise RuntimeError("kaboom")

        server = serve_factory(worker=exploding)
        with server.no_retry_client() as client:
            response = client.request("a = 1;", "diagnostics")
        assert response["ok"] is False
        assert response["error"]["code"] == E_INTERNAL
        assert "kaboom" in response["error"]["message"]
        # The server survives its worker's crash.
        with server.client() as client:
            assert client.ping()["pong"] is True


class TestOversizedReply:
    def test_reply_over_the_frame_cap_is_a_protocol_error(
        self, serve_factory, monkeypatch
    ):
        import repro.serve.server as server_module

        cap = 4096
        monkeypatch.setattr(server_module, "MAX_FRAME_BYTES", cap)

        def bulky(session, stage, source, options):
            payload = _payload(stage)
            payload["artifacts"] = {"listing": "x" * (2 * cap)}
            return payload

        server = serve_factory(worker=bulky)
        with server.no_retry_client() as client:
            response = client.request("a = 1;", "diagnostics")
            assert response["ok"] is False
            assert response["error"]["code"] == E_PROTOCOL
            assert f"{cap}-byte frame cap" in response["error"]["message"]
            # The connection stays usable.
            assert client.ping()["pong"] is True
            requests = client.ops()["requests"]
        assert requests["errors"] == {E_PROTOCOL: 1}
        assert requests["ok"] == 1  # the ping


class TestDeadline:
    def test_slow_stage_times_out(self, serve_factory):
        def slow(session, stage, source, options):
            time.sleep(0.5)
            return _payload(stage)

        server = serve_factory(worker=slow, deadline_ms=50.0)
        t0 = time.monotonic()
        with server.no_retry_client() as client:
            response = client.request("a = 1;", "optimized")
        elapsed = time.monotonic() - t0
        assert response["ok"] is False
        assert response["error"]["code"] == E_TIMEOUT
        assert "optimized" in response["error"]["message"]
        # The frame arrived at the deadline, not after the worker woke.
        assert elapsed < 0.45
        # Once the abandoned worker finishes, the server serves again.
        time.sleep(0.6)
        with server.client() as client:
            assert client.ping()["pong"] is True

    def test_no_deadline_means_no_timeout(self, serve_factory):
        def slowish(session, stage, source, options):
            time.sleep(0.1)
            return _payload(stage)

        server = serve_factory(worker=slowish, deadline_ms=None)
        with server.no_retry_client() as client:
            response = client.request("a = 1;", "diagnostics")
        assert response["ok"] is True


class TestBackpressure:
    def test_queue_full_returns_overloaded(self, serve_factory):
        entered = threading.Event()
        release = threading.Event()

        def gated(session, stage, source, options):
            entered.set()
            assert release.wait(timeout=15)
            return _payload(stage)

        server = serve_factory(worker=gated, jobs=1, queue_limit=1)
        responses: list[dict] = []

        def occupy() -> None:
            with server.no_retry_client() as client:
                responses.append(client.request("a = 1;", "diagnostics"))

        first = threading.Thread(target=occupy)
        first.start()
        assert entered.wait(timeout=15), "first request never reached a worker"

        with server.no_retry_client() as client:
            refused = client.request("b = 2;", "diagnostics")
        assert refused["ok"] is False
        assert refused["error"]["code"] == E_OVERLOADED
        assert "1/1" in refused["error"]["message"]

        release.set()
        first.join(timeout=15)
        assert responses and responses[0]["ok"] is True

    def test_slot_freed_after_completion(self, serve_factory):
        server = serve_factory(jobs=1, queue_limit=1)
        with server.client() as client:
            for _ in range(3):  # sequential: the slot must recycle
                assert client.request("a = 1; print(a);", "diagnostics")["ok"]
            assert client.ops()["queue_depth"] == 0


class TestDrainUnderLoad:
    def test_inflight_finishes_new_work_refused(self, serve_factory):
        entered = threading.Event()
        release = threading.Event()

        def gated(session, stage, source, options):
            entered.set()
            assert release.wait(timeout=15)
            return _payload(stage)

        server = serve_factory(worker=gated)
        responses: list[dict] = []

        def inflight() -> None:
            with server.no_retry_client() as client:
                responses.append(client.request("a = 1;", "diagnostics"))

        worker_thread = threading.Thread(target=inflight)
        worker_thread.start()
        assert entered.wait(timeout=15)

        # Drain starts while the request is in flight; a second compile
        # on an already-open connection gets a typed E_SHUTDOWN.
        with server.no_retry_client() as client:
            client.ping()  # open the connection before the listener closes
            server.server.request_drain_threadsafe()
            deadline = time.monotonic() + 15
            while not server.server.draining:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            refused = client.request("b = 2;", "diagnostics")
        assert refused["ok"] is False
        assert refused["error"]["code"] == E_SHUTDOWN

        # The in-flight request still completes with its real answer.
        release.set()
        worker_thread.join(timeout=15)
        assert responses and responses[0]["ok"] is True
        server._thread.join(timeout=15)
        assert not server.alive


class TestClientDisconnect:
    def test_disconnect_mid_request_does_not_wedge_server(self, serve_factory):
        entered = threading.Event()
        release = threading.Event()

        def gated(session, stage, source, options):
            entered.set()
            assert release.wait(timeout=15)
            return _payload(stage)

        server = serve_factory(worker=gated)
        client = server.no_retry_client()
        try:
            client._connect()
            from repro.serve.protocol import encode_frame

            client._sock.sendall(
                encode_frame(
                    {
                        "v": 1,
                        "id": "gone",
                        "kind": "compile",
                        "source": "a = 1;",
                        "stage": "diagnostics",
                    }
                )
            )
            assert entered.wait(timeout=15)
        finally:
            client.close()  # vanish with the request still in flight

        release.set()
        # The server cancelled the request's task and stays healthy.
        with server.client() as fresh:
            assert fresh.ping()["pong"] is True
            deadline = time.monotonic() + 15
            while fresh.ops()["queue_depth"] > 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)


class TestStoreFaults:
    def test_truncated_store_recomputes(self, serve_factory, tmp_path):
        from pathlib import Path

        store_dir = str(tmp_path / "store")
        source = "a = 1;\ncobegin begin lock(L); a = 2; unlock(L); end coend\nprint(a);"

        first = serve_factory(store_dir=store_dir)
        with first.client() as client:
            good = client.request(source, "diagnostics")
        first.stop()
        art_files = sorted(Path(store_dir).rglob("*.art"))
        assert art_files
        for path in art_files:
            path.write_bytes(path.read_bytes()[:10])

        second = serve_factory(store_dir=store_dir)
        with second.client() as client:
            recomputed = client.request(source, "diagnostics")
            ops = client.ops()
        assert recomputed["ok"] is True
        assert recomputed["result"]["artifacts"] == good["result"]["artifacts"]
        assert ops["store"]["corruptions"] > 0


class TestRemoteErrorMapping:
    def test_remote_error_exit_parity(self, serve_factory):
        """A RemoteError's code drives the same exit code locally."""
        from repro.errors import exit_code_for

        server = serve_factory()
        with server.no_retry_client() as client:
            with pytest.raises(RemoteError) as info:
                client.compile("lock(L; a = ;", "diagnostics")
        assert exit_code_for(info.value.code) == 3
