"""CLI surface of the service: --version, request, exit codes, and a
real ``repro serve`` daemon driven over SIGTERM."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro._version import __version__
from repro.cli import main
from tests.conftest import FIGURE1_SOURCE

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.par"
    path.write_text(FIGURE1_SOURCE)
    return str(path)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestErrorTaxonomyOnStderr:
    def test_missing_file_is_e_io(self, capsys):
        assert main(["analyze", "/no/such/file.par"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [E_IO]")

    def test_parse_error_is_e_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.par"
        bad.write_text("lock(L; a = ;")
        assert main(["analyze", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: [E_PARSE]")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["run", "{file}", "--seed", "abc"],
            ["serve", "--jobs", "0"],
            ["batch", "{dir}", "--jobs", "0"],
            ["serve", "--queue-limit", "-1"],
            ["run", "{file}", "--fuel", "-5"],
            ["audit", "{file}", "--runs", "-1"],
            ["audit", "{file}", "--seed-base", "-1"],
            ["explore", "{file}", "--max-states", "-1"],
            ["bench", "--repeat", "0"],
            ["bench", "--warmup", "-1"],
        ],
        ids=lambda argv: "-".join(a.strip("-{}") for a in argv),
    )
    def test_usage_error_is_e_usage(self, argv, fig1_file, monkeypatch, capsys):
        """Rejected while parsing: no command runs, so no server starts
        and no VM executes."""
        import repro.cli

        for name in dir(repro.cli):
            if name.startswith("_cmd_"):
                monkeypatch.setattr(repro.cli, name, None)
        fields = {"file": fig1_file, "dir": str(Path(fig1_file).parent)}
        assert main([a.format(**fields) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: [E_USAGE]")
        assert err.count("\n") == 1


class TestRequestCommand:
    def test_request_diagnostics(self, server, fig1_file, capsys):
        code = main(
            ["request", fig1_file, "--host", server.host,
             "--port", str(server.port)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "race:" in out
        assert "cache_misses=" in out

    def test_request_json(self, server, fig1_file, capsys):
        code = main(
            ["request", fig1_file, "--json", "--stage", "optimized",
             "--host", server.host, "--port", str(server.port)]
        )
        assert code == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["ok"] is True
        assert frame["result"]["stage"] == "optimized"
        assert "listing" in frame["result"]["artifacts"]

    def test_request_parse_error_exit_3(self, server, tmp_path, capsys):
        bad = tmp_path / "bad.par"
        bad.write_text("lock(L; a = ;")
        code = main(
            ["request", str(bad), "--host", server.host,
             "--port", str(server.port)]
        )
        assert code == 3
        assert "error: [E_PARSE]" in capsys.readouterr().err

    def test_request_ops(self, server, capsys):
        code = main(
            ["request", "--kind", "ops", "--host", server.host,
             "--port", str(server.port)]
        )
        assert code == 0
        ops = json.loads(capsys.readouterr().out)
        assert ops["version"] == __version__

    def test_request_bad_options_json(self, server, fig1_file, capsys):
        code = main(
            ["request", fig1_file, "--options", "{not json",
             "--host", server.host, "--port", str(server.port)]
        )
        assert code == 3
        assert "[E_USAGE]" in capsys.readouterr().err

    def test_request_no_server_is_service_trouble(self, fig1_file, capsys):
        # Port 1 is never listening; the connection is refused.
        code = main(
            ["request", fig1_file, "--port", "1", "--timeout", "2"]
        )
        assert code == 3
        assert "error: [E_IO]" in capsys.readouterr().err


class TestServeDaemon:
    def test_sigterm_drains_cleanly(self, tmp_path, fig1_file, capsys):
        """Boot the real daemon, serve one request, SIGTERM it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        store = str(tmp_path / "store")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", store],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready, ready
            port = int(ready.split("listening on ")[1].split()[0].split(":")[1])

            code = main(["request", fig1_file, "--port", str(port)])
            assert code == 0
            assert "race:" in capsys.readouterr().out

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
            assert "drained" in proc.stdout.read()
            # The store survived the daemon.
            art = list(Path(store).rglob("*.art"))
            assert art, "no artifacts persisted"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)

    def test_restarted_daemon_serves_warm(self, tmp_path, fig1_file, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        store = str(tmp_path / "store")

        def boot():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store", store],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                env=env,
                text=True,
            )
            ready = proc.stdout.readline()
            port = int(ready.split("listening on ")[1].split()[0].split(":")[1])
            return proc, port

        proc, port = boot()
        try:
            assert main(["request", fig1_file, "--port", str(port)]) == 0
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
        capsys.readouterr()

        proc, port = boot()
        try:
            assert main(
                ["request", fig1_file, "--json", "--port", str(port)]
            ) == 0
            frame = json.loads(capsys.readouterr().out)
            # Warm across restart: every stage came from the store.
            assert frame["result"]["provenance"]["cache_misses"] == 0
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                assert proc.wait(timeout=15) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=15)
