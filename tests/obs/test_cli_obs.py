"""CLI observability surface: --trace/--trace-format, profile, --strict."""

import json

import pytest

from repro.cli import main
from repro.obs.export import load_jsonl
from tests.conftest import FIGURE2_SOURCE

RACY_SOURCE = "cobegin begin v = 1; end begin v = 2; end coend print(v);"


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.par"
    path.write_text(FIGURE2_SOURCE)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.par"
    path.write_text(RACY_SOURCE)
    return str(path)


class TestStatsCommand:
    """The timing, decision and metrics tables of ``repro profile``."""

    def test_prints_timing_and_metrics_tables(self, fig2_file, capsys):
        assert main(["profile", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "== per-pass timing ==" in out
        assert "wall_ms" in out
        for phase in ("cssa", "rewrite-pi", "pass:constprop", "pass:pdce",
                      "pass:licm"):
            assert phase in out
        assert "== A.3 conflict-argument removals ==" in out
        assert "not-upward-exposed" in out
        assert "== final form metrics ==" in out
        assert "cssame.args_removed" in out

    def test_cssa_mode_skips_rewrite(self, fig2_file, capsys):
        assert main(["profile", "--cssa", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "rewrite-pi" not in out
        assert "pass:constprop" in out


class TestTraceFlag:
    def test_jsonl_trace_on_optimize(self, fig2_file, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(["optimize", fig2_file, "--trace", str(out_file)]) == 0
        records = load_jsonl(str(out_file))
        kinds = {r.get("kind") for r in records if r["type"] == "event"}
        assert "pi-arg-removed" in kinds
        names = [r["name"] for r in records if r["type"] == "span"]
        assert "pass:licm" in names
        assert records[-1]["type"] == "metrics"

    def test_chrome_trace_acceptance_shape(self, fig2_file, tmp_path):
        """One span per pass + one event per A.3 removal with a reason."""
        out_file = tmp_path / "t.json"
        assert main([
            "optimize", fig2_file,
            "--trace", str(out_file), "--trace-format", "chrome",
        ]) == 0
        with open(out_file) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        passes = [e["name"] for e in events
                  if e["ph"] == "X" and e["name"].startswith("pass:")]
        assert sorted(passes) == ["pass:constprop", "pass:licm", "pass:pdce"]
        removals = [e for e in events if e["name"] == "pi-arg-removed"]
        assert len(removals) == 5
        assert all(
            e["args"]["reason"] in ("not-upward-exposed", "does-not-reach-exit")
            for e in removals
        )

    def test_text_trace_on_run(self, fig2_file, tmp_path):
        out_file = tmp_path / "t.txt"
        assert main([
            "run", fig2_file, "--trace", str(out_file), "--trace-format", "text",
        ]) == 0
        text = out_file.read_text()
        assert "vm-step" in text
        assert "lock-held-interval" in text

    def test_trace_written_on_failing_exit(self, racy_file, tmp_path):
        """diagnose exits 1 but the trace must still land on disk."""
        out_file = tmp_path / "t.jsonl"
        assert main(["diagnose", racy_file, "--trace", str(out_file)]) == 1
        assert out_file.exists()
        names = [r["name"] for r in load_jsonl(str(out_file))
                 if r["type"] == "span"]
        assert "diagnose" in names

    def test_explore_traced(self, fig2_file, tmp_path):
        out_file = tmp_path / "t.jsonl"
        assert main(["explore", fig2_file, "--trace", str(out_file)]) == 0
        spans = [r for r in load_jsonl(str(out_file)) if r["type"] == "span"]
        explore_span = next(s for s in spans if s["name"] == "explore")
        assert explore_span["attrs"]["outcomes"] == 2

    def test_no_trace_file_without_flag(self, fig2_file, capsys):
        assert main(["analyze", fig2_file]) == 0  # smoke: flag is optional

    def test_unwritable_trace_path_exits_3(self, fig2_file, tmp_path, capsys):
        missing = tmp_path / "no-such-dir" / "t.jsonl"
        assert main(["optimize", fig2_file, "--trace", str(missing)]) == 3
        assert "cannot write trace" in capsys.readouterr().err


class TestDiagnoseStrictness:
    def test_strict_default_gates(self, racy_file, capsys):
        assert main(["diagnose", racy_file]) == 1
        assert "race:" in capsys.readouterr().out

    def test_no_strict_reports_but_passes(self, racy_file, capsys):
        assert main(["diagnose", "--no-strict", racy_file]) == 0
        assert "race:" in capsys.readouterr().out

    def test_clean_program_unaffected(self, fig2_file, capsys):
        assert main(["diagnose", "--strict", fig2_file]) == 0
        assert "no synchronization problems" in capsys.readouterr().out
