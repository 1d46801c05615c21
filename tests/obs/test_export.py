"""Exporter round-trips: jsonl, Chrome trace_event, text summary."""

import json

import pytest

from repro.obs.export import (
    export_chrome,
    export_collapsed,
    export_jsonl,
    load_jsonl,
    render_text,
    trace_as_dicts,
    write_trace,
)
from repro.obs.trace import Tracer, use_tracer
from repro.session import Session
from tests.conftest import FIGURE2_SOURCE


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer()
    with use_tracer(tracer):
        Session().optimize(FIGURE2_SOURCE)
    return tracer


class TestJsonl:
    def test_round_trip(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            lines = export_jsonl(traced, handle)
        loaded = load_jsonl(str(path))
        assert lines == len(loaded)
        assert loaded == trace_as_dicts(traced)

    def test_terminated_by_metrics_line(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(traced, str(path), "jsonl")
        loaded = load_jsonl(str(path))
        assert loaded[-1]["type"] == "metrics"
        assert loaded[-1]["counters"]["cssame.args_removed"] == 5

    def test_every_line_is_valid_json(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(traced, str(path), "jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)  # raises on malformed output


class TestChrome:
    def test_structure_perfetto_accepts(self, traced):
        doc = export_chrome(traced)
        # the object format chrome://tracing and Perfetto load
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0 and event["dur"] >= 0
        json.dumps(doc)  # must be serializable as-is

    def test_one_span_per_pass(self, traced):
        doc = export_chrome(traced)
        complete = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        for name in ("pass:constprop", "pass:pdce", "pass:licm"):
            assert complete.count(name) == 1

    def test_one_instant_event_per_removal_with_reason(self, traced):
        doc = export_chrome(traced)
        removals = [
            e for e in doc["traceEvents"] if e["name"] == "pi-arg-removed"
        ]
        stats = None
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e["name"] == "rewrite-pi":
                stats = e["args"]
        assert stats is not None and len(removals) == stats["args_removed"]
        for event in removals:
            assert event["ph"] == "i"
            assert event["args"]["reason"] in (
                "not-upward-exposed",
                "does-not-reach-exit",
            )

    def test_write_trace_chrome_is_loadable(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(traced, str(path), "chrome")
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]


class TestText:
    def test_summary_mentions_passes_and_metrics(self, traced):
        text = render_text(traced)
        assert "pass:constprop" in text
        assert "pi-arg-removed x5" in text
        assert "cssame.pis_deleted = 4" in text

    def test_write_trace_text(self, traced, tmp_path):
        path = tmp_path / "trace.txt"
        write_trace(traced, str(path), "text")
        assert "== spans ==" in path.read_text()

    def test_empty_tracer_renders(self):
        text = render_text(Tracer())
        assert "(none)" in text


class TestFlame:
    def test_collapsed_stack_syntax(self, traced):
        lines = export_collapsed(traced).strip().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert stack
            assert int(weight) >= 0  # integer microseconds of self time
            assert " ;" not in stack and "; " not in stack

    def test_nesting_preserved(self, traced):
        text = export_collapsed(traced)
        # passes run inside the optimize span inside the session stage
        assert "optimize;pass:constprop" in text
        assert "build-cssame;cssa" in text

    def test_self_time_sums_to_inclusive_roots(self, traced):
        total_self = sum(
            int(line.rsplit(" ", 1)[1])
            for line in export_collapsed(traced).strip().splitlines()
        )
        root_depth = min(span.depth for span in traced.spans())
        root_inclusive = sum(
            span.duration * 1e6
            for span in traced.spans()
            if span.depth == root_depth
        )
        # flooring to whole microseconds loses <1us per span
        assert abs(total_self - root_inclusive) <= len(traced.spans())

    def test_write_trace_flame(self, traced, tmp_path):
        path = tmp_path / "trace.flame"
        write_trace(traced, str(path), "flame")
        content = path.read_text()
        assert content.endswith("\n")
        assert ";" in content

    def test_empty_tracer_collapses_to_nothing(self):
        assert export_collapsed(Tracer()) == ""


def test_unknown_format_rejected(traced, tmp_path):
    with pytest.raises(ValueError, match="unknown trace format"):
        write_trace(traced, str(tmp_path / "x"), "xml")
