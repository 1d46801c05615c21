"""Histogram percentiles (nearest-rank) and their rendering."""

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank_hundred(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.90) == 90.0
        assert percentile(values, 0.99) == 99.0

    def test_small_sample(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.99) == 4.0


class TestHistogramSummary:
    def test_summary_has_percentile_keys(self):
        hist = Histogram("h")
        for v in range(1, 101):
            hist.observe(float(v))
        s = hist.summary()
        assert (s["p50"], s["p90"], s["p99"]) == (50.0, 90.0, 99.0)
        assert s["count"] == 100 and s["min"] == 1.0 and s["max"] == 100.0

    def test_empty_summary_is_zeroed(self):
        s = Histogram("h").summary()
        assert s["count"] == 0
        assert s["p50"] == s["p90"] == s["p99"] == 0.0

    def test_render_text_shows_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        text = registry.render_text()
        assert "p50=2" in text and "p90=3" in text and "p99=3" in text


def test_stats_command_prints_histogram_table(tmp_path, capsys):
    from repro.cli import main
    from tests.conftest import FIGURE2_SOURCE

    source = tmp_path / "p.par"
    source.write_text(FIGURE2_SOURCE)
    assert main(["profile", str(source)]) == 0
    out = capsys.readouterr().out
    assert "== histograms ==" in out
    assert "span_wall_ms" in out
    assert "p50" in out and "p90" in out and "p99" in out
