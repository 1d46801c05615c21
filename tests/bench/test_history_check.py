"""History persistence and the regression gate."""

import json

from repro.bench.check import Regression, compare_records, format_regressions
from repro.bench.history import append_record, load_history, previous_record


def _record(group="fast", counters=None, wall=None, error=None, name="b"):
    return {
        "schema": "repro.bench/record/v1",
        "group": group,
        "results": {
            name: {
                "group": group,
                "counters": counters if counters is not None else {},
                "wall": wall if wall is not None else {},
                "payload": None,
                "error": error,
            }
        },
    }


class TestHistory:
    def test_append_load_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(_record(), path)
        append_record(_record(group="slow"), path)
        records = load_history(path)
        assert [r["group"] for r in records] == ["fast", "slow"]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_record(_record(), path)
        with open(path, "a") as handle:
            handle.write('{"truncated": \n')  # interrupted writer
        append_record(_record(group="slow"), path)
        assert [r["group"] for r in load_history(path)] == ["fast", "slow"]

    def test_previous_record_filters_by_group(self, tmp_path):
        records = [_record("fast"), _record("slow"), _record("fast")]
        assert previous_record(records, "slow") is records[1]
        assert previous_record(records, "fast") is records[2]
        assert previous_record(records) is records[2]
        assert previous_record(records, "other") is None


class TestGate:
    def test_identical_records_pass(self):
        rec = _record(counters={"work.p.ops": 100}, wall={"median_ms": 2.0})
        assert compare_records(rec, json.loads(json.dumps(rec))) == []

    def test_doubled_work_counter_fails(self):
        base = _record(counters={"work.p.ops": 100})
        cur = _record(counters={"work.p.ops": 200})
        regs = compare_records(cur, base)
        assert len(regs) == 1 and regs[0].kind == "counter"
        assert "work.p.ops" in regs[0].detail

    def test_growth_within_tolerance_passes(self):
        base = _record(counters={"work.p.ops": 100})
        cur = _record(counters={"work.p.ops": 104})
        assert compare_records(cur, base) == []

    def test_counter_shrink_and_new_counters_pass(self):
        base = _record(counters={"work.p.ops": 100})
        cur = _record(counters={"work.p.ops": 50, "work.r.ops": 999})
        assert compare_records(cur, base) == []

    def test_missing_baseline_counter_fails(self):
        base = _record(counters={"work.p.ops": 100, "work.q.ops": 5})
        cur = _record(counters={"work.p.ops": 100})
        regs = compare_records(cur, base)
        assert len(regs) == 1 and regs[0].kind == "counter"
        assert "work.q.ops" in regs[0].detail and "missing" in regs[0].detail

    def test_wall_needs_both_relative_and_iqr_excess(self):
        base = _record(wall={"median_ms": 10.0, "iqr_ms": 1.0})
        # +40% — below the 50% relative bar even though beyond 3 IQR
        ok = _record(wall={"median_ms": 14.0, "iqr_ms": 1.0})
        assert compare_records(ok, base) == []
        # +100% and beyond 3 IQR — fails
        bad = _record(wall={"median_ms": 20.0, "iqr_ms": 1.0})
        regs = compare_records(bad, base)
        assert len(regs) == 1 and regs[0].kind == "wall"
        # +100% but the noise band is huge — passes (3*IQR dominates)
        noisy_base = _record(wall={"median_ms": 10.0, "iqr_ms": 5.0})
        assert compare_records(bad, noisy_base) == []

    def test_missing_benchmark_flagged(self):
        base = _record(name="gone")
        cur = {"results": {}}
        regs = compare_records(cur, base)
        assert len(regs) == 1 and regs[0].kind == "missing"

    def test_errored_current_flagged_errored_baseline_ignored(self):
        base_err = _record(error="old failure")
        assert compare_records(_record(), base_err) == []
        cur_err = _record(error="boom")
        regs = compare_records(cur_err, _record())
        assert len(regs) == 1 and regs[0].kind == "error"

    def test_format(self):
        assert "no regressions" in format_regressions([])
        text = format_regressions(
            [Regression(bench="b", kind="counter", detail="d")]
        )
        assert "1 regression" in text and "[counter] b: d" in text
