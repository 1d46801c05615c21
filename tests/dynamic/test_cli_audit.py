"""CLI surface of the dynamic observatory: ``audit``, ``run --json``,
``witness`` replay tracing."""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


@pytest.fixture
def racy_file():
    return str(EXAMPLES / "race_counter.par")


@pytest.fixture
def clean_file():
    return str(EXAMPLES / "bank_transfer.par")


class TestAudit:
    def test_confirmed_races_exit_0_by_default(self, racy_file, capsys):
        assert main(["audit", racy_file]) == 0
        out = capsys.readouterr().out
        assert "confirmed:" in out
        assert "replay-verified" in out
        assert "schedule coverage" in out

    def test_strict_gates_on_confirmed(self, racy_file):
        assert main(["audit", "--strict", racy_file]) == 1

    def test_clean_program_strict_exit_0(self, clean_file, capsys):
        assert main(["audit", "--strict", clean_file]) == 0
        assert "no races" in capsys.readouterr().out

    def test_figure1_unconfirmed_observable(self, capsys):
        assert main(["audit", "--strict", str(EXAMPLES / "figure1.par")]) == 0
        out = capsys.readouterr().out
        assert "unconfirmed (observable-event arguments" in out

    def test_json_document(self, racy_file, capsys):
        assert main(["audit", "--json", racy_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sound"] is True
        assert len(doc["confirmed"]) == 2
        assert doc["coverage"]["outcome_coverage"] == 1.0

    def test_no_explore_and_runs_flags(self, racy_file, capsys):
        assert main(
            ["audit", "--json", "--no-explore", "--runs", "4", racy_file]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coverage"]["runs"] == 4
        assert doc["coverage"]["explored_outcome_classes"] is None

    def test_trace_flag_writes_trace(self, racy_file, tmp_path, capsys):
        trace = tmp_path / "audit.jsonl"
        assert main(["audit", "--trace", str(trace), racy_file]) == 0
        kinds = {
            json.loads(line).get("kind")
            for line in trace.read_text().splitlines()
        }
        assert "dynamic-race" in kinds
        assert "vm-step" in kinds


class TestRunJson:
    def test_lock_counters_and_timeline(self, clean_file, capsys):
        assert main(["run", "--json", "--seed", "3", clean_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["deadlocked"] is False
        assert doc["events"] == [["print", [80, 70]]]
        ledger = doc["locks"]["ledger"]
        assert ledger["acquisitions"] == 2
        assert ledger["held_steps"] > 0
        assert ledger["held_intervals"] == 2
        assert ledger["longest_held"] > 0
        assert doc["lock_intervals"]  # full timeline present
        for interval in doc["lock_intervals"]:
            assert interval["to"] >= interval["from"]

    def test_deadlock_exit_2_with_open_interval(self, tmp_path, capsys):
        path = tmp_path / "dead.par"
        path.write_text(
            "cobegin\n"
            "begin lock(A); lock(B); unlock(B); unlock(A); end\n"
            "begin lock(B); lock(A); unlock(A); unlock(B); end\n"
            "coend\nprint(0);\n"
        )
        for seed in range(64):
            code = main(["run", "--json", "--seed", str(seed), str(path)])
            doc = json.loads(capsys.readouterr().out)
            if code == 2:
                assert doc["deadlocked"] is True
                assert any(i["open"] for i in doc["lock_intervals"])
                return
        pytest.fail("no seed deadlocked")


class TestWitnessTrace:
    def test_replay_emits_vm_events(self, clean_file, tmp_path, capsys):
        trace = tmp_path / "w.jsonl"
        assert main(
            ["witness", clean_file, "80", "70", "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "replayed:" in out
        assert "80 70" in out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        kinds = {r.get("kind") for r in records}
        assert "vm-step" in kinds
        assert "lock-held-interval" in kinds
        metrics = next(r for r in records if r["type"] == "metrics")
        assert metrics["counters"]["vm.lock_acquisitions.ledger"] == 2
        assert metrics["histograms"]["vm.lock_hold_steps.ledger"]["count"] == 2

    def test_chrome_trace_has_lock_tracks(self, clean_file, tmp_path):
        trace = tmp_path / "w.json"
        assert main(
            [
                "witness", clean_file, "80", "70",
                "--trace", str(trace), "--trace-format", "chrome",
            ]
        ) == 0
        doc = json.loads(trace.read_text())
        lock_events = [
            e for e in doc["traceEvents"]
            if e.get("pid") == 2 and e.get("ph") == "X"
        ]
        assert lock_events
        for event in lock_events:
            assert event["dur"] >= 0
            assert event["args"]["lock"] == "ledger"
