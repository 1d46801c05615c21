"""CLI contract of ``repro bench`` and ``repro profile``."""

import json

import pytest

import repro.bench
from repro.bench import registry as reg
from repro.cli import main
from repro.obs.prof import record_work
from tests.conftest import FIGURE2_SOURCE


@pytest.fixture()
def fake_suite(monkeypatch, tmp_path):
    """A private registry with one deterministic benchmark, run from an
    empty working directory; discovery disabled so the real benchmarks
    don't leak in."""
    monkeypatch.setattr(reg, "_REGISTRY", {})
    monkeypatch.setattr(repro.bench, "discover", lambda package="benchmarks": 1)
    monkeypatch.chdir(tmp_path)

    @reg.register("toy", group="fast", summary="deterministic toy")
    def toy():
        record_work("toy", visits=10)
        return {"answer": 42}

    return reg


def _bench(*extra):
    return main(["bench", "--group", "fast", "--repeat", "2", *extra])


def test_bench_runs_and_appends(fake_suite, capsys):
    assert _bench() == 0
    out = capsys.readouterr().out
    assert "toy" in out and "appended" not in out


def test_plain_bench_writes_no_file(fake_suite, tmp_path):
    assert _bench() == 0
    assert list(tmp_path.iterdir()) == []


def test_bench_check_passes_on_identical_reruns(fake_suite, tmp_path, capsys):
    assert _bench("--json", "record.json") == 0
    assert _bench("--check", "--baseline", "record.json") == 0
    assert "no regressions" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, content",
    [
        ((), None),  # the default BENCH_baseline.json, absent here
        (("--baseline", "absent.json"), None),
        (("--baseline", "b.json"), '{"schema": "repro.bench/record/v1", "resu'),
        (("--baseline", "b.json"), "[1, 2]"),
        (("--baseline", "b.json"), '{"schema": "other/v0", "results": {}}'),
        (("--baseline", "b.json"), '{"schema": "repro.bench/record/v1", "results": 7}'),
    ],
)
def test_bench_check_unreadable_baseline_exits_3(
    fake_suite, tmp_path, capsys, flags, content
):
    if content is not None:
        (tmp_path / "b.json").write_text(content)
    assert _bench("--check", *flags) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [E_IO] ")
    assert "toy" not in captured.out  # refused before any benchmark ran


def test_bench_check_fails_on_inflated_counters(fake_suite, tmp_path, capsys):
    assert _bench("--json", "record.json") == 0
    # Doctor a baseline that claims the work used to be half: the
    # current (unchanged) run then looks 2x inflated and must fail.
    baseline = json.loads((tmp_path / "record.json").read_text())
    baseline["results"]["toy"]["counters"]["work.toy.visits"] = 5
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    assert _bench("--check", "--baseline", "baseline.json") == 1
    out = capsys.readouterr().out
    assert "[counter] toy" in out and "work.toy.visits grew 5 -> 10" in out


def test_bench_errors_exit_nonzero(fake_suite, capsys):
    @reg.register("broken", group="fast")
    def broken():
        raise RuntimeError("kaput")

    assert _bench() == 1
    err = capsys.readouterr().err
    assert "broken" in err and "kaput" in err


def test_bench_list_and_unknown_name(fake_suite, capsys):
    assert main(["bench", "--list"]) == 0
    assert "toy" in capsys.readouterr().out
    assert main(["bench", "nope"]) == 3


def test_bench_json_record(fake_suite, tmp_path):
    assert _bench("--json", "record.json") == 0
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["results"]["toy"]["payload"] == {"answer": 42}
    assert record["results"]["toy"]["counters"] == {"work.toy.visits": 10}


def test_profile_command_tables(tmp_path, capsys):
    source = tmp_path / "p.par"
    source.write_text(FIGURE2_SOURCE)
    out = tmp_path / "profile.json"
    assert main(["profile", str(source), "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "deterministic work counters" in printed
    assert "constprop" in printed and "total work" in printed
    profile = json.loads(out.read_text())
    assert profile["total_work"] == sum(profile["work"].values())
    assert any(k.startswith("work.cssa.") for k in profile["work"])


def test_profile_flame_trace_export(tmp_path):
    source = tmp_path / "p.par"
    source.write_text(FIGURE2_SOURCE)
    flame = tmp_path / "out.flame"
    assert main(["profile", str(source), "--trace", str(flame),
                 "--trace-format", "flame"]) == 0
    lines = flame.read_text().strip().splitlines()
    assert lines
    for line in lines:
        stack, weight = line.rsplit(" ", 1)
        assert stack and int(weight) >= 0
    assert any(";" in line for line in lines)  # nested stacks present
