"""The benchmark's own tests.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Every workload runs at a tiny size for a fraction of a second.  The
tests pin the inputs, hold each result to ``BENCHMARK.json``, show that
wrong outputs and refused requests count as failed ops, and that the
traced counters repeat exactly.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys

import pytest

from repro.serve.client import RetryPolicy

from perfbench import audit_loop, common, compile_loop, run, serve_loop
from perfbench.gen import Shape, generate

WORKLOADS = ("contended", "sparse", "serve", "audit")

#: sha256 over each workload's seed-0 inputs.  A new value means the
#: generator changed, which would silently change what is measured.
SEED0_INPUTS = {
    "contended": "dfd4bc6886b25ae6b9e298ad3487c4e955d7e57370cc93d6ed381079db5653f3",
    "sparse": "2d39a7b08f60ec488e9edb130db3588c3bc1b0881f89614266ebeeede8ff5886",
    "serve": "26d79cb58752f6a18468baa6f734a05d12d244575660535391620c0400954de3",
    "audit": "5fa2c3603583aca02538bd2b41b89a4b2a3225ae9678410b5486e608b0cf1015",
}


def inputs(workload: str, seed: int) -> list[str]:
    if workload == "serve":
        fresh = [serve_loop.fresh_request(seed, k)[0] for k in range(24)]
        return serve_loop.hot_sources(seed) + fresh
    if workload == "audit":
        return [source for _, source, _ in audit_loop.inputs(seed)]
    return [source for _, source in compile_loop.ladder(workload, seed)]


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\0".join(texts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_inputs_are_pinned(workload):
    assert digest(inputs(workload, 0)) == SEED0_INPUTS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_seed_alone_picks_the_inputs(workload):
    assert inputs(workload, 3) == inputs(workload, 3)
    assert inputs(workload, 3) != inputs(workload, 4)


def test_golden_covers_every_pool_input():
    golden = compile_loop.load_golden()
    for workload in compile_loop.LADDERS:
        for index in range(compile_loop.POOL):
            for key, source in compile_loop.ladder(workload, index):
                assert golden[key]["source_sha256"] == compile_loop.sha256(source)


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at a size that runs in about a second."""
    for workload in ("contended", "sparse"):
        monkeypatch.setitem(compile_loop.LADDERS, workload, (20, 40))
    golden = {
        key: compile_loop.golden_entry(source)
        for workload in ("contended", "sparse")
        for index in range(compile_loop.POOL)
        for key, source in compile_loop.ladder(workload, index)
    }
    monkeypatch.setattr(compile_loop, "load_golden", lambda: golden)
    monkeypatch.setattr(audit_loop, "MIX", ((2, 10, False), (3, 15, True)))
    monkeypatch.setattr(serve_loop, "hot_sources", lambda seed: [generate("tiny", Shape(), 20)])
    monkeypatch.setattr(serve_loop, "FRESH_SIZE", 20)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return golden


def run_tiny(workload: str, trace: bool = False) -> dict:
    return run.run_workload(workload, seed=0, seconds=0.2, trace=trace)


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(tiny, workload, trace):
    result = run_tiny(workload, trace)
    declared = common.declared()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_a_wrong_golden_digest_is_a_failed_op(tiny, monkeypatch):
    wrong = {key: dict(entry, listing_sha256="0" * 64) for key, entry in tiny.items()}
    monkeypatch.setattr(compile_loop, "load_golden", lambda: wrong)
    result = run_tiny("contended")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] == 0.0


def test_a_refused_request_is_a_failed_op(tiny, monkeypatch):
    monkeypatch.setattr(serve_loop, "QUEUE_LIMIT", 0)  # every compile is E_OVERLOADED
    monkeypatch.setattr(serve_loop, "RETRY", RetryPolicy(attempts=2, base_delay=0.001))
    result = run_tiny("serve")
    assert not result["correct"]
    assert result["metrics"]["ok_rate"]["value"] < 1.0


@pytest.mark.parametrize("workload", ("contended", "audit"))
def test_traced_counters_repeat(tiny, workload):
    first, second = run_tiny(workload, True), run_tiny(workload, True)
    counted = [
        name for name, m in first["metrics"].items()
        if m["unit"] in ("count", "stmt", "slope", "ratio")
    ]
    assert counted
    assert {n: first["metrics"][n] for n in counted} == {n: second["metrics"][n] for n in counted}


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        common.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contended",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
