"""One replay per maximal witness verifies what per-race replays did.

:func:`repro.dynamic.audit._verify_witnesses` replays each witness that
no other witness extends once, and judges every race whose witness is
a prefix of it from that replay.  ``witness_oracle.oracle_verified``
keeps the per-race loop it replaced; every verdict must agree.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dynamic.audit import _verify_witnesses, audit_source
from repro.dynamic.hb import DynamicRace, HBTracker
from repro.synth import GeneratorConfig, generate_program
from repro.vm.compile import compile_program
from repro.vm.machine import VirtualMachine
from tests.conftest import build
from tests.dynamic.witness_oracle import oracle_verified

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = {p.stem: p.read_text() for p in sorted((ROOT / "examples").glob("*.par"))}


def _audit_inputs() -> dict[str, str]:
    """The 24 inputs (seeds 0-2) of the repository benchmark's ``audit``
    workload: 2-4 threads, about 70-400 lines, half race-free."""
    from perfbench.audit_loop import inputs

    return {key: src for seed in range(3) for key, src, _ in inputs(seed)}


def _assert_same_verdicts(source: str) -> None:
    report = audit_source(source, do_explore=False)
    compiled = compile_program(build(source))
    expected = oracle_verified(compiled, report.dynamic)
    verified, replays, _ = _verify_witnesses(compiled, report.dynamic)
    assert verified == expected
    assert replays <= len(report.seeds)
    for finding in report.confirmed:
        assert finding.witness_verified == (finding.dynamic.pair_key() in expected)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_verify_as_per_race_replay(name):
    _assert_same_verdicts(EXAMPLES[name])


def test_benchmark_audit_inputs_verify_as_per_race_replay():
    for source in _audit_inputs().values():
        _assert_same_verdicts(source)


def _races_of_runs(compiled, seeds) -> list[DynamicRace]:
    races = []
    for seed in seeds:
        hb = HBTracker(compiled)
        VirtualMachine(compiled, seed=seed, hb=hb).run(raise_on_deadlock=False)
        races.extend(hb.races)
    return races


@given(
    st.builds(
        GeneratorConfig,
        seed=st.integers(0, 5_000),
        n_threads=st.integers(2, 3),
        stmts_per_thread=st.integers(2, 5),
        n_shared=st.integers(1, 3),
        n_locks=st.integers(0, 1),
        p_critical=st.floats(0.0, 0.4),
        p_if=st.floats(0.0, 0.3),
    ),
    st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_generated_racy_programs_verify_as_per_race_replay(config, first_seed):
    compiled = compile_program(generate_program(config))
    seeds = range(first_seed, first_seed + 4)
    races = _races_of_runs(compiled, seeds)
    verified, replays, steps = _verify_witnesses(compiled, races)
    assert verified == oracle_verified(compiled, races)
    assert replays <= len(seeds)
    assert steps <= sum(len(r.witness) for r in races)


RACY = """
cobegin
begin x = 1; y = 1; z = 1; end
begin x = 2; y = 2; z = 2; end
coend
"""


def test_a_host_that_fails_partway_verifies_only_the_witnesses_before_it():
    """Fabricate a host schedule whose step ``k`` names a thread that
    does not exist: a race whose witness ends before step ``k`` is still
    verified, and one whose witness reaches it is not, even when the
    replay detected its location pair before step ``k``."""
    compiled = compile_program(build(RACY))
    for seed in range(50):
        races = _races_of_runs(compiled, [seed])
        if len({len(r.witness) for r in races}) >= 2:
            break
    races.sort(key=lambda r: len(r.witness))
    short, long = races[0], races[-1]
    k = len(short.witness)
    host = long.witness[:k] + [(9,)] + long.witness[k + 1:]
    assert host[:k] == short.witness

    def fabricated(race):
        return DynamicRace(
            race.var, race.kind,
            race.tid_a, race.pc_a, race.step_a,
            race.tid_b, race.pc_b, race.step_b,
            witness=host,
        )

    broken = fabricated(long)
    verified, replays, steps = _verify_witnesses(compiled, [short, broken])
    assert verified == {short.pair_key()}
    assert (replays, steps) == (1, k)
    assert oracle_verified(compiled, [short, broken]) == verified
    # ``short``'s pair is detected before step k, but this witness
    # reaches step k, so its own replay would fail.
    reaching = fabricated(short)
    assert _verify_witnesses(compiled, [reaching])[0] == set()
    assert oracle_verified(compiled, [reaching]) == set()
    # Unbroken, the long witness verifies.
    assert long.pair_key() in _verify_witnesses(compiled, [short, long])[0]
