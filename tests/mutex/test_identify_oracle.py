"""A.1 with one rectangle query per Lock ≡ a query per candidate.

``identify_mutex_structures`` keeps only the nearest post-dominating
Unlock of each Lock as its candidate (the lemma beside A.1 in
docs/ALGORITHMS.md); ``identify_oracle`` is the version that queried
every candidate.  Both must return the same bodies, with the same
``nodes``, in the same order (LICM visits ``structure.bodies`` in that
order), and count the same ``pairs_examined``.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.builder import build_flow_graph
from repro.mutex.identify import identify_mutex_structures
from repro.obs.prof import work_counters
from repro.obs.trace import Tracer, use_tracer
from repro.synth import GeneratorConfig, generate_program
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build
from tests.mutex.identify_oracle import identify_mutex_structures as oracle

ROOT = Path(__file__).resolve().parents[2]
SOURCES = {"figure1": FIGURE1_SOURCE, "figure2": FIGURE2_SOURCE}
SOURCES.update(
    (p.stem, p.read_text()) for p in sorted((ROOT / "examples").glob("*.par"))
)


def _bodies(structures):
    return {
        name: [(b.lock_node, b.unlock_node, b.nodes) for b in s.bodies]
        for name, s in structures.items()
    }


def _identify(identify, graph):
    tracer = Tracer()
    with use_tracer(tracer):
        structures = identify(graph)
    return _bodies(structures), work_counters(tracer)


def assert_same_bodies(graph):
    got, got_work = _identify(identify_mutex_structures, graph)
    want, want_work = _identify(oracle, graph)
    assert got == want
    assert got_work == want_work


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_and_examples(name):
    assert_same_bodies(build_flow_graph(build(SOURCES[name])))


def test_benchmark_audit_inputs():
    from perfbench.audit_loop import inputs

    checked = 0
    for seed in range(3):
        for _key, source, _ in inputs(seed):
            assert_same_bodies(build_flow_graph(build(source)))
            checked += 1
    assert checked == 24


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_smallest_ladder_rung(workload):
    from perfbench.compile_loop import ladder

    _key, source = ladder(workload, 0)[0]
    graph = build_flow_graph(build(source))
    got, _ = _identify(identify_mutex_structures, graph)
    assert any(got.values())
    assert_same_bodies(graph)


def test_nested_and_repeated_unlocks():
    """Several Unlocks post-dominate one Lock: only the nearest pairs."""
    source = """
    cobegin
    T0: begin
        lock(L); a = 1; unlock(L); b = 2; unlock(L);
        lock(L); lock(L); c = 3; unlock(L); unlock(L);
        if (a) { lock(M); d = 4; } else { lock(M); }
        unlock(M); unlock(M);
    end
    T1: begin lock(L); a = 5; unlock(L); end
    coend
    """
    assert_same_bodies(build_flow_graph(build(source)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_threads=st.integers(1, 3),
    n_locks=st.integers(1, 3),
    p_critical=st.floats(0.0, 1.0),
    p_if=st.floats(0.0, 0.5),
)
def test_random_programs(seed, n_threads, n_locks, p_critical, p_if):
    program = generate_program(
        GeneratorConfig(
            seed=seed,
            n_threads=n_threads,
            stmts_per_thread=8,
            n_locks=n_locks,
            p_critical=p_critical,
            p_if=p_if,
        )
    )
    assert_same_bodies(build_flow_graph(program))
