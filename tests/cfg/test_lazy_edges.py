"""The CSSA form's conflict, mutex and sync edge lists are built on
first read, and must equal the lists the ``add_*_edges`` references of
``edges_oracle`` build eagerly at construction time: read before or after A.3, after pickling, or by
several threads at once; and counted without building them."""

import pickle
import threading
import time
from pathlib import Path

import pytest

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import AccessRelation, PFGEdgeInputs, collect_access_sites
from repro.cssa.pi import place_pi_terms
from repro.cssame import build_cssame
from repro.ssa.construct import build_ssa
from repro.synth import GeneratorConfig, generate_source
from tests.cfg.edges_oracle import add_conflict_edges, add_mutex_edges, add_sync_edges
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.par"))

FILES = [
    pytest.param(FIGURE1_SOURCE, id="figure1"),
    # Figures 3-5 are forms of the Figure 2 program on one PFG.
    pytest.param(FIGURE2_SOURCE, id="figure2-5"),
] + [pytest.param(p.read_text(encoding="utf-8"), id=p.stem) for p in EXAMPLES]

SOURCES = (
    FILES
    + [
        pytest.param(generate_source(config), id=f"seed{config.seed}")
        for config in (
            GeneratorConfig(seed=7, stmts_per_thread=10, n_shared=6, n_locks=2,
                            p_critical=0.6, p_if=0.2),
            GeneratorConfig(seed=3, n_threads=3, stmts_per_thread=6, n_shared=2,
                            n_locks=1, n_events=1),
            GeneratorConfig(seed=11, stmts_per_thread=8, n_locks=2, p_while=0.2,
                            p_if=0.3, n_barriers=1),
        )
    ]
)


def edge_lists(graph):
    return (
        [(e.src_block, e.dst_block, e.var, e.kind) for e in graph.conflict_edges],
        [(e.lock_block, e.unlock_block, e.lock_name) for e in graph.mutex_edges],
        [(e.set_block, e.wait_block, e.event_name) for e in graph.sync_edges],
    )


def eager_edges(source):
    """The lists as CSSA construction used to build them: from the pre-π
    access sites, right after π placement."""
    program = build(source)
    graph = build_flow_graph(program)
    build_ssa(program, graph)
    sites = collect_access_sites(graph)
    place_pi_terms(program, graph, AccessRelation(graph, sites))
    add_conflict_edges(graph, sites)
    add_mutex_edges(graph)
    add_sync_edges(graph)
    return edge_lists(graph)


def unbuilt(graph):
    return graph._conflict_edges is None


@pytest.mark.parametrize("source", SOURCES)
def test_lazy_lists_equal_the_eager_ones(source):
    want = eager_edges(source)
    plain = build_cssame(build(source), prune=False).graph
    pruned = build_cssame(build(source)).graph  # read after A.3 ran
    for graph in (plain, pruned):
        assert graph.edge_inputs.count_conflict_edges() == len(want[0])
        assert unbuilt(graph)
        assert edge_lists(graph) == want
        assert not unbuilt(graph)
        assert edge_lists(graph) == want


@pytest.mark.parametrize("source", FILES)
def test_lazy_lists_survive_pickling(source):
    graph = build_cssame(build(source)).graph
    loaded = pickle.loads(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
    assert unbuilt(loaded)
    assert edge_lists(loaded) == eager_edges(source)


def test_edge_inputs_keep_and_pickle_no_access_site():
    block_level = {"paths", "writes", "concurrent", "locks", "unlocks", "sets", "waits"}
    graph = build_cssame(build(FIGURE2_SOURCE)).graph
    assert set(vars(graph.edge_inputs)) == block_level  # sites dropped after π placement
    fresh = PFGEdgeInputs(graph, collect_access_sites(graph))
    assert fresh.sites["a"]
    loaded = pickle.loads(pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL))
    assert set(vars(loaded)) == block_level
    edges = [(e.src_block, e.dst_block, e.var, e.kind) for e in fresh.conflict_edges()]
    assert edges
    assert [(e.src_block, e.dst_block, e.var, e.kind) for e in loaded.conflict_edges()] == edges


class SlowInputs:
    """Edge inputs whose builds take long enough that every reader
    arrives while the first build is still running."""

    def __init__(self, inputs):
        self.inputs = inputs

    def conflict_edges(self):
        time.sleep(0.05)
        return self.inputs.conflict_edges()


def test_concurrent_first_reads_all_see_the_full_list():
    want = eager_edges(FIGURE2_SOURCE)[0]
    assert want
    graph = build_cssame(build(FIGURE2_SOURCE)).graph
    graph.edge_inputs = SlowInputs(graph.edge_inputs)
    start = threading.Barrier(4)
    seen = []

    def read():
        start.wait()
        seen.append([(e.src_block, e.dst_block, e.var, e.kind) for e in graph.conflict_edges])

    threads = [threading.Thread(target=read) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == [want] * 4


def test_assigning_a_list_replaces_a_lazy_one():
    graph = build_cssame(build(FIGURE2_SOURCE)).graph
    graph.conflict_edges = []
    assert graph.conflict_edges == []
    assert graph.mutex_edges  # the other lists stay lazy and intact
