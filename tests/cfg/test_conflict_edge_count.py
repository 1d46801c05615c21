"""``AccessRelation.count_conflict_edges`` counts by arithmetic over the
block-level lists and must equal ``len(conflict_edges())``: on the
figures, the examples and a sweep of generated programs, on the plain
PFG's relation and on the CSSA forms' edge inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.cssame import build_cssame
from repro.synth import GeneratorConfig, generate_source
from tests.cfg.test_lazy_edges import FILES
from tests.conftest import build


def _assert_count(source: str) -> None:
    graph = build_flow_graph(build(source))
    relations = [AccessRelation(graph, collect_access_sites(graph))]
    for prune in (False, True):
        relations.append(build_cssame(build(source), prune=prune).graph.edge_inputs)
    for relation in relations:
        assert relation.count_conflict_edges() == len(relation.conflict_edges())


@pytest.mark.parametrize("source", FILES)
def test_figures_and_examples(source):
    _assert_count(source)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        GeneratorConfig,
        seed=st.integers(0, 10_000),
        n_threads=st.integers(2, 3),
        stmts_per_thread=st.integers(2, 8),
        n_shared=st.integers(1, 4),
        n_locks=st.integers(0, 2),
        p_critical=st.sampled_from([0.0, 0.5, 0.9]),
        p_if=st.sampled_from([0.0, 0.3]),
        p_while=st.sampled_from([0.0, 0.2]),
        n_barriers=st.integers(0, 1),
        n_events=st.integers(0, 1),
    )
)
def test_generated_programs(config):
    _assert_count(generate_source(config))
