"""Algorithm A.1 by dominator intervals ≡ the all-pairs formulation.

``identify_mutex_structures`` finds the Unlocks a Lock dominates, the
ops inside a candidate and a body's nodes by querying Euler intervals
of the dominator and post-dominator trees.  The oracle below is the
paper's algorithm written out literally, testing every Lock × Unlock
pair and every op and block with ``dominates``.  Both must return the
same bodies with the same ``nodes``, in the same order (LICM visits
``structure.bodies`` in that order).
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.cfg.blocks import NodeKind
from repro.cfg.builder import build_flow_graph
from repro.cfg.dominance import compute_dominators, compute_postdominators
from repro.cssame.builder import build_cssame
from repro.mutex.identify import identify_mutex_structures
from repro.opt.pipeline import optimize
from repro.synth import GeneratorConfig, generate_program
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build


def all_pairs_identify(graph):
    """Algorithm A.1 exactly as printed: lock name → [(n, x, nodes)]."""
    domtree = compute_dominators(graph)
    pdomtree = compute_postdominators(graph)
    plock, punlock = {}, {}
    for block in graph.nodes_of_kind(NodeKind.LOCK):
        plock.setdefault(block.stmts[0].lock_name, []).append(block.id)
    for block in graph.nodes_of_kind(NodeKind.UNLOCK):
        punlock.setdefault(block.stmts[0].lock_name, []).append(block.id)
    result = {}
    for lock_name in sorted(set(plock) | set(punlock)):
        locks = plock.get(lock_name, [])
        unlocks = punlock.get(lock_name, [])
        bodies = []
        for n in locks:
            for x in unlocks:
                if not (domtree.dominates(n, x) and pdomtree.dominates(x, n)):
                    continue
                if any(
                    m not in (n, x)
                    and domtree.dominates(n, m)
                    and pdomtree.dominates(x, m)
                    for m in locks + unlocks
                ):
                    continue
                nodes = frozenset(
                    b
                    for b in range(len(graph.blocks))
                    if b != n and domtree.dominates(n, b) and pdomtree.dominates(x, b)
                )
                bodies.append((n, x, nodes))
        result[lock_name] = bodies
    return result


def interval_identify(graph):
    return {
        name: [(b.lock_node, b.unlock_node, b.nodes) for b in structure.bodies]
        for name, structure in identify_mutex_structures(graph).items()
    }


def assert_same_structures(graph):
    assert interval_identify(graph) == all_pairs_identify(graph)


def graphs_of(source):
    """The graphs A.1 runs on in a journey: the plain PFG, the CSSAME
    form's, and the PFG of the optimized program."""
    yield build_flow_graph(build(source))
    yield build_cssame(build(source)).graph
    program = build(source)
    optimize(program)
    yield build_flow_graph(program)


#: ill-formed and unusual synchronization, where A.1 drops candidates
ODD_SOURCES = [
    "lock(L); a = 1; unlock(L); lock(L); b = 2; unlock(L);",
    "lock(L); lock(L); a = 1; unlock(L); unlock(L);",
    "lock(L); if (c) { unlock(L); } a = 1;",
    "if (c) { lock(L); } a = 1; unlock(L);",
    "lock(L); while (c) { a = a + 1; } unlock(L);",
    "while (c) { lock(L); a = a + 1; unlock(L); }",
    "lock(A); lock(B); a = 1; unlock(A); unlock(B);",
    "lock(L); if (c) { a = 1; } else { lock(L); a = 2; unlock(L); } unlock(L);",
    """
    cobegin
    begin lock(A); lock(B); x = 1; unlock(B); unlock(A); end
    begin lock(B); cobegin begin lock(A); y = 2; unlock(A); end
                           begin z = 3; end coend unlock(B); end
    coend
    print(x);
    """,
]


class TestFixtures:
    def test_figure1(self):
        for graph in graphs_of(FIGURE1_SOURCE):
            assert_same_structures(graph)

    def test_figure2_through_figure5(self):
        # Figures 3-5 are the Figure 2 program in CSSA, CSSAME and
        # optimized form: every graph of its journey.
        for graph in graphs_of(FIGURE2_SOURCE):
            assert_same_structures(graph)

    def test_examples(self):
        paths = sorted((Path(__file__).parents[2] / "examples").glob("*.par"))
        assert paths
        for path in paths:
            for graph in graphs_of(path.read_text(encoding="utf-8")):
                assert_same_structures(graph)

    def test_odd_synchronization(self):
        for source in ODD_SOURCES:
            assert_same_structures(build_flow_graph(build(source)))


_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 100_000),
    n_threads=st.integers(1, 3),
    stmts_per_thread=st.integers(1, 12),
    n_shared=st.integers(1, 3),
    n_private=st.integers(0, 2),
    n_locks=st.integers(0, 3),
    p_critical=st.floats(0.0, 1.0),
    p_if=st.floats(0.0, 0.4),
    p_while=st.floats(0.0, 0.3),
    max_depth=st.integers(1, 3),
)


@given(_configs)
@settings(max_examples=60, deadline=None)
def test_generated_programs(config):
    program = generate_program(config)
    assert_same_structures(build_flow_graph(program))
    assert_same_structures(build_cssame(program).graph)
