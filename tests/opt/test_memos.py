"""The CSCC worklist and the MHP memos change the work, not the answer.

* The Section 5.1 SSA worklist holds a statement at most once: a
  pending re-evaluation already sees every lattice change made before
  it runs.
* MHP depends only on a block's ``thread_path``, so the access
  relation that π placement, CSCC, LVN, LICM and the conflict-edge and
  shared-variable computations read answers it per thread-path class.
  Each must give what the per-block scan gives.
"""

import pytest

from repro.cfg.builder import build_flow_graph
from repro.cfg.concurrency import may_happen_in_parallel
from repro.cfg.conflicts import (
    AccessRelation,
    PFGEdgeInputs,
    collect_access_sites,
    is_memory_access,
    shared_variables,
)
from repro.cssame import build_cssame
from repro.obs.prof import work_counters
from repro.obs.trace import Tracer, use_tracer
from repro.opt.concprop import _Analysis
from repro.opt.pipeline import optimize
from repro.synth import GeneratorConfig, generate_program
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build

#: the shape of the ``contended`` benchmark workload: 2 threads, 6
#: shared variables, 2 locks, 60 % of the statements locked
CONTENDED = GeneratorConfig(
    seed=7,
    n_threads=2,
    stmts_per_thread=10,
    n_shared=6,
    n_locks=2,
    p_critical=0.6,
    p_if=0.2,
)

GENERATED = [
    CONTENDED,
    GeneratorConfig(seed=3, n_threads=3, stmts_per_thread=6, n_shared=2, n_locks=1),
    GeneratorConfig(
        seed=11, n_threads=2, stmts_per_thread=8, n_locks=2, p_while=0.2, p_if=0.3
    ),
]


#: fresh-program factories: the paper's figures and generated programs
PROGRAMS = [
    pytest.param(lambda: build(FIGURE1_SOURCE), id="figure1"),
    pytest.param(lambda: build(FIGURE2_SOURCE), id="figure2"),
] + [
    pytest.param(lambda config=config: generate_program(config), id=f"seed{config.seed}")
    for config in GENERATED
]


class _NoDuplicates(list):
    def append(self, stmt):
        assert all(queued is not stmt for queued in self), f"{stmt!r} queued twice"
        super().append(stmt)


class TestWorklist:
    @pytest.mark.parametrize("make", PROGRAMS)
    def test_no_statement_is_queued_twice(self, make):
        program = make()
        form = build_cssame(program)
        analysis = _Analysis(program, form.graph)
        analysis._ssa = _NoDuplicates()
        analysis.run()
        assert analysis.evals > 0

    def test_lattice_evals_on_a_contended_program(self):
        program = generate_program(CONTENDED)
        tracer = Tracer()
        with use_tracer(tracer):
            optimize(program)
        # 3,167 before the in-queue set stopped re-queuing statements,
        # 1,121 before a π was re-queued only when its conflict set's
        # meet moved.
        assert work_counters(tracer)["work.constprop.lattice_evals"] == 1007


class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


def _unmemoized(relation):
    """Makes every site query of ``relation`` from then on recompute:
    the per-block scan."""

    class Unmemoized(relation):
        def __init__(self, graph, sites):
            super().__init__(graph, sites)
            self._memo = _Forgetful()
            self._masks = _Forgetful()

    return Unmemoized


class TestThreadPathMemos:
    @pytest.mark.parametrize("make", PROGRAMS)
    def test_pi_placement_and_licm_match_the_unmemoized_scan(self, make, monkeypatch):
        passes = ("constprop", "lvn", "pdce", "licm")
        memoized = optimize(make(), passes=passes).listings
        monkeypatch.setattr("repro.cssa.builder.PFGEdgeInputs", _unmemoized(PFGEdgeInputs))
        for module in ("repro.opt.licm", "repro.opt.lvn", "repro.cfg.conflicts"):
            monkeypatch.setattr(f"{module}.AccessRelation", _unmemoized(AccessRelation))
        unmemoized = optimize(make(), passes=passes).listings
        # "cssame" is the π placement's result, "licm" LICM's.
        assert memoized == unmemoized
        assert set(memoized) >= {"cssame", "constprop", "lvn", "licm", "final"}

    def test_memo_answers_per_thread_path(self):
        graph = build_cssame(generate_program(CONTENDED)).graph
        sites = collect_access_sites(graph)
        relation = AccessRelation(graph, sites)
        for block in graph.blocks:
            path = block.thread_path
            for var in sites:
                want = [
                    site
                    for site in sites[var]
                    if is_memory_access(site)
                    and may_happen_in_parallel(block, graph.blocks[site.block_id])
                ]
                assert relation.parallel(var, path) == want
                assert relation.parallel_defs(var, path) == [s for s in want if s.is_def]
                assert relation.parallel(var, path) is relation.parallel(var, path)
        paths = {block.thread_path for block in graph.blocks}
        assert len(relation._memo) <= len(paths) * len(sites)


def _block_pair_shared(graph, sites):
    shared = set()
    for var, accesses in sites.items():
        memory = [s for s in accesses if is_memory_access(s)]
        if any(
            may_happen_in_parallel(graph.blocks[d.block_id], graph.blocks[a.block_id])
            for d in memory
            if d.is_real_def
            for a in memory
        ):
            shared.add(var)
    return shared


def _block_pair_edges(graph, sites):
    edges = []
    for var, accesses in sites.items():
        memory = [s for s in accesses if is_memory_access(s)]
        defs = sorted({s.block_id for s in memory if s.is_real_def})
        uses = sorted({s.block_id for s in memory if not s.is_def})
        for d in defs:
            mhp = lambda b: may_happen_in_parallel(graph.blocks[d], graph.blocks[b])
            edges += [(d, u, var, "DU") for u in uses if mhp(u)]
            edges += [(d, d2, var, "DD") for d2 in defs if d2 > d and mhp(d2)]
    return edges


@pytest.mark.parametrize("make", PROGRAMS)
def test_shared_variables_and_conflict_edges_match_block_pairs(make):
    form = build_cssame(make(), prune=False)
    graph = form.graph
    # The CSSA builder hands the pre-π sites to add_conflict_edges; the
    # edges must be those of the finished form's own sites.
    sites = collect_access_sites(graph)
    assert shared_variables(graph, sites) == _block_pair_shared(graph, sites)
    assert form.shared == _block_pair_shared(graph, sites)
    built = [(e.src_block, e.dst_block, e.var, e.kind) for e in graph.conflict_edges]
    assert built == _block_pair_edges(graph, sites)
    # Audit takes the variables with a conflict edge from ``form.shared``.
    pruned = build_cssame(make())
    for each in (form, pruned):
        assert each.shared == {e.var for e in each.graph.conflict_edges}


def test_plain_pfg_shared_variables_match_block_pairs():
    for source in (FIGURE1_SOURCE, FIGURE2_SOURCE):
        graph = build_flow_graph(build(source))
        sites = collect_access_sites(graph)
        assert shared_variables(graph, sites) == _block_pair_shared(graph, sites)
