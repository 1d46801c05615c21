"""Factored π conflict sets ≡ the per-argument form.

π placement gives every use of ``v`` on one thread path one shared
:class:`~repro.ir.stmts.ConflictSet`; A.3, event-ordering pruning and
CSCC then work once per set.  The oracles below are the per-π,
per-argument formulations those passes replaced, written out
literally.  Run in their place, they must give the same expanded
listings after every phase, the same A.3 decision events and the same
form counts.  The other tests pin the properties the factoring relies
on: copy-on-write, linear stored size, and sharing that survives
``clone_program`` and pickling.
"""

import math
import pickle
import random
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cssame import build_cssame, parallel_reaching_definitions
from repro.cssame.exposure import BodyDataflow
from repro.cssame.ordering import EventOrdering, OrderingStats
from repro.cssame.rewrite import RewriteStats, _record_removal
from repro.errors import AnalysisError
from repro.ir.expr import EVar
from repro.ir.printer import format_ir
from repro.ir.stmts import IRStmt, Pi, SAssign
from repro.ir.structured import (
    clone_program,
    count_statements,
    iter_statements,
    remove_stmt,
)
from repro.obs.events import (
    REASON_DOES_NOT_REACH_EXIT,
    REASON_NOT_UPWARD_EXPOSED,
    PiDeleted,
)
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.opt.concprop import _Analysis, _Transformer, concurrent_constant_propagation
from repro.opt.lattice import meet, meet_all, TOP
from repro.opt.pipeline import optimize
from repro.report import measure_form
from repro.ssa.chains import build_use_map
from repro.synth import GeneratorConfig, generate_source
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build

EXAMPLES = sorted((Path(__file__).parents[2] / "examples").glob("*.par"))

# -- oracles: the per-argument passes ------------------------------------


def _delete_reduced(program, graph, pis):
    deleted = []
    reduced = [pi for pi in pis if not pi.conflicts and pi.parent is not None]
    if reduced:
        usemap = build_use_map(program)
        for pi in reduced:
            control = pi.control
            uses = usemap.uses_of(pi)
            for use, _holder in uses:
                use.name = control.name
                use.version = control.version
                use.def_site = control.def_site
            remove_stmt(pi)
            graph.block_of(pi).stmts.remove(pi)
            deleted.append((pi, len(uses)))
        graph.reindex_statements()
    return deleted


def per_argument_rewrite(program, graph, structures):
    """Algorithm A.3 judged per π and per argument."""
    stats = RewriteStats()
    tracer = get_tracer()
    pis = [s for s, _ in iter_statements(program) if isinstance(s, Pi)]
    stats.pis_before = len(pis)
    stats.args_before = sum(len(pi.conflicts) for pi in pis)
    dataflow = {}

    def flow(body):
        return dataflow.setdefault(id(body), BodyDataflow(graph, body))

    for _lock, structure in sorted(structures.items()):
        for body in structure.bodies:
            for block_id in sorted(body.nodes):
                for pi in graph.blocks[block_id].stmts:
                    if not isinstance(pi, Pi):
                        continue
                    use_block, use_index = graph.location_of(pi)
                    kept = []
                    for arg in pi.conflicts:
                        if not isinstance(arg.def_site, SAssign):
                            raise AnalysisError(f"bad π argument {arg!r}")
                        def_block, def_index = graph.location_of(arg.def_site)
                        other = structure.body_of_block(def_block)
                        if other is None or other is body:
                            kept.append(arg)
                        elif not flow(body).upward_exposed(
                            pi.var_name, use_block, use_index
                        ):
                            stats.args_removed += 1
                            _record_removal(
                                tracer, structure, pi, arg, REASON_NOT_UPWARD_EXPOSED
                            )
                        elif not flow(other).reaches_exit(
                            pi.var_name, def_block, def_index
                        ):
                            stats.args_removed += 1
                            _record_removal(
                                tracer, structure, pi, arg, REASON_DOES_NOT_REACH_EXIT
                            )
                        else:
                            kept.append(arg)
                    pi.conflicts = kept
    for pi, nuses in _delete_reduced(program, graph, pis):
        stats.pis_deleted += 1
        if tracer.enabled:
            tracer.event(PiDeleted(pi.var_name, pi.target, pi.control.ssa_name, nuses))
            tracer.counter("cssame.pis_deleted").inc()
    return stats


def per_argument_ordering(program, graph, domtree=None):
    """Event-ordering pruning judged per π and per argument."""
    stats = OrderingStats()
    ordering = EventOrdering(graph, domtree)
    if not ordering.set_nodes or not ordering.wait_nodes:
        return stats
    pis = [s for s, _ in iter_statements(program) if isinstance(s, Pi)]
    for pi in pis:
        if not graph.contains_stmt(pi):
            continue
        use_block = graph.block_of(pi).id
        kept = []
        for arg in pi.conflicts:
            site = arg.def_site
            if isinstance(site, SAssign) and graph.contains_stmt(site):
                if ordering.must_precede(use_block, graph.block_of(site).id):
                    stats.args_removed += 1
                    continue
            kept.append(arg)
        pi.conflicts = kept
    stats.pis_deleted = len(_delete_reduced(program, graph, pis))
    return stats


def _executable(analysis, arg):
    site = arg.def_site
    if isinstance(site, IRStmt) and analysis.graph.contains_stmt(site):
        return analysis.graph.block_of(site).id in analysis.executable_blocks
    return True


class PerArgumentAnalysis(_Analysis):
    """CSCC meeting each π's arguments one by one, and re-evaluating
    every holder of a changed definition."""

    def evaluate(self, stmt):
        if not isinstance(stmt, Pi):
            return super().evaluate(stmt)
        self.evals += 1
        vals = [self.value_of_var(stmt.control)]
        vals += [self.value_of_var(a) for a in stmt.conflicts if _executable(self, a)]
        return meet_all(vals)

    def _update(self, stmt, new):
        old = self.values.get(stmt, TOP)
        merged = meet(old, new)
        self.values[stmt] = merged
        if merged != old:
            for holder in self.usemap.holders_of(stmt):
                self._requeue(holder)


class PerArgumentTransformer(_Transformer):
    def _prune_pi_args(self, pi):
        pi.conflicts = [a for a in pi.conflicts if _executable(self.a, a)]


def use_oracles(patch):
    """Swap every factored π pass for its per-argument oracle."""
    patch.setattr("repro.cssame.builder.rewrite_pi_terms", per_argument_rewrite)
    patch.setattr("repro.cssame.builder.prune_pi_terms_by_ordering", per_argument_ordering)
    patch.setattr("repro.opt.concprop._Analysis", PerArgumentAnalysis)
    patch.setattr("repro.opt.concprop._Transformer", PerArgumentTransformer)


# -- what must match ------------------------------------------------------

DECISIONS = ("pi-arg-removed", "pi-deleted")


def journey(source):
    """Listings after every phase, A.3 decisions and form counts."""
    tracer = Tracer()
    with use_tracer(tracer):
        report = optimize(build(source))
    events = [
        (e.kind, e.payload()) for e in tracer.events() if e.kind in DECISIONS
    ]
    cssa = measure_form(build_cssame(build(source), prune=False).program)
    return {
        "listings": report.listings,
        "events": events,
        "form": measure_form(report.baseline).as_dict(),
        "cssa_form": cssa.as_dict(),
    }


def assert_factored_matches(source):
    factored = journey(source)
    with pytest.MonkeyPatch.context() as patch:
        use_oracles(patch)
        expanded = journey(source)
    assert factored == expanded


SOURCES = [
    pytest.param(FIGURE1_SOURCE, id="figure1"),
    # Figures 3-5 are the Figure 2 program's CSSA, CSSAME and optimized
    # listings, all compared by journey().
    pytest.param(FIGURE2_SOURCE, id="figure2-5"),
    # Each thread reads the other's write: a π is met before its
    # conflict set's definition runs, and must be met again after.
    pytest.param(
        "cobegin begin x = 1; r = y; end begin y = 2; s = x; end coend print(r, s);",
        id="cross-reads",
    ),
] + [pytest.param(p.read_text(encoding="utf-8"), id=p.stem) for p in EXAMPLES]


@pytest.mark.parametrize("source", SOURCES)
def test_factored_passes_match_per_argument_oracles(source):
    assert_factored_matches(source)


_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 100_000),
    n_threads=st.integers(2, 3),
    stmts_per_thread=st.integers(1, 10),
    n_shared=st.integers(1, 4),
    n_locks=st.integers(0, 2),
    p_critical=st.floats(0.0, 1.0),
    p_if=st.floats(0.0, 0.4),
    p_while=st.floats(0.0, 0.3),
    n_events=st.integers(0, 1),
)


@given(_configs)
@settings(max_examples=40, deadline=None)
def test_generated_programs_match_per_argument_oracles(config):
    assert_factored_matches(generate_source(config))


# -- the factored form's own properties -----------------------------------


def contended_source(n, seed=0):
    """About ``n`` assignments over two threads, shaped like the
    ``contended`` benchmark: 6 shared variables, 2 locks, 60 % of the
    statements locked, half of the statements writing a shared one."""
    rng = random.Random(seed)
    shared = [f"s{i}" for i in range(6)]
    threads = []
    for t in range(2):
        private = [f"p{t}x{i}" for i in range(4)]
        lines, left = [], n // 2
        while left > 0:
            k = min(rng.randint(1, 4), left)
            left -= k
            body = [
                f"{rng.choice(shared if rng.random() < 0.5 else private)} = "
                f"{rng.choice(shared + private)} + {rng.randint(1, 9)};"
                for _ in range(k)
            ]
            if rng.random() < 0.6:
                lock = rng.choice("AB")
                body = [f"lock({lock});", *body, f"unlock({lock});"]
            lines += body
        threads.append("begin\n" + "\n".join(lines) + "\nend\n")
    return "cobegin\n" + "".join(threads) + "coend\nprint(" + ", ".join(shared) + ");\n"


def pis_of(program):
    return [s for s, _ in iter_statements(program) if isinstance(s, Pi)]


def slope(points):
    """Least-squares slope of log(y) over log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_stored_arguments_grow_linearly():
    stored, expanded = [], []
    for n in (250, 500, 1000, 2000):
        form = build_cssame(build(contended_source(n)), prune=False)
        size = count_statements(form.program)
        sets = {id(pi.conflict_set): pi.conflict_set for pi in form.pis}
        stored.append((size, sum(len(s) for s in sets.values())))
        expanded.append((size, sum(len(pi.conflicts) for pi in form.pis)))
    assert slope(stored) <= 1.2
    assert 1.7 <= slope(expanded) <= 2.3


def test_rewriting_keeps_a_bounded_number_of_sets():
    # A.3 gives each placed set at most one result per (lock, exposure
    # of the use) when locks do not nest, so the CSSAME form stores at
    # most five sets per (variable, thread path) here: linear in size.
    form = build_cssame(build(contended_source(1000)))
    live = form.live_pis()
    placed = {(pi.var_name, form.graph.block_of(pi).thread_path) for pi in live}
    rewritten = {id(pi.conflict_set) for pi in live}
    assert len(rewritten) <= len(placed) * (1 + 2 * len(form.structures))


def test_placement_shares_one_set_per_variable_and_thread_path():
    form = build_cssame(build(contended_source(200)), prune=False)
    by_key = defaultdict(set)
    for pi in form.pis:
        by_key[pi.var_name, form.graph.block_of(pi).thread_path].add(
            id(pi.conflict_set)
        )
    assert by_key and all(len(ids) == 1 for ids in by_key.values())


def test_assigning_conflicts_copies_on_write():
    form = build_cssame(build(contended_source(60)), prune=False)
    holders = defaultdict(list)
    for pi in form.pis:
        holders[id(pi.conflict_set)].append(pi)
    first, second, *_ = max(holders.values(), key=len)
    shared, members = first.conflict_set, first.conflicts
    first.conflicts = []
    assert not first.conflicts
    assert second.conflict_set is shared and second.conflicts == members
    assert shared.members == members
    # Assigning the same members back finds the shared set again.
    first.conflicts = list(members)
    assert first.conflict_set is shared


def _reached(program):
    """A.4's uses(d) per real definition, as (holder, use name) pairs."""
    info = parallel_reaching_definitions(program)
    return {
        id(d): [(id(holder), use.ssa_name) for use, holder in uses]
        for d, uses in info.uses_of_def.items()
    }


@pytest.mark.parametrize("source", [FIGURE1_SOURCE, contended_source(60)])
def test_reaching_definitions_match_the_unshared_form(source):
    form = build_cssame(build(source))
    factored = _reached(form.program)
    for pi in form.live_pis():  # one private copy of each member per π
        pi.conflicts = [EVar(c.name, c.version, c.def_site) for c in pi.conflicts]
    assert factored == _reached(form.program)


def _sharing(program):
    """Each π's index in the list of distinct sets, in program order."""
    index = {}
    return [index.setdefault(id(pi.conflict_set), len(index)) for pi in pis_of(program)]


def test_clone_keeps_sharing_and_remaps_members():
    form = build_cssame(build(contended_source(120)))
    copy = clone_program(form.program)
    assert _sharing(copy) == _sharing(form.program)
    originals = {id(s) for s, _ in iter_statements(form.program)}
    for pi in pis_of(copy):
        assert all(id(arg.def_site) not in originals for arg in pi.conflicts)
    assert format_ir(copy) == format_ir(form.program)


def test_pickled_artifact_keeps_sets_shared_and_propagates_alike():
    form = build_cssame(build(contended_source(120)))
    loaded = pickle.loads(pickle.dumps(form, protocol=pickle.HIGHEST_PROTOCOL))
    assert _sharing(loaded.program) == _sharing(form.program)
    assert len(set(_sharing(form.program))) < len(form.live_pis())
    assert format_ir(loaded.program) == format_ir(form.program)
    for built in (form, loaded):
        concurrent_constant_propagation(
            built.program, built.graph, structures=built.structures
        )
    assert format_ir(loaded.program) == format_ir(form.program)
