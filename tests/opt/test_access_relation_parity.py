"""π placement, LICM and LVN against the all-sites scan they asked before.

The passes ask :class:`~repro.cfg.conflicts.AccessRelation`, which
counts only memory accesses (:func:`~repro.cfg.conflicts.is_memory_access`).
``concurrent_sites_oracle.ConcurrentSites`` keeps the scan they asked
before, over every site, φ terms included.  Every π conflict set, every
LICM ``lock_independent``/``accesses_independent`` answer and every LVN
reuse-guard answer is compared, on the CSSAME and the plain CSSA
pipeline.

π placement, CSCC and LVN ask for concurrent definitions only, which
are ``SAssign`` sites either way.  LICM also asks whether a variable a
statement writes has *any* concurrent access, and there the scan counts
φ terms.  A φ of ``v`` in a parallel thread usually comes with an
``SAssign`` of ``v`` in that thread, so the answers agree; but once CSCC
has folded the assignment away and PDCE has removed it, a φ can be left
alone (``a1 = phi(a);``).  It reads and writes nothing when the program
runs, so Definition 5 holds and the relation lets the statement move:
the one kind of difference allowed below.
"""

from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import AccessRelation, collect_access_sites
from repro.cssa import builder as cssa_builder
from repro.cssame import build_cssame
from repro.ir.stmts import Phi, SAssign
from repro.opt import licm, lvn
from repro.opt.pipeline import optimize
from repro.verify.equivalence import exhaustive_equivalence
from tests.cfg.concurrent_sites_oracle import ConcurrentSites
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build
from tests.mutex.test_races_oracle import _programs

ROOT = Path(__file__).resolve().parents[2]
SOURCES = {"figure1": FIGURE1_SOURCE, "figure2": FIGURE2_SOURCE}
SOURCES.update(
    (path.stem, path.read_text()) for path in sorted((ROOT / "examples").glob("*.par"))
)
PASSES = ("constprop", "lvn", "pdce", "licm")

#: T1 merges the shared ``a`` at a loop header and at an if join; T0
#: writes ``a`` under L
PHI_IN_THREAD = """
cobegin
T0: begin lock(L); x = 1; a = x + 2; unlock(L); end
T1: begin n = 0; while (n < 3) { a = a + n; n = n + 1; } if (n > 1) { a = 4; } print(a); end
coend
print(a, x);
"""


def _reference(graph):
    return ConcurrentSites(graph, collect_access_sites(graph))


def _reference_accesses_independent(concurrent, stmt, block):
    for name in licm._used_vars(stmt):
        if concurrent.of(name, block, real_defs=True):
            return False
    target = stmt.def_name()
    return not (target is not None and concurrent.of(target, block))


def _reference_lock_independent(concurrent, stmt, block):
    if not isinstance(stmt, SAssign) or licm._contains_call(stmt.value):
        return False
    return _reference_accesses_independent(concurrent, stmt, block)


def _only_phis_differ(concurrent, stmt, block) -> bool:
    """The scan's answer is "not independent" only because of φ terms of
    the statement's target in parallel blocks."""
    if any(concurrent.of(name, block, real_defs=True) for name in licm._used_vars(stmt)):
        return False
    sites = concurrent.of(stmt.def_name(), block)
    return bool(sites) and all(isinstance(site.stmt, Phi) for site in sites)


@contextmanager
def _compared():
    """Patch π placement, LICM and LVN so each answer is also asked of
    the reference scan; yields ``{check: [(got, reference), ...]}``.  A
    LICM answer whose difference :func:`_only_phis_differ` explains is
    recorded as ``(True, True)`` under ``"phi_only"`` instead."""
    answers = {
        "pi": [], "lock_independent": [], "accesses_independent": [], "lvn": [], "phi_only": []
    }

    place = cssa_builder.place_pi_terms

    def place_pi_terms(program, graph, accesses):
        reference = _reference(graph)  # the pre-π sites, as before
        pis = place(program, graph, accesses)
        for pi in pis:
            block = graph.block_of(pi)
            want = [
                (pi.var_name, d.stmt.version, d.stmt)
                for d in reference.of(pi.var_name, block, real_defs=True)
            ]
            got = [(c.name, c.version, c.def_site) for c in pi.conflicts]
            answers["pi"].append((got, want))
        return pis

    class Conflicts(licm._Conflicts):
        def __init__(self, graph):
            super().__init__(graph)
            self.reference = _reference(graph)

        def _record(self, check, got, want, stmt, block):
            if got and not want and _only_phis_differ(self.reference, stmt, block):
                check, want = "phi_only", True
            answers[check].append((got, want))
            return got

        def lock_independent(self, stmt, block):
            got = super().lock_independent(stmt, block)
            want = _reference_lock_independent(self.reference, stmt, block)
            return self._record("lock_independent", got, want, stmt, block)

        def accesses_independent(self, stmt, block):
            got = super().accesses_independent(stmt, block)
            want = _reference_accesses_independent(self.reference, stmt, block)
            return self._record("accesses_independent", got, want, stmt, block)

    references = []

    def lvn_graph(program):
        graph = build_flow_graph(program)
        references.append(_reference(graph))
        return graph

    can_reuse = lvn._BlockTable.can_reuse

    def checked_can_reuse(table, base):
        got = can_reuse(table, base)
        want = not references[-1].of(base, table.block, real_defs=True)
        answers["lvn"].append((got, want))
        return got

    with patch.object(cssa_builder, "place_pi_terms", place_pi_terms), patch.object(
        licm, "_Conflicts", Conflicts
    ), patch.object(lvn, "build_flow_graph", lvn_graph), patch.object(
        lvn._BlockTable, "can_reuse", checked_can_reuse
    ):
        yield answers


def _assert_parity(source: str) -> dict:
    with _compared() as answers:
        for use_mutex in (True, False):
            optimize(build(source), passes=PASSES, use_mutex=use_mutex)
    for check, pairs in answers.items():
        assert [pair for pair in pairs if pair[0] != pair[1]] == [], check
    return answers


def _verdicts(answers: dict) -> dict:
    return {
        check: {got for got, _ in pairs}
        for check, pairs in answers.items()
        if check not in ("pi", "phi_only")
    }


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_and_examples_match_the_reference(name):
    assert _assert_parity(SOURCES[name])["pi"]


def test_benchmark_audit_inputs_match_the_reference():
    from perfbench.audit_loop import inputs

    verdicts, phi_only = {}, set()
    for seed in range(3):
        for key, source, _ in inputs(seed):
            answers = _assert_parity(source)
            for check, seen in _verdicts(answers).items():
                verdicts.setdefault(check, set()).update(seen)
            if answers["phi_only"]:
                phi_only.add((seed, key))
    assert verdicts == {
        "lock_independent": {True, False},
        "accesses_independent": {True, False},
        "lvn": {True, False},
    }
    # T0 keeps ``s22 = phi(s20);`` under LK1 and no access of s2, so
    # T1's ``s23 = ts301 - 1;`` now sinks past its unlock(LK1).
    assert phi_only == {(1, "audit:0:1")}


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_smallest_ladder_rung_matches_the_reference(workload):
    from perfbench.compile_loop import ladder

    _key, source = ladder(workload, 0)[0]
    answers = _assert_parity(source)
    assert answers["pi"] and answers["lock_independent"] and answers["lvn"]


@settings(max_examples=40, deadline=None)
@given(_programs())
def test_generated_nested_lock_programs_match_the_reference(source):
    _assert_parity(source)


def test_phis_of_a_shared_variable_in_a_parallel_thread():
    answers = _assert_parity(PHI_IN_THREAD)
    assert answers["pi"] and answers["lock_independent"]

    # On the graph LICM sees, the scan counts T1's φ terms of ``a`` as
    # accesses parallel with T0's body and the relation does not; both
    # still find an access, T1's own assignments to ``a``.
    program = build(PHI_IN_THREAD)
    build_cssame(program)
    graph = build_flow_graph(program)
    reference = _reference(graph)
    relation = AccessRelation(graph, collect_access_sites(graph))
    body = next(
        block
        for block in graph.blocks
        if any(isinstance(s, SAssign) and s.target == "x" for s in block.stmts)
    )
    scanned = reference.of("a", body)
    parallel = relation.parallel("a", body.thread_path)
    assert any(isinstance(site.stmt, Phi) for site in scanned)
    assert not any(isinstance(site.stmt, Phi) for site in parallel)
    defs = relation.parallel_defs("a", body.thread_path)
    assert [s.stmt for s in scanned if s.is_real_def] == [s.stmt for s in defs]
    assert any(site.is_def for site in parallel)

    # CSCC folds T0's write to ``a0 = 3;``, which stays under L.
    t0 = optimize(build(PHI_IN_THREAD), passes=PASSES).listings["licm"].split("T1:")[0]
    assert t0.index("lock(L);") < t0.index("a0 = 3;") < t0.index("unlock(L);")


#: after CSCC folds T0's ``if`` and PDCE removes ``a = 1``, T0 keeps only
#: ``a1 = phi(a);`` under L: no runtime access of ``a``
PRUNED_PHI = """
k = 6;
cobegin
T0: begin lock(L); if (k > 100) { a = 1; } unlock(L); end
T1: begin lock(L); a = 3; b = a + 1; unlock(L); end
coend
print(a, b);
"""


def test_a_lone_phi_in_a_parallel_thread_is_no_access():
    answers = _assert_parity(PRUNED_PHI)
    assert answers["phi_only"]

    report = optimize(build(PRUNED_PHI))
    assert "a1 = phi(a);" in report.listings["pdce"]
    # T1's lock is gone: ``a2 = 3;`` is lock independent and moved out,
    # and the emptied body was removed with its lock/unlock pair.
    t1 = report.listings["licm"].split("T1: begin")[1]
    assert "a2 = 3;" in t1 and "lock(L)" not in t1

    program = build(PRUNED_PHI)
    optimize(program)
    result = exhaustive_equivalence(build(PRUNED_PHI), program)
    assert result.equal and result.complete
