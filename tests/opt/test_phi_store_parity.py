"""CSCC's φ store check ≡ the inline Theorem 1/2 loop it replaced.

CSCC materializes a constant φ only when A.3 would remove every
concurrent real definition of its variable from a π placed at the φ;
it asks :class:`~repro.cssame.exposure.MutexBodyOracle`, the object A.3
uses.  ``phi_store_oracle.PhiStoreReference`` keeps the check as CSCC
wrote it before.  Every φ CSCC considers must get the same verdict from
both, on the CSSAME and the plain CSSA pipeline.
"""

from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings

from repro.cssame import build_cssame
from repro.cssame.exposure import MutexBodyOracle
from repro.ir.stmts import Phi, SAssign
from repro.ir.structured import iter_statements
from repro.obs.events import REASON_NOT_UPWARD_EXPOSED
from repro.opt.concprop import _Transformer
from repro.opt.pipeline import optimize
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build
from tests.mutex.test_races_oracle import _programs
from tests.opt.phi_store_oracle import PhiStoreReference

ROOT = Path(__file__).resolve().parents[2]
SOURCES = {"figure1": FIGURE1_SOURCE, "figure2": FIGURE2_SOURCE}
SOURCES.update(
    (path.stem, path.read_text()) for path in sorted((ROOT / "examples").glob("*.par"))
)

#: T0 holds LA then LB; T1 writes ``a`` under LB only, so the φ of the
#: ``if`` is safe to store through LB's structure alone (Theorem 2: the
#: φ point is not upward-exposed from T0's LB body)
NESTED = """
cobegin
T0: begin lock(LA); lock(LB); a = 5; if (x > 0) {{ a = 13; }} else {{ a = 13; }} unlock(LB); unlock(LA); end
T1: begin {t1} end
coend
print(a);
"""
NESTED_SAFE = NESTED.format(t1="lock(LB); a = 7; unlock(LB);")
NESTED_UNLOCKED = NESTED.format(t1="a = 7;")


@contextmanager
def _compared():
    """Patch CSCC so each φ check also runs the reference; yields the
    ``(φ, verdict, reference verdict)`` list."""
    verdicts = []
    original = _Transformer._phi_store_is_safe
    references = {}

    def checked(transformer, phi):
        got = original(transformer, phi)
        # Holding the transformer keeps its id unique.
        _, reference = references.setdefault(
            id(transformer), (transformer, PhiStoreReference(transformer))
        )
        verdicts.append((phi.ssa_target, got, reference.phi_store_is_safe(phi)))
        return got

    with patch.object(_Transformer, "_phi_store_is_safe", checked):
        yield verdicts


def _assert_parity(source: str) -> list:
    with _compared() as verdicts:
        for use_mutex in (True, False):
            optimize(build(source), use_mutex=use_mutex)
    assert [v for v in verdicts if v[1] != v[2]] == []
    return verdicts


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_and_examples_match_the_reference(name):
    _assert_parity(SOURCES[name])


def test_benchmark_audit_inputs_match_the_reference():
    from perfbench.audit_loop import inputs

    verdicts = set()
    for seed in range(3):
        for _key, source, _ in inputs(seed):
            verdicts.update(got for _, got, _ in _assert_parity(source))
    assert verdicts == {True, False}


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_smallest_ladder_rung_matches_the_reference(workload):
    from perfbench.compile_loop import ladder

    _key, source = ladder(workload, 0)[0]
    assert _assert_parity(source)


@settings(max_examples=40, deadline=None)
@given(_programs())
def test_generated_nested_lock_programs_match_the_reference(source):
    _assert_parity(source)


def test_store_safe_through_the_inner_structure_only():
    verdicts = _assert_parity(NESTED_SAFE)
    assert ("a3", True, True) in verdicts
    report = optimize(build(NESTED_SAFE))
    assert "a3 = 13;" in report.listings["constprop"]

    program = build(NESTED_SAFE)
    form = build_cssame(program)
    stmts = {
        stmt.ssa_target: stmt
        for stmt, _ in iter_statements(program)
        if isinstance(stmt, (Phi, SAssign))
    }
    phi, write = stmts["a3"], stmts["a4"]
    assert isinstance(phi, Phi) and isinstance(write, SAssign)
    theorems = MutexBodyOracle(form.graph)
    block_id = form.graph.block_of(phi).id
    reasons = {}
    for lock, structure in form.structures.items():
        body = structure.body_of_block(block_id)
        exposed = theorems.exposed(body, "a", phi)
        reasons[lock] = theorems.removal(write, structure, body, exposed)
    assert reasons == {"LA": None, "LB": REASON_NOT_UPWARD_EXPOSED}


def test_unlocked_concurrent_write_blocks_the_store():
    verdicts = _assert_parity(NESTED_UNLOCKED)
    assert ("a3", False, False) in verdicts
    report = optimize(build(NESTED_UNLOCKED))
    assert "a3 = 13;" not in report.listings["constprop"]
