"""Property tests: every optimization pass preserves the outcome set.

Equality is checked against the CSSAME-form baseline (identical
read/write granularity — see the atomicity contract in
repro.verify.equivalence); additionally the original source program must
*refine into* its CSSA form.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.structured import clone_program
from repro.opt import (
    concurrent_constant_propagation,
    lock_independent_code_motion,
    parallel_dead_code_elimination,
)
from repro.opt.pipeline import optimize
from repro.cssame import build_cssame
from repro.synth import GeneratorConfig, generate_program
from repro.verify import exhaustive_equivalence, exhaustive_refinement

_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 5_000),
    n_threads=st.just(2),
    stmts_per_thread=st.integers(1, 4),
    n_shared=st.integers(1, 2),
    n_private=st.integers(0, 1),
    n_locks=st.integers(0, 2),
    p_if=st.floats(0.0, 0.3),
    p_critical=st.floats(0.0, 0.9),
    p_call=st.floats(0.0, 0.2),
    race_free=st.booleans(),
)

_MAX_STATES = 120_000


def _check(baseline, transformed):
    res = exhaustive_equivalence(baseline, transformed, max_states=_MAX_STATES)
    if not res.complete:
        return  # exploration budget exceeded — skip
    assert res.equal, res.explain()


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_source_refines_into_cssa_form(config):
    source = generate_program(config)
    pristine = clone_program(source)
    build_cssame(source, prune=False)
    res = exhaustive_refinement(pristine, source, max_states=_MAX_STATES)
    if res.complete:
        assert res.equal, res.explain()


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_constprop_preserves_outcomes(config):
    program = generate_program(config)
    form = build_cssame(program)
    baseline = clone_program(program)
    concurrent_constant_propagation(program, form.graph)
    _check(baseline, program)


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_pdce_preserves_outcomes(config):
    program = generate_program(config)
    build_cssame(program)
    baseline = clone_program(program)
    parallel_dead_code_elimination(program)
    _check(baseline, program)


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_licm_preserves_outcomes(config):
    program = generate_program(config)
    build_cssame(program)
    baseline = clone_program(program)
    lock_independent_code_motion(program)
    _check(baseline, program)


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_full_pipeline_preserves_outcomes(config):
    program = generate_program(config)
    report = optimize(program)
    _check(report.baseline, program)


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_pipeline_without_mutex_also_sound(config):
    program = generate_program(config)
    report = optimize(program, use_mutex=False)
    _check(report.baseline, program)


@given(_configs)
@settings(max_examples=20, deadline=None)
def test_lvn_preserves_outcomes(config):
    from repro.opt import local_value_numbering

    program = generate_program(config)
    build_cssame(program)
    baseline = clone_program(program)
    local_value_numbering(program)
    _check(baseline, program)


@given(_configs)
@settings(max_examples=15, deadline=None)
def test_extended_pipeline_with_lvn(config):
    program = generate_program(config)
    report = optimize(program, passes=("constprop", "lvn", "pdce", "licm"))
    _check(report.baseline, program)


@given(_configs, st.integers(1, 2))
@settings(max_examples=15, deadline=None)
def test_pipeline_sound_with_barriers(config, n_barriers):
    config.n_barriers = n_barriers
    program = generate_program(config)
    report = optimize(program)
    _check(report.baseline, program)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known LICM defect: A.5 lines 43-45 delete T0's emptied lock(LK0) "
        "pair, which still kept T0 out while T1 held LK0 (47 outcomes vs "
        "44); see DESIGN.md section 4b, note 5"
    ),
)
def test_licm_keeps_an_emptied_section_that_orders_threads():
    """Pinned counterexample, found by hypothesis in
    ``test_pipeline_without_mutex_also_sound``.

    LICM hoists T0's two private statements out of its ``lock(LK0)``
    section and then removes the empty Lock/Unlock pair.  The empty
    section was not a no-op: T0 could not pass it while T1 held LK0,
    so T0's later accesses to the shared variable never fell inside
    T1's section.  Without it they do, and three new outcomes appear.
    """
    config = GeneratorConfig(
        seed=490,
        n_threads=2,
        stmts_per_thread=4,
        n_shared=1,
        n_private=1,
        n_locks=2,
        p_if=0.0,
        p_critical=0.375,
        p_call=0.0,
        race_free=False,
    )
    program = generate_program(config)
    report = optimize(program, passes=("licm",))
    assert report.licm.locks_removed == 2
    res = exhaustive_equivalence(report.baseline, program, max_states=_MAX_STATES)
    assert res.complete
    assert res.equal, res.explain()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known LICM defect: A.5 lines 43-45 delete T0's emptied lock(LK0) "
        "pair, which still kept T0 out while T1 held LK0 (4 outcomes vs "
        "3); see DESIGN.md section 4b, note 5"
    ),
)
def test_licm_keeps_a_second_emptied_section_that_orders_threads():
    """Second pinned counterexample, found by hypothesis in
    ``test_extended_pipeline_with_lvn``.

    LICM hoists T0's private statements out of its ``lock(LK0)``
    section and removes the emptied pair.  T0's last write to ``s0``
    can then fall inside T1's ``lock(LK0)`` section, between T1's read
    of the initial 5 and its write of 25, so T1's write can come last
    and the program can print 25, which the original cannot.
    """
    config = GeneratorConfig(
        seed=3478,
        n_threads=2,
        stmts_per_thread=4,
        n_shared=1,
        n_private=1,
        n_locks=2,
        p_if=0.0,
        p_critical=0.75,
        p_call=0.0,
        race_free=False,
    )
    program = generate_program(config)
    report = optimize(program, passes=("licm",))
    res = exhaustive_equivalence(report.baseline, program, max_states=_MAX_STATES)
    assert res.complete
    assert res.equal, res.explain()
