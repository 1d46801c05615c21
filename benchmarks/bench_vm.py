"""VERIF — the execution substrate and what LICM buys at runtime.

* VM throughput and exhaustive-explorer cost on the paper program;
* the LICM payoff measured dynamically: average steps a lock is held
  and average steps threads sit blocked, before vs after optimization.
"""

from repro.bench import register
from repro.ir.structured import clone_program
from repro.opt.pipeline import optimize
from repro.report import critical_section_profile
from repro.synth import licm_loop_padding, licm_padding
from repro.verify import exhaustive_equivalence
from repro.vm.explore import explore
from repro.vm.machine import run_random

from benchmarks.common import FIGURE2_SOURCE, program_of


@register(
    "vm",
    group="slow",
    repeat=3,
    summary="VM throughput, explorer cost, equivalence check on Figure 2",
)
def bench_vm() -> dict:
    program = program_of(FIGURE2_SOURCE)
    ex = run_random(program, seed=1)
    assert ex.printed[0] == (13,)
    res = explore(program)
    assert res.complete and len(res.outcomes) == 2
    opt_prog = program_of(FIGURE2_SOURCE)
    report = optimize(opt_prog)
    eq = exhaustive_equivalence(report.baseline, opt_prog)
    assert eq.equal
    return {
        "vm_steps": ex.steps,
        "explorer_states": res.states,
        "behaviours": len(res.outcomes),
        "equivalent": eq.equal,
    }


@register(
    "licm_runtime",
    group="slow",
    repeat=2,
    summary="LICM runtime payoff: lock-held and blocked steps drop",
)
def bench_licm_runtime() -> dict:
    payoff = {}
    # region motion moves the whole summation loop out of each thread's
    # critical section (the paper's "whole loop" remark): one per thread
    for label, before_prog, min_moved in (
        ("straightline", licm_padding(n_threads=2, n_private_stmts=6), 1),
        ("whole_loop", licm_loop_padding(n_threads=2, loop_iters=4), 2),
    ):
        after_prog = clone_program(before_prog)
        report = optimize(after_prog, fold_output_uses=False)
        assert report.licm.total_moved >= min_moved
        before = critical_section_profile(before_prog, seeds=range(10))
        after = critical_section_profile(after_prog, seeds=range(10))
        assert after["avg_lock_held_steps"] < before["avg_lock_held_steps"]
        payoff[label] = {
            "moved": report.licm.total_moved,
            "lock_held_before": before["avg_lock_held_steps"],
            "lock_held_after": after["avg_lock_held_steps"],
        }
    return payoff
