#!/usr/bin/env python
"""Case study: a miniature job-queue server, end to end.

A dispatcher enqueues jobs under a queue lock and signals the workers;
two workers drain the queue, keep private bookkeeping inside the
critical section (LICM fodder), and meet at a barrier before a combiner
publishes the result.  The walk-through exercises the whole system:

1. Section 6 diagnostics (clean),
2. static deadlock check (clean),
3. CSSAME construction with mutex + event pruning statistics,
4. the full optimization pipeline,
5. exhaustive verification that the optimized server has exactly the
   original behaviour set,
6. a dynamic before/after lock-contention profile.

Run:  python examples/case_study_server.py
"""

from repro.api import front_end, listing
from repro.cssame import build_cssame
from repro.ir.structured import clone_program
from repro.opt.pipeline import optimize
from repro.report import critical_section_profile, measure_form
from repro.session import Session
from repro.verify import exhaustive_equivalence
from repro.vm.explore import explore

SERVER = """
queued = 0;
done0 = 0; done1 = 0;
result = 0;
cobegin
dispatcher: begin
    lock(Q);
    queued = 3;
    unlock(Q);
    set(jobs_ready);
end
worker0: begin
    wait(jobs_ready);
    private taken = 0;
    private overhead = 7;
    lock(Q);
    overhead = overhead * 2;
    taken = queued - 1;
    queued = 1;
    unlock(Q);
    done0 = taken + overhead;
    barrier(drained);
end
worker1: begin
    wait(jobs_ready);
    private taken = 0;
    private overhead = 3;
    lock(Q);
    overhead = overhead + 1;
    taken = queued;
    queued = queued - taken;
    unlock(Q);
    done1 = taken + overhead;
    barrier(drained);
end
combiner: begin
    barrier(drained);
    lock(Q);
    result = done0 + done1;
    unlock(Q);
end
coend
print(result, queued);
"""


def main() -> None:
    print("== 1. diagnostics ==")
    warnings, races = Session().diagnose(SERVER)
    for w in warnings:
        print(f"  warning: {w.message}")
    for r in races:
        print(f"  race: {r.message()}")
    if not warnings and not races:
        print("  clean: consistent locking, no deadlock risks")

    print("\n== 2. CSSAME construction ==")
    program = front_end(SERVER)
    original = clone_program(program)
    form = build_cssame(program)
    metrics = measure_form(program)
    print(f"  mutex bodies: {len(form.mutex_bodies())}")
    print(f"  A.3 removed {form.rewrite_stats.args_removed} conflict args, "
          f"deleted {form.rewrite_stats.pis_deleted} pi terms")
    print(f"  event ordering removed {form.ordering_stats.args_removed} more")
    print(f"  remaining: {metrics.pi_terms} pi terms, {metrics.phi_terms} phis")

    print("\n== 3. optimization ==")
    baseline = clone_program(program)
    from repro.opt import (
        concurrent_constant_propagation,
        local_value_numbering,
        lock_independent_code_motion,
        parallel_dead_code_elimination,
    )

    cp = concurrent_constant_propagation(program, form.graph)
    vn = local_value_numbering(program)
    dce = parallel_dead_code_elimination(program)
    licm = lock_independent_code_motion(program)
    print(f"  constants: {len(cp.constants)}  reused exprs: "
          f"{vn.expressions_replaced}  removed: {dce.total_removed}  "
          f"moved out of locks: {licm.total_moved}")
    print("\noptimized server:")
    print(listing(program))

    print("== 4. verification over every schedule ==")
    res = exhaustive_equivalence(baseline, program, max_states=400_000)
    print(f"  behaviours: {res.original_count}  equal: {res.equal}  "
          f"complete: {res.complete}")
    assert res.equal and res.complete

    outcomes = explore(program, max_states=400_000)
    finals = sorted(o[-1][1] for o in outcomes.outcomes)
    print(f"  final (result, queued) values: {finals}")

    print("\n== 5. lock contention before/after ==")
    before = critical_section_profile(original, seeds=range(12))
    after = critical_section_profile(program, seeds=range(12))
    print(f"  lock held steps: {before['avg_lock_held_steps']:.1f} -> "
          f"{after['avg_lock_held_steps']:.1f}")
    print(f"  blocked steps:   {before['avg_lock_blocked_steps']:.1f} -> "
          f"{after['avg_lock_blocked_steps']:.1f}")


if __name__ == "__main__":
    main()
