"""The ``audit`` workload: static ↔ dynamic race audits.

One caller in a closed loop.  An op is one
:func:`~repro.dynamic.audit.audit_source` call with the ``audit`` stage
defaults (16 seeded schedules under the happens-before tracker plus
exploration bounded at 20,000 states) on a fresh session.  The inputs
are eight small generated programs of 2–4 threads and about 70–400
source lines; half are race-free by construction.  This is the only
workload where the VM and the dynamic layer do the work: the sampled
runs, the explorer, witness replay and the static × dynamic matching.
The loop runs whole cycles over the eight inputs.

Checks: every verdict must be sound (no dynamic-only race), a
race-free input must show no dynamic race, and on a race-free input
whose exploration completes the optimized program must behave as its
CSSAME baseline (``exhaustive_equivalence(...)
.equal_modulo_deadlock_removal``).

The size of the generated code (``output_stmts``, ``output_vm_steps``)
is measured on one fixed input set, :data:`OUTPUT_SEED`'s, in every
run: the inputs are small, so their optimized sizes differ by about
15 % from seed to seed, more than those metrics may move.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

from repro import api
from repro.cfg.builder import build_flow_graph
from repro.cfg.conflicts import collect_access_sites
from repro.cssame.builder import build_cssame
from repro.dynamic.audit import AuditReport, audit_program, audit_source
from repro.errors import error_code
from repro.ir.lower import lower_program
from repro.ir.structured import clone_program, count_statements
from repro.lang.parser import parse
from repro.mutex.races import detect_races
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.session import Session
from repro.verify.equivalence import exhaustive_equivalence
from repro.vm.compile import compile_program
from repro.vm.machine import run_random

from perfbench import common
from perfbench.gen import Shape, generate

#: (threads, assignment statements, race-free by construction) per input
MIX = (
    (2, 40, False),
    (2, 80, True),
    (3, 120, False),
    (3, 160, True),
    (4, 200, False),
    (4, 240, True),
    (2, 280, False),
    (4, 280, True),
)
#: the ``audit`` stage defaults of the wire schema
OPTIONS = api.SERVE_STAGES["audit"]
WARMUP_SIZE = 10
#: the seed whose inputs the output-size metrics measure, whatever the run's
OUTPUT_SEED = 0


def inputs(seed: int) -> list[tuple[str, str, bool]]:
    """The ``(key, source, race_free)`` inputs of a run."""
    out = []
    for i, (threads, size, race_free) in enumerate(MIX):
        key = f"audit:{i}:{seed}"
        shape = Shape(
            threads=threads, shared_vars=4, privates=3, critical=0.5, shared=0.4,
            race_free=race_free,
        )
        out.append((key, generate(key, shape, size), race_free))
    return out


def audit(source: str) -> AuditReport:
    """One op: ``audit_source`` with the ``audit`` stage defaults."""
    return audit_source(
        source,
        runs=OPTIONS["runs"],
        seed_base=OPTIONS["seed_base"],
        fuel=OPTIONS["fuel"],
        explore_states=OPTIONS["max_states"],
        do_explore=OPTIONS["explore"],
    )


def layered_audit(source: str) -> tuple[AuditReport, dict]:
    """The op again, call by call through each layer's public API."""
    tracer = get_tracer()
    with tracer.span("lang.parse"):
        tree = parse(source)
    with tracer.span("ir.lower"):
        ir = lower_program(tree)
    # audit_source clones the IR for CSSAME and runs the cached IR itself.
    with tracer.span("ir.clone"):
        form_copy = clone_program(ir)
    with tracer.span("bench:clone"):
        probe_copy, vm_copy = clone_program(ir), clone_program(ir)
    with tracer.span("probe:cfg.pfg", host="cssa", hosts=1):
        graph = build_flow_graph(probe_copy)
    form = build_cssame(form_copy, prune=False)
    with tracer.span("mutex.races"):
        races = detect_races(form.graph, form.structures)
    with tracer.span("cfg.sites"):
        sites = collect_access_sites(form.graph)
        conflict_vars = {edge.var for edge in form.graph.conflict_edges}
    with tracer.span("dynamic.audit"):
        report = audit_program(
            ir,
            races,
            runs=OPTIONS["runs"],
            seed_base=OPTIONS["seed_base"],
            fuel=OPTIONS["fuel"],
            explore_states=OPTIONS["max_states"],
            do_explore=OPTIONS["explore"],
            graph=form.graph,
            access_sites=sites,
            conflict_vars=conflict_vars,
        )
    # audit_program compiles its input once, inside ``dynamic.audit``.
    with tracer.span("probe:vm.compile", host="dynamic.audit", hosts=1):
        compiled = compile_program(vm_copy)
    # ``audit-runs`` runs the VM under the happens-before tracker; the same
    # schedules without it are the VM's share.  A spare tracer, when
    # tracing, keeps their steps out of the counters.
    spare = Tracer() if tracer.enabled else None
    with tracer.span("probe:vm.run", host="audit-runs", hosts=1), use_tracer(spare):
        first = OPTIONS["seed_base"]
        for seed in range(first, first + OPTIONS["runs"]):
            run_random(compiled, seed=seed, fuel=OPTIONS["fuel"], raise_on_deadlock=False)
    with tracer.span("bench:measure"):
        facts = common.form_facts(graph, form)
    return report, facts


class AuditWorkload:
    """One run of ``audit`` (see the module docstring)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: list[tuple[str, str, bool]] = []
        #: inputs whose exploration completed, so equivalence is checkable
        self.complete: set[str] = set()
        self.equivalence_checks = 0

    def prepare(self, tally: common.Tally) -> None:
        """Generate the inputs and warm up on a small program."""
        self.inputs = inputs(self.seed)
        audit(generate("audit:warmup", Shape(), WARMUP_SIZE))

    def close(self, tally: common.Tally) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb()

    def _judge(self, key: str, race_free: bool, report: AuditReport, tally: common.Tally) -> None:
        if not report.sound:
            tally.fail(f"{key}: dynamic-only race, the static report is unsound")
        if race_free and report.dynamic:
            tally.fail(f"{key}: dynamic race on a race-free input")
        if report.coverage.explore_complete:
            self.complete.add(key)

    def _check_outputs(self, tally: common.Tally) -> dict:
        """Input sizes, checking equivalence on race-free inputs whose
        exploration completed."""
        sizes = {}
        for key, source, race_free in self.inputs:
            session = Session()
            sizes[key] = count_statements(session.analyze(source, prune=False).program)
            report = session.optimize(source)
            # Racy inputs are left out: on some (e.g. ``audit:0:4``) the
            # optimized program has an outcome its baseline lacks, a known
            # divergence that a workload must not count as a failed op.
            if not race_free or key not in self.complete:
                continue
            result = exhaustive_equivalence(
                report.baseline, report.program, max_states=OPTIONS["max_states"]
            )
            if result.complete:
                self.equivalence_checks += 1
                if not result.equal_modulo_deadlock_removal:
                    tally.fail(f"{key}: optimizing changed behaviour: {result.explain()}")
        return sizes

    def measure(self, seconds: float, tally: common.Tally) -> dict:
        done: Counter = Counter()
        cycles: list[float] = []
        slowest: list[float] = []
        start = perf_counter()
        while common.more_cycles(cycles, start, seconds):
            cycle_start = perf_counter()
            for key, source, race_free in self.inputs:
                tally.attempted += 1
                op_start = perf_counter()
                try:
                    report = audit(source)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    tally.latencies.append(perf_counter() - op_start)
                    tally.fail(f"{key}: {error_code(exc)}: {exc}")
                    continue
                tally.latencies.append(perf_counter() - op_start)
                self._judge(key, race_free, report, tally)
                done[key] += 1
            cycles.append(perf_counter() - cycle_start)
            slowest.append(max(tally.latencies[-len(self.inputs):]))
        elapsed = perf_counter() - start
        sizes = self._check_outputs(tally)
        programs = [Session().optimize(source).program for _, source, _ in inputs(OUTPUT_SEED)]
        statements, steps = common.output_size(programs, tally)
        return {
            "elapsed": elapsed,
            "slowest": slowest,
            "ir_stmts": sum(sizes[key] * n for key, n in done.items()),
            "output_stmts": statements,
            "output_vm_steps": steps,
        }

    def traced(self, seconds: float, tally: common.Tally) -> dict:
        """Each input untraced and traced in turn
        (:func:`common.paired_runs`): per-layer values."""
        tracer = Tracer()
        runs, overhead = common.paired_runs(
            [source for _, source, _ in self.inputs], layered_audit, tracer
        )
        for (key, _, race_free), results in zip(self.inputs, runs):
            for report, _ in results:
                tally.attempted += 1
                self._judge(key, race_free, report, tally)
        self._check_outputs(tally)
        common.write_traces(tracer, "audit")
        values = common.layer_values(tracer)
        values.update(common.form_values([results[1][1] for results in runs]))
        largest = max((source for _, source, _ in self.inputs), key=len)
        values["cssa.peak_alloc_mb"] = common.cssa_peak_alloc_mb(largest)
        values["dynamic.equivalence_checks"] = self.equivalence_checks
        values["obs.trace_overhead_pct"] = overhead
        return values
