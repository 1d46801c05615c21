"""The ``contended`` and ``sparse`` workloads: whole compile journeys.

One caller in a closed loop.  An op is one program's journey through a
fresh :class:`~repro.session.Session`: the ``diagnostics`` stage, then
the ``optimized`` stage, as a user of ``repro.api`` asks for them.  The
inputs are a ladder of three programs of about 1k, 2k and 3k post-SSA
IR statements, and the loop runs whole ladder cycles, so every run
weighs the rungs alike.  Each cycle takes the next ladder of the pool,
starting at the run's seed, so a run averages over a few inputs per
rung rather than riding on one.

* ``contended`` — 2 threads, 6 shared variables, 2 locks, 60 % of the
  statements in critical sections and half of them touching a shared
  variable.  π conflict arguments grow quadratically, so π
  placement, A.3, CSCC and LICM take the time; factored π sets and the
  CSCC worklist dedup must show here.
* ``sparse`` — the same journey at a similar statement volume, but only
  one statement in ten touches a shared variable, so π arguments stay
  below one per IR statement and the per-statement layers (front end,
  PFG, SSA, PDCE, the printer) take the time.  A π-layer change should
  leave it unchanged; one that adds per-statement cost shows here as a
  regression.

Every op's final listing and finding counts must equal those recorded
for its input in ``golden.json``: the "same outputs" contract.
``perfbench/record.py`` rewrites that file.
"""

from __future__ import annotations

import hashlib
import json
import os
from time import perf_counter

from repro import api
from repro.cfg.builder import build_flow_graph
from repro.cssame.builder import build_cssame
from repro.errors import error_code
from repro.ir.lower import lower_program
from repro.ir.printer import format_ir
from repro.ir.structured import clone_program, count_statements
from repro.lang.parser import parse
from repro.mutex.deadlock import detect_lock_order_cycles
from repro.mutex.races import detect_races
from repro.mutex.warnings import check_synchronization
from repro.obs.trace import Tracer, get_tracer
from repro.opt.pipeline import optimize
from repro.report import measure_form
from repro.session import Session

from perfbench import common
from perfbench.gen import Shape, generate

SHAPES = {
    "contended": Shape(shared_vars=6, privates=4, critical=0.6, shared=0.5),
    "sparse": Shape(shared_vars=6, privates=8, critical=0.3, shared=0.1, operands=4),
}
#: assignment statements per rung: about 1k, 2k and 3k post-SSA IR statements
LADDERS = {
    "contended": (500, 1000, 1600),
    "sparse": (750, 1500, 2250),
}
#: ladders recorded in ``golden.json``; cycle ``c`` of a run takes
#: ladder ``(seed + c) % POOL``
POOL = 12
WARMUP_SIZE = 100
GOLDEN = os.path.join(common.HERE, "golden.json")
EVALS = "work.constprop.lattice_evals"


def ladder(workload: str, index: int) -> list[tuple[str, str]]:
    """The ``(key, source)`` inputs of ladder ``index``, smallest first."""
    inputs = []
    for size in LADDERS[workload]:
        key = f"{workload}:{size}:{index % POOL}"
        inputs.append((key, generate(key, SHAPES[workload], size)))
    return inputs


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(listing: str, warnings: int, races: int) -> dict:
    """What an op must reproduce: its final listing and finding counts."""
    return {"listing_sha256": sha256(listing), "warnings": warnings, "races": races}


def journey(source: str) -> tuple[dict, Session]:
    """One op: ``diagnostics`` then ``optimized`` on a fresh session."""
    session = Session()
    found = api.compile_source(source, "diagnostics", session=session)
    optimized = api.compile_source(source, "optimized", session=session)
    got = outcome(optimized.listing, found.artifacts["warnings"], found.artifacts["races"])
    return got, session


def golden_entry(source: str) -> dict:
    """The ``golden.json`` record of one input."""
    got, _ = journey(source)
    return {"source_sha256": sha256(source), **got}


def layered_journey(source: str) -> dict:
    """The op again, call by call through each layer's public API.

    Each call runs in a span of the benchmark's own (no-ops unless a
    tracer is active).  Returns the outcome and the form sizes.
    """
    tracer = get_tracer()
    with tracer.span("lang.parse"):
        tree = parse(source)
    with tracer.span("ir.lower"):
        ir = lower_program(tree)
    # The session clones the IR once for CSSAME and once for optimize().
    with tracer.span("ir.clone"):
        cssa_copy, opt_copy = clone_program(ir), clone_program(ir)
    with tracer.span("bench:clone"):
        probe_copy = clone_program(ir)
    # Both builds below construct a PFG inside their ``cssa`` span.
    with tracer.span("probe:cfg.pfg", host="cssa", hosts=2):
        graph = build_flow_graph(probe_copy)
    form = build_cssame(cssa_copy, prune=False)
    with tracer.span("mutex.sync_check"):
        warnings = len(check_synchronization(form.graph, form.structures))
        warnings += len(detect_lock_order_cycles(form.graph, form.structures))
    with tracer.span("mutex.races"):
        races = detect_races(form.graph, form.structures)
    report = optimize(opt_copy)
    with tracer.span("ir.format"):
        listing = format_ir(report.program)
    with tracer.span("bench:measure"):
        facts = common.form_facts(graph, form)
        after_a3 = measure_form(report.baseline)
    facts["outcome"] = outcome(listing, warnings, len(races))
    facts["conflict_args_final"] = after_a3.pi_args - after_a3.pi_terms
    return facts


def traced_journey(source: str) -> dict:
    """:func:`layered_journey` plus the CSCC lattice evaluations it made."""
    tracer = get_tracer()
    evals = common.counter(tracer, EVALS)
    facts = layered_journey(source)
    facts["lattice_evals"] = common.counter(tracer, EVALS) - evals
    return facts


class CompileWorkload:
    """One run of ``contended`` or ``sparse`` (see the module docstring)."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.golden = load_golden()
        self.ladders: list[list[tuple[str, str]]] = []

    def prepare(self, tally: common.Tally) -> None:
        """Generate the ladders and warm up on a small program."""
        self.ladders = [ladder(self.workload, self.seed + c) for c in range(POOL)]
        journey(generate(f"{self.workload}:warmup", SHAPES[self.workload], WARMUP_SIZE))

    def close(self, tally: common.Tally) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb()

    def _check(self, key: str, source: str, got: dict, tally: common.Tally) -> None:
        want = self.golden.get(key)
        if want != {"source_sha256": sha256(source), **got}:
            tally.fail(f"{key}: {got} differs from golden.json {want}")

    def measure(self, seconds: float, tally: common.Tally) -> dict:
        finals: dict = {}
        sizes: dict = {}
        pushed = 0
        cycles: list[float] = []
        slowest: list[float] = []
        start = perf_counter()
        while common.more_cycles(cycles, start, seconds):
            cycle_start = perf_counter()
            inputs = self.ladders[len(cycles) % POOL]
            for key, source in inputs:
                tally.attempted += 1
                op_start = perf_counter()
                try:
                    got, session = journey(source)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted
                    tally.latencies.append(perf_counter() - op_start)
                    tally.fail(f"{key}: {error_code(exc)}: {exc}")
                    continue
                tally.latencies.append(perf_counter() - op_start)
                self._check(key, source, got, tally)
                if key not in sizes:
                    # Cache hits on the op's own session: nothing is recomputed.
                    sizes[key] = count_statements(session.analyze(source, prune=False).program)
                    if not cycles:
                        finals[key] = session.optimize(source).program
                pushed += sizes[key]
            cycles.append(perf_counter() - cycle_start)
            slowest.append(max(tally.latencies[-len(inputs):]))
        elapsed = perf_counter() - start
        # The generated code of the run's first ladder, whatever the cycle count.
        statements, steps = common.output_size(finals.values(), tally)
        return {
            "elapsed": elapsed,
            "slowest": slowest,
            "ir_stmts": pushed,
            "output_stmts": statements,
            "output_vm_steps": steps,
        }

    def traced(self, seconds: float, tally: common.Tally) -> dict:
        """The run's first ladder, each input untraced and traced in
        turn (:func:`common.paired_runs`): per-layer values."""
        inputs = self.ladders[0]
        tracer = Tracer()
        runs, overhead = common.paired_runs(
            [source for _, source in inputs], traced_journey, tracer
        )
        for (key, source), results in zip(inputs, runs):
            for fact in results:
                tally.attempted += 1
                self._check(key, source, fact["outcome"], tally)
        facts = [results[1] for results in runs]
        common.write_traces(tracer, self.workload)
        values = common.layer_values(tracer)
        values.update(common.form_values(facts))
        values["cssa.peak_alloc_mb"] = common.cssa_peak_alloc_mb(inputs[-1][1])
        values["obs.trace_overhead_pct"] = overhead
        return values
