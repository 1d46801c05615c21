"""Plumbing shared by the workloads: tallies, metrics, layer accounting.

Per-layer times come from spans.  The benchmark wraps each public call
into a layer in a span of its own (``lang.parse``, ``ir.lower``,
``mutex.races``, ...) and keeps the spans the program already emits
under an enabled :class:`~repro.obs.trace.Tracer` (``cssa``,
``identify-mutex``, ``rewrite-pi``, ``ordering``, ``pass:*``,
``simplify``, ``diagnose``, ``stage:*``, ``explore``, ``audit-runs``).
A span's self time is its duration minus its child spans, as
:func:`repro.obs.export.export_collapsed` computes it; a layer's self
time sums the spans :data:`SPAN_LAYERS` assigns to it.

A *probe* span, ``probe:<name>``, times on a private copy a call that
the program also makes inside another span: the PFG is built inside
``cssa``, and ``audit_program`` compiles its input inside
``dynamic.audit``.  The probe's time moves from its ``host`` span to
``<name>`` once per host call (attribute ``hosts``); the probe call
itself is extra work and stays out of every total.  So does a
``bench:<name>`` span: work the benchmark needs and the op never does,
such as the probes' private copies and measuring the form.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from repro.bench.runner import wall_stats
from repro.cssame.builder import build_cssame
from repro.ir.lower import lower_program
from repro.ir.structured import count_statements
from repro.lang.parser import parse
from repro.obs.export import export_collapsed, write_trace
from repro.obs.metrics import percentile
from repro.obs.trace import Tracer, use_tracer
from repro.report import measure_form
from repro.vm.compile import compile_program
from repro.vm.machine import run_random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space of a run (serve stores, trace exports); git ignores it
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
#: schedule seeds of the VM runs that measure generated code
VM_SEEDS = (0, 1, 2)

#: the package's layers (``ssa`` and ``cssa`` are measured as one)
LAYERS = (
    "lang", "ir", "cfg", "cssa", "mutex", "cssame",
    "opt", "vm", "dynamic", "session", "serve",
)

#: span → layer; any other ``pass:*`` span is ``opt``, any other
#: ``stage:*`` span ``session``, anything else ``other``
SPAN_LAYERS = {
    "lang.parse": "lang",
    "stage:ast": "lang",
    "ir.lower": "ir",
    "stage:ir": "ir",
    "ir.clone": "ir",
    "ir.format": "ir",
    "cfg.pfg": "cfg",
    "cfg.sites": "cfg",
    "stage:dot": "cfg",
    "cssa": "cssa",
    "identify-mutex": "mutex",
    "diagnose": "mutex",
    "mutex.sync_check": "mutex",
    "mutex.races": "mutex",
    "build-cssame": "cssame",
    "rewrite-pi": "cssame",
    "ordering": "cssame",
    "optimize": "opt",
    "simplify": "opt",
    "vm.compile": "vm",
    "vm.run": "vm",
    "explore": "vm",
    "stage:bytecode": "vm",
    "audit-runs": "dynamic",
    "dynamic.audit": "dynamic",
    "serve.request": "serve",
}

#: per-layer metric → spans whose summed duration (ms) it reports
SPAN_METRICS = {
    "lang.parse_ms": ("lang.parse", "stage:ast"),
    "ir.lower_ms": ("ir.lower", "stage:ir"),
    "ir.format_ms": ("ir.format",),
    "cfg.pfg_ms": ("cfg.pfg",),
    "mutex.identify_ms": ("identify-mutex",),
    "mutex.races_ms": ("mutex.races",),
    "mutex.sync_check_ms": ("mutex.sync_check",),
    "cssame.rewrite_ms": ("rewrite-pi",),
    "cssame.ordering_ms": ("ordering",),
    "opt.constprop_ms": ("pass:constprop",),
    "opt.pdce_ms": ("pass:pdce",),
    "opt.licm_ms": ("pass:licm",),
    "opt.simplify_ms": ("simplify",),
    "vm.compile_ms": ("vm.compile",),
    "vm.run_ms": ("vm.run",),
    "vm.explore_ms": ("explore",),
    "dynamic.audit_runs_ms": ("audit-runs",),
}

#: per-layer metric → the counter it reports, summed over the traced pass
COUNTER_METRICS = {
    "mutex.pairs_examined": "work.identify-mutex.pairs_examined",
    "cssame.args_removed": "work.rewrite-pi.args_removed",
    "opt.constprop.lattice_evals": "work.constprop.lattice_evals",
    "opt.pdce.stmts_scanned": "work.pdce.stmts_scanned",
    "opt.licm.independence_checks": "work.licm.independence_checks",
    "vm.steps": "vm.steps",
    "vm.explore_states": "explore.states",
    "dynamic.access_checks": "work.audit.access_checks",
    "dynamic.clock_joins": "work.audit.clock_joins",
    "dynamic.dynamic_races": "work.audit.dynamic_races",
    "dynamic.static_races": "work.audit.static_races",
}


def layer_of(span_name: str) -> str:
    """The layer a span's self time belongs to."""
    if span_name in SPAN_LAYERS:
        return SPAN_LAYERS[span_name]
    if span_name.startswith("pass:"):
        return "opt"
    if span_name.startswith("stage:"):
        return "session"
    return "other"


@dataclass
class Tally:
    """Ops attempted and failed, and every op's latency in seconds."""

    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def declared() -> dict:
    """``BENCHMARK.json``: the metrics a run reports, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def metrics(kind: str, values: dict) -> dict:
    """Every ``kind`` metric of ``BENCHMARK.json`` as ``{value, unit}``."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared()[kind]
    }


def end_to_end(tally: Tally, run: dict, setup_s: float, rss_mb: float) -> dict:
    """End-to-end values of a measured run.

    ``run`` holds the loop's wall time (``elapsed``), the post-SSA IR
    statements its ops pushed through (``ir_stmts``) and the size of
    the generated code (``output_stmts``, ``output_vm_steps``).  A loop
    over whole input cycles has far too few ops for a 99th percentile;
    it also holds each cycle's slowest op (``slowest``), and the tail
    it reports is their median.
    """
    if not tally.latencies:
        raise RuntimeError("no op completed")
    latency = wall_stats(tally.latencies)
    elapsed = run["elapsed"]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": latency["median_ms"],
        "latency_p99_ms": (
            statistics.median(run["slowest"]) if "slowest" in run
            else percentile(sorted(tally.latencies), 0.99)
        ) * 1e3,
        "ops_per_s": latency["repeats"] / elapsed,
        "ir_stmts_per_s": run["ir_stmts"] / elapsed,
        "peak_rss_mb": rss_mb,
        "ok_rate": 1.0 - tally.failed / tally.attempted,
        "output_stmts": run["output_stmts"],
        "output_vm_steps": run["output_vm_steps"],
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its reaped children, MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def output_size(programs, tally: Tally) -> tuple[int, int]:
    """Statements in, and VM steps taken by, generated programs."""
    statements = steps = 0
    for program in programs:
        statements += count_statements(program)
        compiled = compile_program(program)
        for seed in VM_SEEDS:
            try:
                steps += run_random(compiled, seed=seed).steps
            except Exception as exc:  # noqa: BLE001 - a broken output is a failure
                tally.fail(f"optimized program, seed {seed}: {type(exc).__name__}: {exc}")
    return statements, steps


def form_facts(graph, form) -> dict:
    """Sizes of a PFG and of the CSSA form built on the same program."""
    shape = measure_form(form.program)
    return {
        "blocks": len(graph.blocks),
        "conflict_edges": len(form.graph.conflict_edges),
        "ir_stmts": shape.statements,
        "pi_terms": shape.pi_terms,
        "conflict_args": shape.pi_args - shape.pi_terms,
    }


def form_values(facts: list) -> dict:
    """Form sizes summed over the traced inputs, and their log-log slopes."""
    sizes = [f["ir_stmts"] for f in facts]
    args = [f["conflict_args"] for f in facts]
    evals = [f.get("lattice_evals", 0) for f in facts]
    return {
        "ir.stmts": sum(sizes),
        "cfg.blocks": sum(f["blocks"] for f in facts),
        "cfg.conflict_edges": sum(f["conflict_edges"] for f in facts),
        "cssa.pi_terms": sum(f["pi_terms"] for f in facts),
        "cssa.conflict_args": sum(args),
        "cssa.args_per_stmt": sum(args) / sum(sizes),
        "cssa.conflict_args_slope": loglog_slope(sizes, args),
        "cssame.conflict_args_final": sum(f.get("conflict_args_final", 0) for f in facts),
        "opt.constprop.lattice_evals_slope": loglog_slope(sizes, evals),
    }


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y on log x (0 with fewer than 2 sizes)."""
    points = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*points)).slope


def cssa_peak_alloc_mb(source: str) -> float:
    """Peak Python allocation (tracemalloc) of one CSSA build, MiB."""
    program = lower_program(parse(source))
    tracemalloc.start()
    try:
        build_cssame(program, prune=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def counter(tracer, name: str) -> int:
    if not tracer.enabled:
        return 0
    found = tracer.metrics.counters.get(name)
    return found.value if found is not None else 0


def span_ms(tracer) -> dict:
    """Span name → summed duration in ms (probes under their own name)."""
    totals = defaultdict(float)
    for span in tracer.spans():
        totals[span.name.removeprefix("probe:")] += span.duration * 1e3
    return totals


def self_ms_by_span(tracer) -> dict:
    """Span name → summed self time in ms, probe time moved and
    benchmark-only time left out (see above)."""
    self_ms = defaultdict(float)
    for line in export_collapsed(tracer).splitlines():
        stack, _, micros = line.rpartition(" ")
        if not stack.startswith(("probe:", "bench:")):
            self_ms[stack.rsplit(";", 1)[-1]] += int(micros) / 1e3
    for span in tracer.spans():
        if span.name.startswith("probe:"):
            moved = span.duration * 1e3 * span.attrs["hosts"]
            self_ms[span.name.removeprefix("probe:")] += moved
            self_ms[span.attrs["host"]] -= moved
    return self_ms


def self_ms_by_layer(by_span: dict) -> dict:
    layers = dict.fromkeys(LAYERS + ("other",), 0.0)
    for name, ms in by_span.items():
        layers[layer_of(name)] += ms
    return layers


def layer_shares(by_layer: dict) -> dict:
    """``<layer>.self_pct``: each layer's share of all self time."""
    total = sum(by_layer.values()) or 1.0
    return {f"{layer}.self_pct": 100.0 * by_layer[layer] / total for layer in LAYERS}


def layer_values(tracer) -> dict:
    """Every per-layer metric a trace answers directly.

    The rest read 0 until the workload fills them in; a layer the
    workload bypasses keeps its zeros.
    """
    values = dict.fromkeys((m["name"] for m in declared()["per_layer"]), 0.0)
    totals = span_ms(tracer)
    for metric, names in SPAN_METRICS.items():
        values[metric] = sum(totals[name] for name in names)
    for metric, name in COUNTER_METRICS.items():
        values[metric] = counter(tracer, name)
    by_span = self_ms_by_span(tracer)
    values["cssa.self_ms"] = by_span["cssa"]
    values["dynamic.verify_ms"] = by_span["dynamic.audit"]
    values.update(layer_shares(self_ms_by_layer(by_span)))
    return values


def overhead_pct(untraced_s: float, traced_s: float) -> float:
    """How much slower the traced pass ran than the untraced one, in %."""
    return 100.0 * (traced_s - untraced_s) / untraced_s


def paired_runs(items, call, tracer) -> tuple[list, float]:
    """Run ``call(item)`` four times per item: untraced, traced, traced, untraced.

    Only the first traced run records into ``tracer``; the second uses a
    spare one.  The mirrored order cancels drift and run order out of
    ``obs.trace_overhead_pct``, the median over every (untraced, traced)
    pair of :func:`overhead_pct`.  Returns each item's four results in
    run order (the second is the one ``tracer`` recorded) and that median.
    """
    runs, overheads = [], []
    for item in items:
        results, times = [], []
        for active in (None, tracer, Tracer(), None):
            start = perf_counter()
            with use_tracer(active):
                results.append(call(item))
            times.append(perf_counter() - start)
        runs.append(results)
        overheads += [overhead_pct(times[0], times[1]), overhead_pct(times[3], times[2])]
    return runs, statistics.median(overheads)


def more_cycles(cycles: list, start: float, seconds: float) -> bool:
    """Whether a loop over whole input cycles starts another one: always
    the first, then while at least half a cycle fits in the budget."""
    return not cycles or perf_counter() - start + statistics.mean(cycles) / 2 <= seconds


def write_traces(tracer, workload: str) -> None:
    """Export a traced pass through the program's own exporters."""
    os.makedirs(WORK_DIR, exist_ok=True)
    base = os.path.join(WORK_DIR, f"trace-{workload}")
    write_trace(tracer, base + ".jsonl", "jsonl")
    write_trace(tracer, base + ".chrome.json", "chrome")


def summary(workload: str, tally: Tally, reported: dict) -> None:
    """A readable account of the run, on standard error."""
    print(
        f"perfbench {workload}: {tally.attempted} ops attempted, "
        f"{tally.failed} failed, {len(tally.latencies)} latency samples",
        file=sys.stderr,
    )
    for problem in tally.problems[:10]:
        print(f"  failed: {problem}", file=sys.stderr)
    for name, metric in reported.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
