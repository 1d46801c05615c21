"""Command-line driver: ``python -m repro <command> <file>``.

Commands
--------

``analyze``   build the CSSAME (or, with ``--cssa``, plain CSSA) form
              and print the annotated listing plus form statistics.
``batch``     analyze + diagnose every ``.par`` file under a directory,
              serially through one artifact-cached session or, with
              ``--jobs N`` above 1, in N worker processes; one structured
              result line per file, bad files isolated as errors.
``optimize``  run the Section 5 pipeline and print the optimized
              program (``--phases`` shows every intermediate listing).
``diagnose``  print Section 6 warnings and potential data races.
``run``       execute under the interleaving VM (``--seed``; ``--json``
              adds per-lock contention counters and timeline summary).
``explore``   enumerate every schedule and print the outcome set.
``audit``     sample N seeded schedules under the happens-before
              tracker, optionally explore, and cross-validate dynamic
              races against the Section 6 lockset report (confirmed /
              unconfirmed / dynamic-only; ``--strict`` gates on
              confirmed races).
``dot``       print a Graphviz rendering of the PFG.
``serve``     run the resilient compile service: a JSON-lines-over-TCP
              daemon fronting the Session stage graph with a persistent
              artifact store (``--store DIR``), a bounded worker pool
              (``--jobs``), per-request deadlines (``--deadline-ms``)
              and graceful drain on SIGTERM.
``request``   one-shot client for ``serve``: send FILE to a running
              daemon (``--stage``; ``--json`` prints the full response
              frame) with jittered-backoff retries on overload.
``profile``   run the pipeline under a tracer and print per-pass timing,
              the A.3 removal decisions, the final form metrics, the
              deterministic work counters and the other metrics.
``bench``     run the registered benchmarks (``--list`` to enumerate,
              ``--group`` to filter) with statistical timing; ``--json``
              writes the record, and ``--check`` gates it against the
              committed ``--baseline`` record (default
              ``BENCH_baseline.json``; exit 1 on regression, 3 when the
              baseline is missing or malformed).

All commands read the program from a file argument or, with ``-``,
from stdin, and accept ``--trace FILE`` with
``--trace-format {jsonl,chrome,text,flame}`` to capture a full trace
of the run (``chrome`` traces load in ``chrome://tracing`` / Perfetto;
``flame`` is Brendan-Gregg collapsed-stack for flamegraph tools; see
``docs/OBSERVABILITY.md``).

Exit-code contract
------------------

Derived from the machine-readable error taxonomy in
:mod:`repro.errors` (``exit_code_for``); the error line printed on
stderr carries the code: ``error: [E_PARSE] 1:5: ...``.

* ``0`` — success (for ``diagnose``: no findings, or ``--no-strict``).
* ``1`` — findings: ``diagnose`` found warnings/races under
  ``--strict`` (the default), ``witness`` found no matching schedule,
  ``bench`` detected a regression (``--check``) or a failing
  benchmark, or ``audit`` found a dynamic-only race (always — a
  soundness failure) or, under ``--strict``, a confirmed race.
* ``2`` — the executed/explored program can deadlock (``E_DEADLOCK``).
* ``3`` — usage or input error: ``E_PARSE``, ``E_SEMANTIC``,
  ``E_ANALYSIS``, ``E_IO``, ``E_USAGE``, ``E_UNSUPPORTED``.
* ``4`` — service error (``request``/``serve``): ``E_TIMEOUT``,
  ``E_OVERLOADED``, ``E_SHUTDOWN``, ``E_PROTOCOL``, ``E_INTERNAL``.

CI pipelines that want diagnostics as advisory output rather than a
gate should pass ``--no-strict`` to ``diagnose``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Optional, Sequence

from repro import api
from repro._version import __version__
from repro.api import front_end
from repro.errors import (
    EXIT_FINDINGS,
    EXIT_OK,
    ReproError,
    UsageError,
    error_code,
    exit_code_for,
)
from repro.obs.export import TRACE_FORMATS, write_trace
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.serve.protocol import DEFAULT_PORT as DEFAULT_SERVE_PORT
from repro.report import measure_form
from repro.session import BatchSession, Session
from repro.vm.explore import DEFAULT_MAX_STATES, explore
from repro.vm.machine import DEFAULT_FUEL, run_random

__all__ = ["main"]


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_analyze(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    result = api.analyze(source, prune=not args.cssa)
    artifacts = result.artifacts
    metrics = artifacts["metrics"]
    print(artifacts["listing"], end="")
    print(f"// form: {artifacts['form']}")
    print(f"// pi terms: {metrics['pi_terms']} ({metrics['pi_args']} arguments)")
    print(f"// phi terms: {metrics['phi_terms']}")
    if artifacts["rewrite"] is not None:
        s = artifacts["rewrite"]
        print(
            f"// A.3 removed {s['args_removed']} conflict argument(s), "
            f"deleted {s['pis_deleted']} pi term(s)"
        )
    print(f"// mutex bodies: {artifacts['mutex_bodies']}")
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    report = Session().optimize(
        _read_source(args.file),
        use_mutex=not args.cssa,
        fold_output_uses=not args.keep_prints,
    )
    if args.phases:
        for phase in ("cssa", "cssame", "constprop", "pdce", "licm"):
            if phase in report.listings:
                print(f"// ---- after {phase} ----")
                print(report.listings[phase], end="")
    print(report.listings["final"], end="")
    print(f"// constants: {len(report.constprop.constants)}, "
          f"removed: {report.pdce.total_removed}, "
          f"moved: {report.licm.total_moved}")
    return 0


def _print_diagnostic_frames(frames) -> None:
    """Render diagnostics frames the way ``diagnose`` always has."""
    for frame in frames:
        if frame["kind"] == "race":
            print(f"race: {frame['message']}")
        else:
            print(f"warning [{frame['kind']}]: {frame['message']}")


def _cmd_diagnose(args: argparse.Namespace) -> int:
    result = api.diagnose(_read_source(args.file))
    _print_diagnostic_frames(result.warnings)
    _print_diagnostic_frames(result.races)
    if result.clean:
        print("no synchronization problems found")
        return EXIT_OK
    # --strict (default): findings gate the build; --no-strict reports
    # them but exits 0 (see the module docstring's exit-code contract).
    return EXIT_FINDINGS if args.strict else EXIT_OK


def _print_events(execution) -> None:
    """Render an execution's observable events, one per line.

    Shared by ``run`` and ``witness`` so a replayed schedule reads
    exactly like a live run.
    """
    for event in execution.events:
        if event[0] == "print":
            print(" ".join(str(v) for v in event[1]))
        else:
            print(f"call {event[1]}({', '.join(str(v) for v in event[2])})")


def _execution_as_dict(execution) -> dict:
    """The ``run --json`` document: events + per-lock contention."""
    from repro.report import lock_timeline_summary

    timeline = lock_timeline_summary(execution)
    locks: dict[str, dict] = {}
    for lock in sorted(
        set(execution.lock_held_steps)
        | set(execution.lock_blocked_steps)
        | set(execution.lock_acquisitions)
        | set(timeline)
    ):
        locks[lock] = {
            "held_steps": execution.lock_held_steps.get(lock, 0),
            "blocked_steps": execution.lock_blocked_steps.get(lock, 0),
            "acquisitions": execution.lock_acquisitions.get(lock, 0),
            **timeline.get(lock, {}),
        }
    return {
        "events": [list(e) for e in execution.events],
        "steps": execution.steps,
        "deadlocked": execution.deadlocked,
        "memory": dict(sorted(execution.memory.items())),
        "locks": locks,
        "lock_intervals": list(execution.lock_intervals),
    }


def _executed_program(args: argparse.Namespace):
    """The program ``run`` and ``explore`` execute: the source as
    written or, with ``--optimize``, the optimization pipeline's output."""
    source = _read_source(args.file)
    if args.optimize:
        return Session().optimize(source).program
    return front_end(source)


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    program = _executed_program(args)
    execution = run_random(
        program, seed=args.seed, fuel=args.fuel, raise_on_deadlock=False
    )
    if args.json:
        print(json.dumps(_execution_as_dict(execution), indent=2, sort_keys=True))
        return 2 if execution.deadlocked else 0
    _print_events(execution)
    if execution.deadlocked:
        print("DEADLOCK", file=sys.stderr)
        return 2
    if args.stats:
        print(f"// steps: {execution.steps}", file=sys.stderr)
        for lock, held in sorted(execution.lock_held_steps.items()):
            print(f"// lock {lock}: held {held} steps", file=sys.stderr)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    result = explore(_executed_program(args), max_states=args.max_states)
    for outcome in sorted(result.outcomes):
        rendered = []
        for event in outcome:
            if event[0] == "print":
                rendered.append("print " + " ".join(str(v) for v in event[1]))
            elif event[0] == "call":
                rendered.append(f"call {event[1]}")
            else:
                rendered.append(event[0].upper())
        print(" | ".join(rendered) if rendered else "(no output)")
    print(
        f"// {len(result.outcomes)} behaviour(s), {result.states} states"
        f"{'' if result.complete else ' (TRUNCATED)'}"
    )
    if result.can_deadlock:
        print("// some schedules DEADLOCK")
        return 2
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    batch = BatchSession(
        jobs=args.jobs,
        optimize=args.optimize,
        prune=not args.cssa,
    )
    results = batch.run_dir(args.directory)
    if not results:
        raise UsageError(f"no .par files under {args.directory}")
    for result in results:
        print(result.summary())
    errors = sum(1 for r in results if not r.ok)
    print(f"// {len(results)} file(s), {errors} error(s)")
    if args.cache_stats:
        # Each result carries its own journey's lookups, so the sum
        # covers the whole run, in this process or in workers.
        hits: Counter[str] = Counter()
        misses: Counter[str] = Counter()
        for result in results:
            for stage, entry in result.cache.items():
                hits[stage] += entry["hits"]
                misses[stage] += entry["misses"]
        rows = [(stage, hits[stage], misses[stage]) for stage in sorted(hits)]
        rows.append(("total", sum(hits.values()), sum(misses.values())))
        print()
        _print_table("artifact cache", ["stage", "hits", "misses"], rows)
    return 1 if errors and args.strict else 0


def _cmd_dot(args: argparse.Namespace) -> int:
    result = api.compile_source(
        _read_source(args.file),
        "dot",
        {"title": args.file, "prune": not args.cssa},
    )
    print(result.artifacts["dot"], end="")
    return EXIT_OK


def _print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    print(f"== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the pipeline under a tracer; print timing, decision, form,
    work-counter and metrics tables."""
    import json

    from repro.obs.metrics import Histogram
    from repro.obs.prof import WORK_PREFIX, profile_source

    source = _read_source(args.file)
    ambient = get_tracer()
    # Reuse the --trace tracer so the run can be exported (e.g. as a
    # flamegraph via --trace-format flame); otherwise profile privately.
    profile = profile_source(
        source,
        use_mutex=not args.cssa,
        tracer=ambient if ambient.enabled else None,
    )
    tracer = profile.tracer

    rows = [
        (
            "  " * max(span.depth - 1, 0) + span.name,
            f"{span.duration * 1e3:.3f}",
            " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items())),
        )
        for span in tracer.spans()
    ]
    _print_table("per-pass timing", ["phase", "wall_ms", "detail"], rows)

    # One row per removed argument of each A.3 decision; ``pis`` counts
    # the π terms that share the decision.
    decisions = tracer.events_of_kind("pi-args-removed")
    if decisions:
        print()
        _print_table(
            "A.3 conflict-argument removals",
            ["var", "arg", "lock", "reason", "pis"],
            [
                (e.var, arg.ssa_name, e.lock, reason, len(e.pis))
                for e in decisions
                for arg, reason in e.removed
            ],
        )

    print()
    metrics = measure_form(profile.report.program).as_dict()
    _print_table(
        "final form metrics",
        ["metric", "value"],
        sorted(metrics.items()),
    )

    print()
    _print_table(
        "deterministic work counters",
        ["phase", "metric", "ops"],
        [
            (phase, metric, value)
            for phase, counts in sorted(profile.phases.items())
            for metric, value in sorted(counts.items())
        ],
    )
    print(f"// total work: {profile.total()} op(s)")

    counters = {
        name: value
        for name, value in tracer.metrics.as_dict()["counters"].items()
        if not name.startswith(WORK_PREFIX)
    }
    if counters:
        print()
        _print_table("counters", ["counter", "value"], sorted(counters.items()))
    # Span durations as a distribution: the percentile columns make
    # outlier passes visible at a glance (the VM's lock-hold histograms
    # land here too when present).  The histogram is the table's own:
    # a --trace export holds only what the run recorded.
    span_hist = Histogram("span_wall_ms")
    for span in tracer.spans():
        span_hist.observe(span.duration * 1e3)
    histograms = tracer.metrics.as_dict()["histograms"]
    histograms[span_hist.name] = span_hist.summary()
    print()
    _print_table(
        "histograms",
        ["histogram", "n", "min", "p50", "p90", "p99", "max"],
        [
            (
                name,
                h["count"],
                f"{h['min']:g}",
                f"{h['p50']:g}",
                f"{h['p90']:g}",
                f"{h['p99']:g}",
                f"{h['max']:g}",
            )
            for name, h in sorted(histograms.items())
        ],
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(profile.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"// profile written to {args.json}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run registered benchmarks; optionally gate on the committed baseline."""
    import json

    from repro import bench as benchlib
    from repro.obs.prof import WORK_PREFIX

    modules = benchlib.discover()
    try:
        benches = benchlib.select(group=args.group, names=args.names or None)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    if args.list:
        _print_table(
            f"registered benchmarks ({modules} module(s) discovered)",
            ["name", "group", "cap", "profiled", "summary"],
            [
                (
                    b.name,
                    b.group,
                    b.repeat if b.repeat is not None else "-",
                    "yes" if b.profile else "no",
                    b.summary,
                )
                for b in benches
            ],
        )
        return 0
    if not benches:
        raise UsageError("no benchmarks selected")

    # Read the baseline first: a missing or malformed one fails the gate
    # (E_IO, exit 3) before any benchmark runs.
    baseline = None
    if args.check:
        baseline = benchlib.load_baseline(args.baseline)
    repeat = args.repeat if args.repeat is not None else benchlib.DEFAULT_REPEAT
    warmup = args.warmup if args.warmup is not None else benchlib.DEFAULT_WARMUP
    record = benchlib.run_suite(
        benches, repeat=repeat, warmup=warmup, group=args.group
    )
    rows = []
    for name, result in sorted(record["results"].items()):
        stats = result["wall"]
        work = sum(
            v
            for k, v in (result["counters"] or {}).items()
            if k.startswith(WORK_PREFIX)
        )
        def _ms(key: str) -> str:
            return f"{stats[key]:.3f}" if key in stats else "-"

        rows.append(
            (
                name,
                result["group"],
                _ms("median_ms"),
                _ms("iqr_ms"),
                _ms("min_ms"),
                work if work else "-",
                "ERROR" if result["error"] else "ok",
            )
        )
    _print_table(
        "bench",
        ["name", "group", "median_ms", "iqr_ms", "min_ms", "work_ops", "status"],
        rows,
    )
    for name, result in sorted(record["results"].items()):
        if result["error"]:
            print(f"error: {name}: {result['error']}", file=sys.stderr)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"// record written to {args.json}")

    errors = sum(1 for r in record["results"].values() if r["error"])
    if baseline is None:
        return 1 if errors else 0
    regressions = benchlib.compare_records(record, baseline)
    print(benchlib.format_regressions(regressions))
    return 1 if regressions or errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile service until SIGTERM/SIGINT drains it."""
    from repro.serve.server import CompileServer

    server = CompileServer(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        store_dir=args.store,
        deadline_ms=args.deadline_ms,
        queue_limit=args.queue_limit,
    )

    def ready(host: str, port: int) -> None:
        print(
            f"repro serve: listening on {host}:{port} "
            f"(jobs={server.jobs}, deadline_ms={server.deadline_ms:g}, "
            f"store={args.store or 'memory'})",
            flush=True,
        )

    code = server.run(ready)
    print("repro serve: drained, bye", flush=True)
    return code


def _cmd_request(args: argparse.Namespace) -> int:
    """One-shot client: send FILE to a running ``repro serve`` daemon."""
    import json

    from repro.results import result_from_dict
    from repro.serve.client import ServeClient

    try:
        options = json.loads(args.options) if args.options else {}
    except json.JSONDecodeError as exc:
        raise UsageError(f"--options is not valid JSON: {exc}") from None
    if args.kind != "compile":
        with ServeClient(args.host, args.port, timeout=args.timeout) as client:
            payload = client.ops() if args.kind == "ops" else client.ping()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    source = _read_source(args.file)
    with ServeClient(args.host, args.port, timeout=args.timeout) as client:
        response = client.request(source, stage=args.stage, options=options)
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
    if not response["ok"]:
        error = response["error"]
        if not args.json:
            print(f"error: [{error['code']}] {error['message']}",
                  file=sys.stderr)
        return exit_code_for(error["code"])
    if not args.json:
        result = result_from_dict(response["result"])
        _print_diagnostic_frames(result.diagnostics)
        for key in ("listing", "dot"):
            if key in result.artifacts:
                print(result.artifacts[key], end="")
        prov = result.provenance
        print(
            f"// stage: {result.stage} cache_hits={prov.cache_hits} "
            f"cache_misses={prov.cache_misses} "
            f"elapsed_ms={response.get('elapsed_ms', 0.0):g}"
        )
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    """Find and replay a schedule printing the requested values."""
    from repro.vm.explore import find_witness
    from repro.vm.machine import VirtualMachine

    program = front_end(_read_source(args.file))
    if args.deadlock:
        outcome: tuple = (("deadlock",),)
    else:
        values = tuple(int(v) for v in args.values)
        outcome = (("print", values),)
    schedule = find_witness(program, outcome, max_states=args.max_states)
    if schedule is None:
        print("no schedule produces that outcome", file=sys.stderr)
        return 1
    print("schedule (thread ids in step order):")
    print("  " + " ".join("main" if t == () else ".".join(map(str, t)) for t in schedule))
    # The replay runs under the ambient tracer (``main`` installs it for
    # --trace), so the replayed schedule leaves the same vm-step /
    # lock-event trail a live run would.
    execution = VirtualMachine(front_end(_read_source(args.file))).replay(schedule)
    print("replayed:")
    _print_events(execution)
    if execution.deadlocked:
        print("DEADLOCK", file=sys.stderr)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Static ↔ dynamic race cross-validation (``repro audit``)."""
    import json

    from repro.dynamic.audit import audit_source

    report = audit_source(
        _read_source(args.file),
        runs=args.runs,
        seed_base=args.seed_base,
        fuel=args.fuel,
        explore_states=args.max_states,
        do_explore=args.explore,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return report.exit_code(strict=args.strict)

    for finding in report.findings:
        print(finding.message())
    for race in report.dynamic_only:
        print(f"DYNAMIC-ONLY (static analysis missed this!): {race.message()}")
    if not report.findings and not report.dynamic_only:
        print("no races, static or dynamic")

    cov = report.coverage.as_dict()
    print()
    _print_table(
        "schedule coverage",
        ["metric", "value"],
        [
            ("runs sampled", cov["runs"]),
            ("deadlocked runs", cov["deadlock_runs"]),
            ("sampled outcome classes", cov["sampled_outcome_classes"]),
            (
                "explored outcome classes",
                cov["explored_outcome_classes"]
                if cov["explored_outcome_classes"] is not None
                else "(exploration off)",
            ),
            (
                "outcome coverage",
                f"{cov['outcome_coverage']:.0%}"
                if cov["outcome_coverage"] is not None
                else "-",
            ),
            ("conflict pairs observed", cov["conflict_pairs"]),
            (
                "ordering coverage",
                f"{cov['ordering_coverage']:.0%}"
                if cov["ordering_coverage"] is not None
                else "-",
            ),
            (
                "conflict-var coverage",
                f"{cov['conflict_var_coverage']:.0%}"
                if cov["conflict_var_coverage"] is not None
                else "-",
            ),
        ],
    )
    print(
        f"// {len(report.confirmed)} confirmed, "
        f"{len(report.unconfirmed)} unconfirmed, "
        f"{len(report.dynamic_only)} dynamic-only"
    )
    return report.exit_code(strict=args.strict)


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's error surface: a usage error raises
    :class:`~repro.errors.UsageError` (``E_USAGE``, exit 3) instead of
    exiting 2, the code the contract gives to deadlock.  Subcommand
    parsers inherit the class."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _at_least(minimum: int):
    """An argparse ``type``: an int no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" names it
    return parse


#: counts and budgets (fuel, states, runs, seed base, queue limit,
#: warmups): the wire schema rejects negative ints too
_COUNT = _at_least(0)
#: worker pool sizes and timed repeats
_POSITIVE = _at_least(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="CSSAME compiler driver (ICPP'98 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    # Tracing flags are shared by every command (parsed per-subcommand
    # so they may appear before or after the file argument).
    tracing = argparse.ArgumentParser(add_help=False)
    tracing.add_argument(
        "--trace", metavar="FILE", default=None,
        help="capture a trace of this run into FILE",
    )
    tracing.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="jsonl",
        help="trace file format (default: jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, func, operand: str = "file"):
        """A traced subcommand reading one operand (a program file)."""
        p = sub.add_parser(name, help=summary, parents=[tracing])
        p.add_argument(operand)
        p.set_defaults(func=func)
        return p

    p = command("analyze", "print the CSSAME/CSSA form", _cmd_analyze)
    p.add_argument("--cssa", action="store_true", help="skip Algorithm A.3")

    p = command("optimize", "run the optimization pipeline", _cmd_optimize)
    p.add_argument("--cssa", action="store_true", help="use plain CSSA")
    p.add_argument(
        "--phases", action="store_true", help="show every phase listing"
    )
    p.add_argument(
        "--keep-prints", action="store_true",
        help="leave print arguments symbolic (paper-figure style)",
    )

    p = command("diagnose", "Section 6 warnings and races", _cmd_diagnose)
    p.add_argument(
        "--strict", action=argparse.BooleanOptionalAction, default=True,
        help="exit 1 when findings exist (default; --no-strict exits 0)",
    )

    p = command("run", "execute under the interleaving VM", _cmd_run)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=_COUNT, default=DEFAULT_FUEL)
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--stats", action="store_true")
    p.add_argument(
        "--json", action="store_true",
        help="emit the execution as JSON (events, steps, per-lock "
             "held/blocked counters and contention timeline)",
    )

    p = command("explore", "enumerate every schedule", _cmd_explore)
    p.add_argument("--max-states", type=_COUNT, default=DEFAULT_MAX_STATES)
    p.add_argument("--optimize", action="store_true")

    p = command(
        "batch",
        "analyze+diagnose every .par file under a directory",
        _cmd_batch, "directory",
    )
    p.add_argument(
        "--jobs", type=_POSITIVE, default=1, metavar="N",
        help="worker processes (default: 1 = serial in this process; "
             "only a serial run records into --trace)",
    )
    p.add_argument(
        "--optimize", action="store_true",
        help="also run the optimization pipeline per file",
    )
    p.add_argument("--cssa", action="store_true", help="plain CSSA forms")
    p.add_argument(
        "--cache-stats", action="store_true",
        help="print the artifact cache's per-stage hit/miss table",
    )
    p.add_argument(
        "--strict", action=argparse.BooleanOptionalAction, default=False,
        help="exit 1 when any file errored (default: report and exit 0)",
    )

    p = command("dot", "Graphviz rendering of the PFG", _cmd_dot)
    p.add_argument("--cssa", action="store_true", help="plain CSSA PFG")

    p = command(
        "witness",
        "find a schedule that prints the given values (or deadlocks)",
        _cmd_witness,
    )
    p.add_argument("values", nargs="*", help="expected single print's values")
    p.add_argument("--deadlock", action="store_true",
                   help="find a deadlocking schedule instead")
    p.add_argument("--max-states", type=_COUNT, default=DEFAULT_MAX_STATES)

    p = command(
        "audit",
        "cross-validate static races against traced schedules",
        _cmd_audit,
    )
    audit = api.SERVE_STAGES["audit"]
    p.add_argument(
        "--runs", type=_COUNT, default=audit["runs"], metavar="N",
        help="seeded schedules to sample (default: %(default)s)",
    )
    p.add_argument(
        "--seed-base", type=_COUNT, default=audit["seed_base"],
        help="first seed; runs use seed_base..seed_base+N-1 "
             "(default: %(default)s)",
    )
    p.add_argument("--fuel", type=_COUNT, default=audit["fuel"])
    p.add_argument(
        "--explore", action=argparse.BooleanOptionalAction,
        default=audit["explore"],
        help="also run bounded exhaustive exploration as the coverage "
             "yardstick (default; --no-explore skips it)",
    )
    p.add_argument(
        "--max-states", type=_COUNT, default=audit["max_states"],
        help="state budget for --explore (default: %(default)s)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="exit 1 on confirmed races too (dynamic-only soundness "
             "failures always exit 1)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the full audit report as JSON",
    )

    p = command(
        "profile",
        "per-pass timing, A.3 decisions and work-counter tables",
        _cmd_profile,
    )
    p.add_argument("--cssa", action="store_true", help="use plain CSSA")
    p.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the profile (wall + work counters) as JSON",
    )

    # No tracing parent: the daemon owns its own observability (the
    # ``ops`` request kind exposes its counters and latency histograms).
    p = sub.add_parser(
        "serve",
        help="run the resilient compile service (JSON lines over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=DEFAULT_SERVE_PORT,
        help=f"TCP port (default: {DEFAULT_SERVE_PORT}; 0 = pick a free "
             "port, printed in the ready line)",
    )
    p.add_argument(
        "--jobs", type=_POSITIVE, default=None, metavar="N",
        help="worker threads (default: min(cpu_count, 8))",
    )
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="persistent artifact store directory (default: memory only)",
    )
    p.add_argument(
        "--deadline-ms", type=float, default=30_000.0, metavar="MS",
        help="per-request stage deadline (default: 30000)",
    )
    p.add_argument(
        "--queue-limit", type=_COUNT, default=None, metavar="N",
        help="max in-flight requests before E_OVERLOADED (default: 4*jobs; "
             "0 refuses every compile request)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "request",
        help="send FILE to a running `repro serve` daemon",
    )
    p.add_argument(
        "file", nargs="?", default="-",
        help="source file ('-' = stdin; unused for --kind ops/ping)",
    )
    p.add_argument(
        "--stage", default="diagnostics", choices=sorted(api.SERVE_STAGES),
        help="pipeline stage to request (default: diagnostics)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT)
    p.add_argument(
        "--kind", choices=("compile", "ops", "ping"), default="compile",
        help="request kind (ops = server health/metrics JSON)",
    )
    p.add_argument(
        "--options", metavar="JSON", default=None,
        help="stage options as a JSON object",
    )
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket timeout per attempt (default: 60)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the full response frame as JSON",
    )
    p.set_defaults(func=_cmd_request)

    # No tracing parent: an ambient tracer would distort the timed runs
    # (the runner enables its own tracer for the work-counter pass).
    p = sub.add_parser(
        "bench",
        help="run registered benchmarks; gate on the committed baseline "
             "with --check",
    )
    p.add_argument(
        "names", nargs="*",
        help="benchmark names to run (default: all selected by --group)",
    )
    p.add_argument(
        "--group", default=None,
        help="only benchmarks of this group (fast = the CI gate subset)",
    )
    p.add_argument("--list", action="store_true", help="list and exit")
    p.add_argument(
        "--repeat", type=_POSITIVE, default=None, metavar="N",
        help="timed repeats per benchmark (default: 5; capped per bench)",
    )
    p.add_argument(
        "--warmup", type=_COUNT, default=None, metavar="N",
        help="untimed warmup calls per benchmark (default: 1)",
    )
    p.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write this run's record as JSON",
    )
    p.add_argument(
        "--check", action="store_true",
        help="compare against the --baseline record; exit 1 on regression, "
             "3 when the baseline is missing or malformed",
    )
    p.add_argument(
        "--baseline", metavar="FILE", default="BENCH_baseline.json",
        help="committed baseline record (JSON) for --check "
             "(default: %(default)s)",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    tracer = None
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "trace", None):
            tracer = Tracer()
        # Without --trace the command runs under the caller's tracer.
        with use_tracer(tracer or get_tracer()):
            code = args.func(args)
    except (ReproError, OSError) as exc:
        # One error surface for the whole CLI: the taxonomy code in
        # brackets, then the message.  Exit codes derive from the code
        # (usage/parse/semantic/io → 3, deadlock → 2, service trouble → 4).
        print(f"error: [{error_code(exc)}] {exc}", file=sys.stderr)
        code = exit_code_for(error_code(exc))
    # Export whatever was captured, even on a non-zero exit — a failing
    # run is exactly when the trace is most wanted.  A write failure is
    # an error (3) unless the command itself already failed harder.
    if tracer is not None:
        try:
            write_trace(tracer, args.trace, args.trace_format)
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            code = code or 3
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
