"""High-level API — typed results over :mod:`repro.session`.

The canonical surface is :func:`compile_source`: name a stage, get back
a frozen typed result (:class:`~repro.results.CompileResult` /
:class:`~repro.results.DiagnoseResult` /
:class:`~repro.results.OptimizeResult`) whose ``as_dict()`` is exactly
the wire payload the ``repro serve`` daemon returns for the same
request.  Three stage-specific helpers wrap it::

    from repro import api

    result = api.diagnose(source)          # DiagnoseResult
    result.clean, result.warnings, result.races

    result = api.optimize(source)          # OptimizeResult
    result.listing, result.removed, result.moved

    result = api.compile_source(source, stage="dot")
    result.artifacts["dot"]

Every call gets an **ephemeral** session by default (results are
recomputed from scratch); pass a long-lived
:class:`~repro.session.session.Session` via ``session=`` to reuse
cached artifacts across calls — the result's ``provenance`` then shows
the cache traffic.

Code that needs live compiler objects (a ``CSSAMEForm``, an
``OptimizationReport``, the finding lists) holds a ``Session`` and calls
its journeys directly.  :func:`front_end` and :func:`listing` round out
the facade: structured IR in, text out.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.errors import UnsupportedRequest
from repro.ir.printer import format_ir
from repro.ir.structured import ProgramIR
from repro.obs.prof import WORK_PREFIX
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.opt.pipeline import DEFAULT_PASSES, KNOWN_PASSES
from repro.report import measure_form
from repro.results import (
    CompileResult,
    DiagnoseResult,
    OptimizeResult,
    Provenance,
    result_class_for,
)
from repro.session.session import Session
from repro.session.stages import WIRE_STAGES

__all__ = [
    "SERVE_STAGES",
    "analyze",
    "compile_source",
    "diagnose",
    "front_end",
    "listing",
    "optimize",
    "stage_options",
]

#: stages a compile request may name, and the option schema of each
#: (name → default), derived from :data:`repro.session.stages.WIRE_STAGES`.
#: This table *is* the wire contract: the server validates requests
#: against it and ``docs/API.md`` documents it.
SERVE_STAGES: dict[str, dict[str, Any]] = {
    wire: spec.journey_defaults() for wire, spec in WIRE_STAGES.items()
}


def stage_options(stage: str, options: Optional[Mapping[str, Any]] = None) -> dict:
    """Validate and default a request's options against the stage schema.

    A value must have its default's type (a bool is not an int here),
    an integer must not be negative, and ``passes`` may name only the
    optimizer's known passes.  Raises
    :class:`~repro.errors.UnsupportedRequest` (``E_UNSUPPORTED``) for an
    unknown stage, option name or value — the same typed error a server
    frame carries.
    """
    schema = SERVE_STAGES.get(stage)
    if schema is None:
        raise UnsupportedRequest(
            f"unknown stage {stage!r} (expected one of {sorted(SERVE_STAGES)})"
        )
    merged = dict(schema)
    for name, value in (options or {}).items():
        if name not in schema:
            raise UnsupportedRequest(
                f"stage {stage!r} takes no option {name!r} "
                f"(valid: {sorted(schema) or 'none'})"
            )
        # JSON has no tuples; normalise list-valued options.
        if isinstance(value, list):
            value = tuple(value)
        problem = _option_problem(value, schema[name])
        if problem:
            raise UnsupportedRequest(
                f"stage {stage!r} option {name!r}: {problem}, got {value!r}"
            )
        merged[name] = value
    return merged


def _option_problem(value: Any, default: Any) -> Optional[str]:
    """Why ``value`` cannot stand in for ``default`` (``None`` if it can)."""
    kind = type(default)
    if type(value) is not kind:
        return f"expected {kind.__name__}"
    if kind is int and value < 0:
        return "expected a non-negative int"
    if kind is tuple and not all(p in KNOWN_PASSES for p in value):
        return f"expected passes from {list(KNOWN_PASSES)}"
    return None


def _session(session: Optional[Session]) -> Session:
    """The session backing one facade call (ephemeral when omitted)."""
    return session if session is not None else Session()


# -- stage handlers: (session, source, options) -> (artifacts, diagnostics) --


def _run_analyze(sess: Session, source: str, opts: dict):
    form = sess.analyze(source, prune=opts["prune"])
    rewrite = None
    if form.rewrite_stats is not None:
        rewrite = {
            "args_removed": form.rewrite_stats.args_removed,
            "pis_deleted": form.rewrite_stats.pis_deleted,
        }
    artifacts = {
        "listing": format_ir(form.program),
        "form": "CSSAME" if opts["prune"] else "CSSA",
        "metrics": measure_form(form.program).as_dict(),
        "mutex_bodies": len(form.mutex_bodies()),
        "rewrite": rewrite,
    }
    return artifacts, ()


def _run_diagnostics(sess: Session, source: str, opts: dict):
    warnings, races = sess.diagnose_classes(source)
    frames = [
        {"kind": w.kind, "message": w.message, "blocks": list(w.blocks)}
        for w in warnings
    ]
    # One frame per race class; the count stays the expanded pair count.
    frames += [
        {"kind": "race", "message": c.message(), "race": c.as_dict()} for c in races
    ]
    artifacts = {"warnings": len(warnings), "races": races.pairs}
    return artifacts, tuple(frames)


def _run_optimized(sess: Session, source: str, opts: dict):
    report = sess.optimize(
        source,
        passes=tuple(opts["passes"]),
        use_mutex=opts["use_mutex"],
        fold_output_uses=opts["fold_output_uses"],
    )
    artifacts = {
        "listing": report.listings["final"],
        "phases": sorted(report.listings),
        "constants": len(report.constprop.constants) if report.constprop else 0,
        "removed": report.pdce.total_removed if report.pdce else 0,
        "moved": report.licm.total_moved if report.licm else 0,
        "statements": report.statement_count(),
        "metrics": measure_form(report.program).as_dict(),
    }
    return artifacts, ()


def _run_dot(sess: Session, source: str, opts: dict):
    text = sess.dot(source, title=opts["title"], prune=opts["prune"])
    return {"dot": text}, ()


def _run_bytecode(sess: Session, source: str, opts: dict):
    program = sess.bytecode(source)
    artifacts = {
        "listing": program.disassemble(),
        "instructions": len(program),
        "entry": program.entry,
    }
    return artifacts, ()


def _run_audit(sess: Session, source: str, opts: dict):
    from repro.dynamic.audit import audit_source

    report = audit_source(
        source,
        runs=opts["runs"],
        seed_base=opts["seed_base"],
        fuel=opts["fuel"],
        explore_states=opts["max_states"],
        do_explore=opts["explore"],
        session=sess,
    )
    frames = [
        {"kind": f"race-{f.status}", "message": f.message()}
        for f in report.findings
    ]
    frames += [
        {"kind": "race-dynamic-only", "message": r.message()}
        for r in report.dynamic_only
    ]
    artifacts = {
        "audit": report.as_dict(),
        "sound": report.sound,
        "exit": report.exit_code(strict=False),
        "exit_strict": report.exit_code(strict=True),
    }
    return artifacts, tuple(frames)


_HANDLERS = {
    "analyze": _run_analyze,
    "diagnostics": _run_diagnostics,
    "optimized": _run_optimized,
    "dot": _run_dot,
    "bytecode": _run_bytecode,
    "audit": _run_audit,
}


def compile_source(
    source: str,
    stage: str = "diagnostics",
    options: Optional[Mapping[str, Any]] = None,
    session: Optional[Session] = None,
) -> CompileResult:
    """Run one stage journey and return its typed result.

    ``stage`` names a wire stage (see :data:`SERVE_STAGES`); ``options``
    is validated against the stage's schema.  The result's ``as_dict()``
    is exactly what ``repro serve`` would answer for the same request.
    To capture the journey's spans and events, call it inside
    ``with use_tracer(tracer):``.
    """
    opts = stage_options(stage, options)
    sess = _session(session)
    # Always run under a private tracer so the work/cache counters are
    # exact for *this* request, then forward the capture to the ambient
    # tracer (``use_tracer``, ``--trace``) so nothing is lost to it.
    ambient = get_tracer()
    tracer = Tracer()
    with use_tracer(tracer):
        artifacts, diagnostics = _HANDLERS[stage](sess, source, opts)
    if ambient.enabled:
        ambient.absorb(tracer)
    counters = tracer.metrics.counters
    work = {
        name: counter.value
        for name, counter in sorted(counters.items())
        if name.startswith(WORK_PREFIX)
    }
    spec = WIRE_STAGES[stage]
    artifact_key = None
    if spec.compute is not None:
        artifact_key = sess.artifact_key(spec.name, source, **opts)
    provenance = Provenance(
        source_key=_source_key(source),
        stage=stage,
        artifact_key=artifact_key,
        cache_hits=_counter_value(counters, "session.cache.hit"),
        cache_misses=_counter_value(counters, "session.cache.miss"),
    )
    return result_class_for(stage)(
        stage=stage,
        artifacts=artifacts,
        provenance=provenance,
        diagnostics=diagnostics,
        work=work,
    )


def _source_key(source: str) -> str:
    from repro.session.artifacts import source_key

    return source_key(source)


def _counter_value(counters: Mapping[str, Any], name: str) -> int:
    counter = counters.get(name)
    return counter.value if counter is not None else 0


# -- typed stage helpers -----------------------------------------------------


def analyze(
    source: str,
    prune: bool = True,
    session: Optional[Session] = None,
) -> CompileResult:
    """Typed CSSAME/CSSA analysis (listing + form metrics)."""
    return compile_source(source, "analyze", {"prune": prune}, session=session)


def diagnose(
    source: str,
    session: Optional[Session] = None,
) -> DiagnoseResult:
    """Typed Section 6 diagnostics (warnings + races as frames)."""
    result = compile_source(source, "diagnostics", session=session)
    assert isinstance(result, DiagnoseResult)
    return result


def optimize(
    source: str,
    passes: tuple[str, ...] = DEFAULT_PASSES,
    use_mutex: bool = True,
    fold_output_uses: bool = True,
    session: Optional[Session] = None,
) -> OptimizeResult:
    """Typed optimization pipeline result (listing + pass stats)."""
    result = compile_source(
        source,
        "optimized",
        {
            "passes": tuple(passes),
            "use_mutex": use_mutex,
            "fold_output_uses": fold_output_uses,
        },
        session=session,
    )
    assert isinstance(result, OptimizeResult)
    return result


# -- IR helpers ----------------------------------------------------------------


def front_end(source: str, session: Optional[Session] = None) -> ProgramIR:
    """Parse and lower ``source`` to structured IR (a private copy)."""
    return _session(session).front_end(source)


def listing(program: ProgramIR) -> str:
    """Source-like listing of a program in any form."""
    return format_ir(program)
