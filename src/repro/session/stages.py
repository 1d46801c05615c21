"""The pipeline stage graph, and the one table every stage default lives in.

The compiler's journeys all walk one DAG::

    source ──> ast ──> ir ──┬─> cssame(prune) ──┬─> dot(title)
                            │   (prune=False is  └─> diagnostics
                            │    CSSA)               (pins prune=False)
                            ├─> optimized(passes, use_mutex,
                            │             fold_output_uses)
                            └─> bytecode

Each node is a :class:`StageSpec`: a name, the parent stage it consumes,
its options with their defaults, and a pure-from-the-outside compute
function.  A stage's artifact key is derived from its parent's key plus
its options (see :mod:`repro.session.artifacts`), so the graph doubles
as the cache's addressing scheme: asking for ``diagnostics`` twice walks
the same chain of keys and reuses whatever prefix is already
materialised.

The same table names the stages a compile request may ask for
(:data:`WIRE_STAGES`): ``analyze`` is the wire name of ``cssame``, and
``audit`` runs outside the graph (its spec has no compute function).
Everything else that needs a default — the session's artifact keys, the
wire schema :data:`repro.api.SERVE_STAGES`, the CLI's ``request --stage``
choices and ``audit`` flags — derives it from here.

Mutation discipline — the single invariant that makes caching sound:
**a compute function must never mutate its input artifact.**  The
front-end stages are naturally pure (parsing and lowering build fresh
objects); the SSA construction and the optimizer, however, rewrite a
``ProgramIR`` *in place*, so their compute functions deep-copy the
cached IR first (:func:`repro.ir.structured.clone_program`) and mutate
the private copy.  That copy-on-write step is what lets one cached
``ir`` artifact feed ``cssame``, ``optimized`` and ``bytecode`` without
any stage corrupting another's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from repro.cfg.dot import to_dot
from repro.cssame.builder import build_cssame
from repro.ir.lower import lower_program
from repro.ir.structured import clone_program
from repro.lang.parser import parse
from repro.mutex.deadlock import detect_lock_order_cycles
from repro.mutex.races import detect_race_classes
from repro.mutex.warnings import SyncWarning, check_synchronization
from repro.obs.trace import get_tracer
from repro.opt.pipeline import DEFAULT_PASSES, optimize
from repro.vm.compile import compile_program

__all__ = ["STAGES", "StageSpec", "WIRE_STAGES", "stage_order"]


@dataclass(frozen=True)
class StageSpec:
    """One stage: a node of the pipeline graph, or a wire stage outside it."""

    name: str
    #: the stage whose artifact this one consumes (``None`` for the root)
    parent: Optional[str]
    #: option name → journey default (the names are part of the cache key)
    options: Mapping[str, Any]
    #: ``compute(parent_artifact, options) -> artifact``; ``None`` for a
    #: wire stage that runs outside the graph
    compute: Optional[Callable[[Any, Mapping[str, Any]], Any]]
    #: options of the *parent* chain this stage pins (e.g. diagnostics
    #: always reads the unpruned CSSA form)
    parent_options: Mapping[str, Any] = None  # type: ignore[assignment]

    def journey_defaults(self) -> dict[str, Any]:
        """Every option a journey to this stage takes, with its default:
        the stage's own, then each ancestor's that no descendant pins."""
        defaults: dict[str, Any] = {}
        pinned: set[str] = set()
        spec: Optional[StageSpec] = self
        while spec is not None:
            for name, value in spec.options.items():
                if name not in pinned:
                    defaults.setdefault(name, value)
            pinned.update(spec.parent_options or ())
            spec = STAGES.get(spec.parent)
        return defaults


def _compute_ast(source: str, options: Mapping[str, Any]):
    return parse(source)


def _compute_ir(ast, options: Mapping[str, Any]):
    return lower_program(ast)


def _compute_cssame(ir, options: Mapping[str, Any]):
    # build_cssame rewrites the program in place: work on a private copy
    # so the cached ``ir`` artifact stays pristine (copy-on-write).
    return build_cssame(clone_program(ir), prune=options["prune"])


def _compute_diagnostics(form, options: Mapping[str, Any]):
    """Section 6 diagnostics over the (unpruned) CSSA form.

    Returns ``(warnings, races)``, the races as
    :class:`~repro.mutex.races.RaceClasses`; both are treated as
    immutable once cached — the session hands out copies.
    """
    with get_tracer().span("diagnose") as span:
        warnings = check_synchronization(form.graph, form.structures)
        for risk in detect_lock_order_cycles(form.graph, form.structures):
            blocks = tuple(b for bs in risk.witnesses.values() for b in bs)
            warnings.append(SyncWarning("deadlock-risk", risk.message(), blocks))
        races = detect_race_classes(form.graph, form.structures)
        span.set(warnings=len(warnings), races=races.pairs)
    return warnings, races


def _compute_optimized(ir, options: Mapping[str, Any]):
    # optimize() rewrites the program in place: copy-on-write again.
    program = clone_program(ir)
    return optimize(
        program,
        passes=options["passes"],
        use_mutex=options["use_mutex"],
        fold_output_uses=options["fold_output_uses"],
    )


def _compute_dot(form, options: Mapping[str, Any]):
    return to_dot(form.graph, title=options["title"])


def _compute_bytecode(ir, options: Mapping[str, Any]):
    # compile_program only reads its input, so no copy: the bytecode
    # shares the cached IR's expressions, which no stage mutates (the
    # ones that rewrite work on clones, and front_end hands out clones).
    return compile_program(ir)


#: every stage in dependency order, under the name a compile request
#: gives it (``None``: a graph node no request names)
_TABLE: tuple[tuple[Optional[str], StageSpec], ...] = (
    (None, StageSpec("ast", None, {}, _compute_ast)),
    (None, StageSpec("ir", "ast", {}, _compute_ir)),
    ("analyze", StageSpec("cssame", "ir", {"prune": True}, _compute_cssame)),
    (
        "diagnostics",
        StageSpec(
            "diagnostics",
            "cssame",
            {},
            _compute_diagnostics,
            parent_options={"prune": False},
        ),
    ),
    (
        "optimized",
        StageSpec(
            "optimized",
            "ir",
            {
                "passes": DEFAULT_PASSES,
                "use_mutex": True,
                "fold_output_uses": True,
            },
            _compute_optimized,
        ),
    ),
    ("dot", StageSpec("dot", "cssame", {"title": "PFG"}, _compute_dot)),
    ("bytecode", StageSpec("bytecode", "ir", {}, _compute_bytecode)),
    (
        "audit",
        StageSpec(
            "audit",
            None,
            {
                "runs": 16,
                "seed_base": 0,
                "fuel": 1_000_000,
                "explore": True,
                "max_states": 20_000,
            },
            None,
        ),
    ),
)

#: the stage graph, in dependency order
STAGES: dict[str, StageSpec] = {
    spec.name: spec for _, spec in _TABLE if spec.compute is not None
}

#: the stages a compile request may name
WIRE_STAGES: dict[str, StageSpec] = {
    wire: spec for wire, spec in _TABLE if wire is not None
}


def stage_order() -> list[str]:
    """Stage names in topological (definition) order."""
    return list(STAGES)
