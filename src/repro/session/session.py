"""The :class:`Session` — the canonical entry point of the package.

A session owns one :class:`~repro.session.artifacts.ArtifactCache` and
answers pipeline requests (*analyze*, *diagnose*, *optimize*, *dot*,
*bytecode*) by walking the stage graph of :mod:`repro.session.stages`,
reusing every artifact the cache already holds.  Sweeping one program
through analyze + diagnose + dot therefore parses and lowers it once,
builds each SSA variant once, and pays only the last stage of each
journey on repeats::

    from repro.session import Session

    session = Session()
    form = session.analyze(source)            # parse + lower + CSSAME
    warnings, races = session.diagnose(source)  # reuses ast/ir; adds CSSA
    dot = session.dot(source)                   # pure cache walk + render
    print(session.cache_stats().hit_rate)

Sharing rules (what a caller may do with a returned artifact):

* :meth:`front_end` returns a **private deep copy** of the cached IR —
  mutate it freely (the VM, the optimizer and destructive passes do).
* :meth:`analyze` and :meth:`optimize` return the **cached object**;
  treat it as read-only.  The session guarantees its own stages never
  corrupt each other (copy-on-write inside the stage graph), but a
  caller who mutates a shared form sees their edits on the next hit.
* :meth:`diagnose` returns fresh lists (of shared, immutable findings).

Tracing: every stage lookup runs under a ``stage:<name>`` span carrying
a ``cache_hit`` attribute, and bumps the ``session.cache.hit`` /
``session.cache.miss`` counters of the current context's tracer.  To
trace a journey, call it inside ``with use_tracer(tracer):``
(:mod:`repro.obs.trace`).  A traced request against a warm session
records cache hits, not the pipeline spans; trace a fresh ``Session()``
to observe a full run.

For data rather than live objects, take the typed results of
:mod:`repro.api` (the same payloads ``repro serve`` answers with).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.cssame.builder import CSSAMEForm
from repro.ir.structured import ProgramIR, clone_program
from repro.mutex.races import RaceReport
from repro.mutex.warnings import SyncWarning
from repro.obs.trace import get_tracer
from repro.opt.pipeline import DEFAULT_PASSES, OptimizationReport
from repro.session.artifacts import ArtifactCache, CacheStats, derive_key, source_key
from repro.session.stages import STAGES
from repro.vm.bytecode import VMProgram

__all__ = ["Session"]


class Session:
    """A caching pipeline driver over the stage graph.

    Parameters
    ----------
    max_entries:
        Artifact-cache bound (LRU eviction); ``None`` = unbounded.
    cache:
        An explicit artifact store to use instead of a fresh in-memory
        :class:`ArtifactCache` — anything with the same ``get`` /
        ``put`` / ``MISSING`` / ``stats`` surface.  This is how
        ``repro.serve`` layers its persistent on-disk store under the
        session (``max_entries`` is ignored when ``cache`` is given).
    """

    def __init__(
        self,
        max_entries: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache(max_entries=max_entries)

    # -- the generic stage walk ---------------------------------------------

    def _options_for(self, stage: str, request: Mapping[str, Any]) -> dict:
        return {name: request[name] for name in STAGES[stage].options}

    def _key_for(self, stage: str, source: str, request: Mapping[str, Any]) -> str:
        """Artifact key of ``stage`` by walking the parent chain."""
        spec = STAGES[stage]
        if spec.parent is None:
            parent_key = source_key(source)
        else:
            parent_request = dict(request)
            if spec.parent_options:
                parent_request.update(spec.parent_options)
            parent_key = self._key_for(spec.parent, source, parent_request)
        return derive_key(
            stage,
            parent_key,
            self._options_for(stage, request),
            schema=tuple(spec.options),
        )

    def artifact_key(self, stage: str, source: str, **options: Any) -> str:
        """The public artifact key of ``stage`` for ``source``.

        ``options`` must name every option of the stage *chain* that
        differs from the journey defaults
        (:meth:`~repro.session.stages.StageSpec.journey_defaults`, the
        same names the journey methods accept).  Used by the serve layer
        for provenance and by store tooling; computing a key never
        computes the artifact.
        """
        request = STAGES[stage].journey_defaults()
        request.update(options)
        return self._key_for(stage, source, request)

    def _artifact(self, stage: str, source: str, request: Mapping[str, Any]) -> Any:
        """The ``stage`` artifact for ``source``, computing on miss.

        ``request`` maps option names (for the whole chain) to values;
        each stage picks out the names it declares.
        """
        spec = STAGES[stage]
        key = self._key_for(stage, source, request)
        tracer = get_tracer()
        value = self.cache.get(key, stage)
        hit = value is not self.cache.MISSING
        if tracer.enabled:
            tracer.counter(
                "session.cache.hit" if hit else "session.cache.miss"
            ).inc()
        if hit:
            with tracer.span(f"stage:{stage}", cache_hit=True):
                pass
            return value
        if spec.parent is None:
            parent_value = source
        else:
            parent_request = dict(request)
            if spec.parent_options:
                parent_request.update(spec.parent_options)
            parent_value = self._artifact(spec.parent, source, parent_request)
        with tracer.span(f"stage:{stage}", cache_hit=False):
            value = spec.compute(parent_value, self._options_for(stage, request))
        if tracer.enabled:
            # Deterministic work hook: one unit per stage actually
            # computed (cache hits cost no stage work by definition).
            tracer.counter(f"work.session.compute.{stage}").inc()
        self.cache.put(key, value)
        return value

    # -- journeys ------------------------------------------------------------

    def front_end(self, source: str) -> ProgramIR:
        """Parse and lower ``source``; returns a private, mutable copy."""
        return clone_program(self._artifact("ir", source, {}))

    def analyze(
        self,
        source: str,
        prune: bool = True,
        prune_events: bool = True,
    ) -> CSSAMEForm:
        """CSSAME form of ``source`` (``prune=False`` → plain CSSA).

        The returned form is the cached artifact — treat it as
        read-only.
        """
        return self._artifact(
            "cssame",
            source,
            {"prune": prune, "prune_events": prune_events},
        )

    def diagnose(self, source: str) -> tuple[list[SyncWarning], list[RaceReport]]:
        """Section 6 diagnostics (sync warnings + potential races)."""
        warnings, races = self._artifact("diagnostics", source, {})
        return list(warnings), list(races)

    def optimize(
        self,
        source: str,
        passes: tuple[str, ...] = DEFAULT_PASSES,
        use_mutex: bool = True,
        fold_output_uses: bool = True,
        simplify: bool = True,
    ) -> OptimizationReport:
        """The paper's optimization pipeline; cached per option tuple."""
        return self._artifact(
            "optimized",
            source,
            {
                "passes": tuple(passes),
                "use_mutex": use_mutex,
                "fold_output_uses": fold_output_uses,
                "simplify": simplify,
            },
        )

    def dot(self, source: str, title: str = "PFG", prune: bool = True) -> str:
        """DOT rendering of the PFG (CSSAME, or CSSA with ``prune=False``)."""
        return self._artifact("dot", source, {"title": title, "prune": prune})

    def bytecode(self, source: str) -> VMProgram:
        """VM bytecode of the (unoptimized) program."""
        return self._artifact("bytecode", source, {})

    # -- bookkeeping ---------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction accounting for this session's cache."""
        return self.cache.stats

    def clear_cache(self) -> None:
        """Drop every cached artifact (accounting is preserved)."""
        self.cache.clear()

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.cache.stats
        return (
            f"Session(artifacts={len(self.cache)}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )
