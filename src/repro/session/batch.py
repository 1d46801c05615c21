"""Corpus driver: analyze + diagnose a directory of ``.par`` files.

:class:`BatchSession` runs a corpus serially in this process, through
one shared artifact-cached :class:`Session`, or, for ``jobs`` above 1,
over a ``concurrent.futures`` process pool (real CPU parallelism for
the pure-Python pipeline; each file gets a fresh session in its
worker).  A thread pool buys nothing here: the interpreter lock
serializes the pipeline, and on a 96-file corpus it lost to the serial
path.  Either way it collects one :class:`FileResult` per input **in
the order the inputs were given**, regardless of completion order, and
each result carries the artifact-cache lookups its journey made, so
the per-stage totals cover the whole run whichever way it ran.

Error isolation: a file that fails to read, parse, or analyze yields a
``FileResult`` whose ``error`` field carries the structured message —
it never kills the batch and never disturbs its neighbours' results.

Tracing: pool workers start untraced, so only a serial batch
(``jobs=1``) records into the ambient tracer
(:func:`repro.obs.trace.use_tracer`).
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.report import measure_form
from repro.session.session import Session

__all__ = ["BatchSession", "FileResult"]


@dataclass
class FileResult:
    """The outcome of one file's journey through the batch pipeline.

    Exactly one of the two shapes occurs: ``ok=True`` with the analysis
    payload filled in, or ``ok=False`` with ``error`` set and the
    payload fields empty.
    """

    path: str
    ok: bool
    error: Optional[str] = None
    #: rendered Section 6 findings
    warnings: list = field(default_factory=list)
    #: one line per race class, as ``repro diagnose`` prints them
    races: list = field(default_factory=list)
    #: racing block pairs over all the classes
    race_pairs: int = 0
    #: FormMetrics of the CSSAME program (statements, pi/phi counts, ...)
    metrics: dict = field(default_factory=dict)
    #: optimization stats, when the batch ran with ``optimize=True``
    optimize: Optional[dict] = None
    #: wall seconds this file took inside its worker
    duration: float = 0.0
    #: artifact-cache lookups of this file's journey, stage →
    #: ``{"hits": n, "misses": n}``
    cache: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One status line, the shape ``repro batch`` prints."""
        if not self.ok:
            return f"{self.path}: ERROR {self.error}"
        parts = [
            f"pi_terms={self.metrics.get('pi_terms', 0)}",
            f"warnings={len(self.warnings)}",
            f"races={self.race_pairs}",
        ]
        if self.optimize is not None:
            parts.append(
                f"removed={self.optimize['removed']}"
                f" moved={self.optimize['moved']}"
            )
        return f"{self.path}: ok " + " ".join(parts)


def _lookups_since(before: dict, session: Session) -> dict:
    """Per-stage cache lookups ``session`` made since the ``before``
    snapshot of its ``by_stage`` table."""
    lookups = {}
    for stage, entry in session.cache_stats().by_stage.items():
        prior = before.get(stage, {"hits": 0, "misses": 0})
        delta = {k: entry[k] - prior[k] for k in ("hits", "misses")}
        if delta["hits"] or delta["misses"]:
            lookups[stage] = delta
    return lookups


def _process_file(
    path: str,
    optimize: bool,
    prune: bool,
    session: Optional[Session] = None,
) -> FileResult:
    """Run one file's journey; module-level so process pools can pickle it."""
    t0 = perf_counter()
    own = session if session is not None else Session()
    before = {k: dict(v) for k, v in own.cache_stats().by_stage.items()}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        form = own.analyze(source, prune=prune)
        warnings, races = own.diagnose_classes(source)
        result = FileResult(
            path=path,
            ok=True,
            warnings=[f"[{w.kind}] {w.message}" for w in warnings],
            races=[c.message() for c in races],
            race_pairs=races.pairs,
            metrics=measure_form(form.program).as_dict(),
        )
        if optimize:
            report = own.optimize(source, use_mutex=prune)
            result.optimize = {
                "constants": len(report.constprop.constants),
                "removed": report.pdce.total_removed,
                "moved": report.licm.total_moved,
            }
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        result = FileResult(
            path=path, ok=False, error=f"{type(exc).__name__}: {exc}"
        )
    result.cache = _lookups_since(before, own)
    result.duration = perf_counter() - t0
    return result


class BatchSession:
    """Analyze a corpus of ``.par`` files.

    Parameters
    ----------
    jobs:
        ``None`` or ``1`` runs serially in this process on ``session``
        (the deterministic baseline the scaling benchmark compares
        against); a larger value runs that many worker processes, each
        file on a fresh session (inputs must be files on disk).
    optimize:
        Also run the optimization pipeline per file and record its
        stats.
    prune:
        Build CSSAME (``True``, default) or plain CSSA forms.
    session:
        The artifact-cache-bearing :class:`Session` of serial runs; a
        fresh one is created if omitted.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        optimize: bool = False,
        prune: bool = True,
        session: Optional[Session] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs or 1
        self.optimize = optimize
        self.prune = prune
        self.session = session if session is not None else Session()

    def run_dir(self, directory: str, pattern: str = ".par") -> list[FileResult]:
        """Every ``*.par`` file under ``directory`` (sorted, recursive)."""
        paths = []
        for root, _dirs, files in os.walk(directory):
            for name in sorted(files):
                if name.endswith(pattern):
                    paths.append(os.path.join(root, name))
        return self.run(sorted(paths))

    def run(self, paths: Sequence[str] | Iterable[str]) -> list[FileResult]:
        """One :class:`FileResult` per path, in input order."""
        paths = list(paths)
        if self.jobs == 1:
            return [
                _process_file(p, self.optimize, self.prune, self.session)
                for p in paths
            ]
        results: list[Optional[FileResult]] = [None] * len(paths)
        with concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_process_file, path, self.optimize, self.prune): index
                for index, path in enumerate(paths)
            }
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    results[index] = future.result()
                except Exception as exc:  # worker/pool-level failure
                    results[index] = FileResult(
                        path=paths[index],
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
        return [r for r in results if r is not None]
