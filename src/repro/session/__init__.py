"""repro.session — the stage-graph Session API.

The canonical programmatic surface of the package (see ``docs/API.md``):

* :class:`~repro.session.session.Session` — a caching pipeline driver
  that models ``source → ast → ir → cssame → {diagnostics, optimized,
  dot, bytecode}`` as an explicit stage graph with a content-addressed
  artifact cache;
* :class:`~repro.session.batch.BatchSession` /
  :class:`~repro.session.batch.FileResult` — the parallel corpus
  driver behind ``repro batch``;
* :class:`~repro.session.artifacts.ArtifactCache` /
  :class:`~repro.session.artifacts.CacheStats` — the cache itself.

The typed one-shot helpers of :mod:`repro.api` are a thin facade over
this machinery.
"""

from repro.session.artifacts import ArtifactCache, CacheStats, derive_key, source_key
from repro.session.batch import BatchSession, FileResult
from repro.session.session import Session
from repro.session.stages import STAGES, StageSpec, stage_order

__all__ = [
    "ArtifactCache",
    "BatchSession",
    "CacheStats",
    "FileResult",
    "STAGES",
    "Session",
    "StageSpec",
    "derive_key",
    "source_key",
    "stage_order",
]
