"""repro.bench — the performance observatory.

The package turns the repo's scattered ``benchmarks/bench_*.py`` files
into one instrument:

* :mod:`repro.bench.registry` — every benchmark registers a named,
  grouped entry point with :func:`register`; :func:`discover` imports
  the ``benchmarks`` package to populate the registry.
* :mod:`repro.bench.runner` — statistical timing (warmup, repeats,
  median/IQR/min) plus a traced pass collecting the deterministic
  ``work.*`` counters of :mod:`repro.obs.prof`.
* :mod:`repro.bench.check` — the regression gate against the committed
  ``BENCH_baseline.json``: work counters as the primary (noise-free)
  signal, IQR-aware wall-time as secondary.

``repro bench`` (see :mod:`repro.cli`) is the front door.
"""

from repro.bench.check import (
    COUNTER_TOLERANCE,
    Regression,
    WALL_IQR_MULT,
    WALL_REL_THRESHOLD,
    compare_records,
    format_regressions,
    load_baseline,
)
from repro.bench.env import fingerprint, git_commit
from repro.bench.registry import (
    Benchmark,
    clear_registry,
    discover,
    register,
    registered,
    select,
)
from repro.bench.runner import (
    BenchResult,
    DEFAULT_REPEAT,
    DEFAULT_WARMUP,
    RECORD_SCHEMA,
    run_benchmark,
    run_suite,
    wall_stats,
)

__all__ = [
    "Benchmark",
    "BenchResult",
    "COUNTER_TOLERANCE",
    "DEFAULT_REPEAT",
    "DEFAULT_WARMUP",
    "RECORD_SCHEMA",
    "Regression",
    "WALL_IQR_MULT",
    "WALL_REL_THRESHOLD",
    "clear_registry",
    "compare_records",
    "discover",
    "fingerprint",
    "format_regressions",
    "git_commit",
    "load_baseline",
    "register",
    "registered",
    "run_benchmark",
    "run_suite",
    "select",
    "wall_stats",
]
