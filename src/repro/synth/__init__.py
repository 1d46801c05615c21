"""Synthetic workloads.

* :mod:`repro.synth.generator` — a seeded random generator of
  well-formed explicitly parallel programs (configurable thread count,
  lock density, branching, bounded loops, shared/private mix).  Used by
  the property-based tests and the scalability benchmarks.
* :mod:`repro.synth.workloads` — named program families: the paper's
  figures plus realistic lock-heavy scenarios (bank accounts, shared
  counters, producer/consumer-style event pipelines) used by the
  benchmark harness.
"""

from repro.synth.generator import GeneratorConfig, generate_program, generate_source
from repro.synth.workloads import (
    bank_accounts,
    event_pipeline,
    lock_density_sweep,
    licm_loop_padding,
    licm_padding,
    paper_figure1,
    paper_figure1_source,
    paper_figure2,
    paper_figure2_source,
    shared_counters,
)

__all__ = [
    "GeneratorConfig",
    "bank_accounts",
    "event_pipeline",
    "generate_program",
    "generate_source",
    "licm_loop_padding",
    "licm_padding",
    "lock_density_sweep",
    "paper_figure1",
    "paper_figure1_source",
    "paper_figure2",
    "paper_figure2_source",
    "shared_counters",
]
