"""Mutual exclusion analysis (paper Section 3).

* :mod:`repro.mutex.structures` — mutex bodies and mutex structures
  (Definitions 3–4).
* :mod:`repro.mutex.identify` — Algorithm A.1: identify all mutex
  structures in the PFG.
* :mod:`repro.mutex.lockset` — locks guaranteed held at each node.
* :mod:`repro.mutex.warnings` — Section 6 diagnostics: unmatched
  Lock/Unlock operations, improperly nested mutex bodies.
* :mod:`repro.mutex.races` — lockset-style detection of shared
  variables protected inconsistently (potential data races), by
  (variable, kind, lockset pair) class.
"""

from repro.mutex.structures import MutexBody, MutexStructure
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.lockset import compute_locksets
from repro.mutex.warnings import SyncWarning, check_synchronization
from repro.mutex.races import (
    RaceClass,
    RaceClasses,
    RaceReport,
    detect_race_classes,
    detect_races,
)
from repro.mutex.deadlock import DeadlockRisk, detect_lock_order_cycles

__all__ = [
    "MutexBody",
    "DeadlockRisk",
    "MutexStructure",
    "RaceClass",
    "RaceClasses",
    "RaceReport",
    "SyncWarning",
    "check_synchronization",
    "compute_locksets",
    "detect_lock_order_cycles",
    "detect_race_classes",
    "detect_races",
    "identify_mutex_structures",
]
