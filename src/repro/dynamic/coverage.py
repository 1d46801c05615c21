"""Schedule-coverage metrics — how much of the behaviour space a set
of sampled runs actually visited.

Sampling N seeded schedules proves nothing by itself: the interesting
interleaving may simply never have been drawn.  These metrics quantify
the sample against two yardsticks:

* the **outcome space** — the exhaustive explorer's outcome classes
  (when bounded exploration ran): which fraction did the sampled runs
  reproduce, overall and reduced to print-level classes;
* the **conflict-ordering space** — for every pair of conflicting
  memory statements observed executing from different threads (at
  least one a write), the two possible execution orders: a sample that
  only ever saw the write first has not exercised the racy order, no
  matter how many runs it made.  The static side of the same coin is
  the PFG's conflict-edge variable set: ``conflict_var_coverage`` is
  the fraction of statically conflicting variables the runs observed
  in a dynamic conflict at all.
"""

from __future__ import annotations

from typing import Optional

from repro.vm.explore import print_outcomes

__all__ = ["ScheduleCoverage"]


class ScheduleCoverage:
    """Aggregated coverage of one audit's sampled runs."""

    def __init__(self) -> None:
        self.runs = 0
        self.deadlock_runs = 0
        #: full outcome keys sampled (``Execution.output_key()``)
        self.sampled_outcomes: set[tuple] = set()
        #: (var, pc_lo, pc_hi) → subset of {"ab", "ba"} orders exercised
        self.orderings: dict[tuple, set[str]] = {}
        #: variables with at least one static PFG conflict edge
        self.static_conflict_vars: set[str] = set()
        #: exploration yardstick (None when exploration did not run)
        self.explored_outcomes: Optional[frozenset] = None
        self.explored_states: Optional[int] = None
        self.explore_complete: Optional[bool] = None

    # -- outcome coverage ---------------------------------------------------

    @property
    def sampled_classes(self) -> int:
        """Distinct full outcome classes the sampled runs produced."""
        return len(self.sampled_outcomes)

    @property
    def sampled_print_classes(self) -> int:
        """Distinct print-level outcome classes sampled."""
        return len(print_outcomes(self.sampled_outcomes))

    @property
    def outcome_coverage(self) -> Optional[float]:
        """Fraction of explored outcome classes the sample reproduced."""
        if not self.explored_outcomes:
            return None
        hit = len(self.sampled_outcomes & self.explored_outcomes)
        return hit / len(self.explored_outcomes)

    # -- conflict-ordering coverage ------------------------------------------

    @property
    def conflict_pairs(self) -> int:
        """Conflicting statement pairs observed across all runs."""
        return len(self.orderings)

    @property
    def orderings_exercised(self) -> int:
        return sum(len(orders) for orders in self.orderings.values())

    @property
    def ordering_coverage(self) -> Optional[float]:
        """Exercised orders / (2 × observed conflict pairs)."""
        if not self.orderings:
            return None
        return self.orderings_exercised / (2 * len(self.orderings))

    @property
    def dynamic_conflict_vars(self) -> set[str]:
        return {var for var, _lo, _hi in self.orderings}

    @property
    def conflict_var_coverage(self) -> Optional[float]:
        """Statically conflicting variables seen in a dynamic conflict."""
        if not self.static_conflict_vars:
            return None
        hit = self.static_conflict_vars & self.dynamic_conflict_vars
        return len(hit) / len(self.static_conflict_vars)

    # -- rendering ------------------------------------------------------------

    def as_dict(self) -> dict:
        def _round(x: Optional[float]) -> Optional[float]:
            return None if x is None else round(x, 4)

        return {
            "runs": self.runs,
            "deadlock_runs": self.deadlock_runs,
            "sampled_outcome_classes": self.sampled_classes,
            "sampled_print_classes": self.sampled_print_classes,
            "explored_outcome_classes": (
                None
                if self.explored_outcomes is None
                else len(self.explored_outcomes)
            ),
            "explored_states": self.explored_states,
            "explore_complete": self.explore_complete,
            "outcome_coverage": _round(self.outcome_coverage),
            "conflict_pairs": self.conflict_pairs,
            "orderings_exercised": self.orderings_exercised,
            "ordering_coverage": _round(self.ordering_coverage),
            "static_conflict_vars": sorted(self.static_conflict_vars),
            "dynamic_conflict_vars": sorted(self.dynamic_conflict_vars),
            "conflict_var_coverage": _round(self.conflict_var_coverage),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleCoverage({self.as_dict()})"
