"""Outcome-set comparison between an original and a transformed program.

Atomicity contract
------------------

The VM interleaves at *instruction* granularity.  CSSA construction
materializes a π term as an explicit copy ``t = v``, splitting what the
source wrote as one statement (``v = v + 1``) into a separate shared
read and shared write — exactly the granularity real load/store hardware
(and the paper's sequentially consistent model) exhibits.  Splitting
only *refines* behaviour: every source outcome remains schedulable (run
the read and write back-to-back), but contested statements may expose
additional interleavings.

Verification therefore uses two relations:

* **equality** between the CSSA/CSSAME *form* of a program and its
  optimized version — both sides have identical read/write granularity,
  so the optimizations must preserve the outcome set exactly;
* **refinement** between the original source program and its CSSA form —
  ``outcomes(source) ⊆ outcomes(form)``.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import AnalysisError
from repro.ir.structured import ProgramIR
from repro.vm.explore import DEFAULT_MAX_STATES, explore
from repro.vm.machine import DEFAULT_FUEL, run_random

__all__ = [
    "EquivalenceResult",
    "deterministic_output",
    "exhaustive_equivalence",
    "sampled_equivalence",
]


class EquivalenceResult:
    """Outcome-set comparison summary."""

    def __init__(
        self,
        equal: bool,
        only_original: frozenset,
        only_transformed: frozenset,
        original_count: int,
        transformed_count: int,
        complete: bool,
    ) -> None:
        self.equal = equal
        self.only_original = only_original
        self.only_transformed = only_transformed
        self.original_count = original_count
        self.transformed_count = transformed_count
        #: False when either exploration hit the state budget
        self.complete = complete

    @property
    def equal_modulo_deadlock_removal(self) -> bool:
        """Equality, except the transformed program may have *lost* some
        deadlocking behaviours.

        LICM deletes Lock/Unlock pairs whose mutex body emptied (paper
        Algorithm A.5 lines 43–45).  An empty critical section excludes
        nothing, so removing it cannot change any data outcome — but it
        can break a lock-ordering cycle and thereby remove a *deadlock*
        from the behaviour set.  That improvement is the only deviation
        this relaxed relation accepts: the transformed program must
        produce no new behaviour, and every lost behaviour must end in
        the deadlock marker.
        """
        if self.only_transformed:
            return False
        return all(o and o[-1] == ("deadlock",) for o in self.only_original)

    def explain(self) -> str:
        if self.equal:
            return (
                f"outcome sets identical "
                f"({self.original_count} behaviours)"
            )
        lines = [
            f"outcome sets differ: {self.original_count} original vs "
            f"{self.transformed_count} transformed"
        ]
        for o in sorted(self.only_original)[:5]:
            lines.append(f"  only original:    {o}")
        for o in sorted(self.only_transformed)[:5]:
            lines.append(f"  only transformed: {o}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return f"EquivalenceResult(equal={self.equal})"


def exhaustive_refinement(
    source: ProgramIR,
    refined: ProgramIR,
    max_states: int = DEFAULT_MAX_STATES,
) -> EquivalenceResult:
    """Check ``outcomes(source) ⊆ outcomes(refined)``.

    The result's ``equal`` is True when the subset relation holds;
    ``only_original`` lists the violating outcomes (must be empty).
    """
    a = explore(source, max_states=max_states)
    b = explore(refined, max_states=max_states)
    missing = frozenset(a.outcomes - b.outcomes)
    return EquivalenceResult(
        equal=not missing,
        only_original=missing,
        only_transformed=frozenset(b.outcomes - a.outcomes),
        original_count=len(a.outcomes),
        transformed_count=len(b.outcomes),
        complete=a.complete and b.complete,
    )


def exhaustive_equivalence(
    original: ProgramIR,
    transformed: ProgramIR,
    max_states: int = DEFAULT_MAX_STATES,
) -> EquivalenceResult:
    """Explore every schedule of both programs and compare outcome sets."""
    a = explore(original, max_states=max_states)
    b = explore(transformed, max_states=max_states)
    equal = a.outcomes == b.outcomes
    return EquivalenceResult(
        equal=equal,
        only_original=frozenset(a.outcomes - b.outcomes),
        only_transformed=frozenset(b.outcomes - a.outcomes),
        original_count=len(a.outcomes),
        transformed_count=len(b.outcomes),
        complete=a.complete and b.complete,
    )


def sampled_equivalence(
    original: ProgramIR,
    transformed: ProgramIR,
    seeds: Iterable[int] = range(64),
    fuel: int = DEFAULT_FUEL,
) -> EquivalenceResult:
    """Compare outcome sets observed over seeded random schedules.

    Sampling cannot prove equality, but a transformed-only outcome is a
    definite red flag; the property tests require
    ``only_transformed ⊆ original`` to hold on the *exhaustive* set of
    the original when sizes permit, and use this as a smoke check above
    that size.
    """
    seed_list = list(seeds)
    a = {
        run_random(original, seed=s, fuel=fuel, raise_on_deadlock=False).output_key()
        for s in seed_list
    }
    b = {
        run_random(transformed, seed=s, fuel=fuel, raise_on_deadlock=False).output_key()
        for s in seed_list
    }
    return EquivalenceResult(
        equal=a == b,
        only_original=frozenset(a - b),
        only_transformed=frozenset(b - a),
        original_count=len(a),
        transformed_count=len(b),
        complete=False,
    )


def deterministic_output(
    program: ProgramIR,
    seeds: Iterable[int] = range(16),
    fuel: int = DEFAULT_FUEL,
) -> tuple:
    """The program's single output, asserting schedule independence.

    Raises :class:`AnalysisError` when two seeds observe different
    outputs — i.e. the program is not output deterministic.
    """
    outputs = set()
    for s in seeds:
        outputs.add(run_random(program, seed=s, fuel=fuel).output_key())
        if len(outputs) > 1:
            raise AnalysisError(
                f"program output depends on the schedule: {sorted(outputs)[:2]}"
            )
    return next(iter(outputs))
