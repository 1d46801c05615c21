"""Static ↔ dynamic cross-validation: the ``repro audit`` driver.

The lockset report (:func:`repro.mutex.races.detect_races`) is a *may*
analysis: it over-approximates, so every real race should appear in it,
but not every reported race need be feasible.  The happens-before
detector is the opposite: it only reports races an actual execution
exhibited, each with a replayable witness schedule.  Auditing runs both
and compares:

* **confirmed** — a static race whose variable the dynamic detector
  also flagged; the finding carries a witness schedule whose replay
  reproduces the race deterministically;
* **unconfirmed** — a static race no sampled schedule exhibited:
  possibly infeasible, possibly under-sampled (read the coverage
  block before celebrating), or — ``scope == "observable-args"`` —
  involving only observable-event arguments, which the dynamic monitor
  deliberately excludes (see :mod:`repro.dynamic.hb`);
* **dynamic-only** — a dynamic race on a variable the static report
  missed.  This should be impossible while the analysis is sound, so
  an audit with dynamic-only findings **fails** regardless of flags:
  it is a soundness check on the CSSAME analysis itself.

``audit_source`` samples ``runs`` seeded schedules with a fresh
:class:`~repro.dynamic.hb.HBTracker` each, optionally adds bounded
exhaustive exploration as the coverage yardstick, verifies every
witness by replay (one replay per maximal witness, whose prefixes are
the other witnesses of its run), and reports deterministic ``work.audit.*``
counters (:func:`repro.obs.prof.record_work`) so the benchmark gate
covers the subsystem.  A sampled schedule whose step faults (division
by zero, an unowned unlock) ends with an ``("error", msg)`` outcome, as
an explored one does; the races and orderings it found before the fault
count.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional

from repro.cfg.conflicts import collect_access_sites, is_memory_access
from repro.errors import StepLimitExceeded, VMError
from repro.ir.stmts import Pi, SCallStmt, SPrint
from repro.ir.structured import ProgramIR
from repro.mutex.races import RaceReport, detect_races
from repro.obs.prof import record_work
from repro.obs.trace import get_tracer
from repro.session.session import Session
from repro.session.stages import WIRE_STAGES
from repro.dynamic.coverage import ScheduleCoverage
from repro.dynamic.hb import DynamicRace, HBTracker
from repro.vm.bytecode import VMProgram
from repro.vm.compile import compile_program
from repro.vm.explore import explore
from repro.vm.machine import VirtualMachine

__all__ = [
    "AuditReport",
    "StaticRaceFinding",
    "audit_program",
    "audit_source",
]

#: the ``audit`` stage's option defaults, which the signatures below share
_AUDIT = WIRE_STAGES["audit"].options

#: classification vocabulary for static findings
CONFIRMED = "confirmed"
UNCONFIRMED = "unconfirmed"
#: scope of an unconfirmed static race
SCOPE_MONITORED = "monitored"
SCOPE_OBSERVABLE = "observable-args"


class StaticRaceFinding:
    """One static race report, judged against the dynamic evidence."""

    __slots__ = ("report", "status", "scope", "dynamic", "witness_verified")

    def __init__(
        self,
        report: RaceReport,
        status: str,
        scope: str,
        dynamic: Optional[DynamicRace] = None,
        witness_verified: bool = False,
    ) -> None:
        self.report = report
        self.status = status  # CONFIRMED | UNCONFIRMED
        self.scope = scope  # SCOPE_MONITORED | SCOPE_OBSERVABLE
        #: the matching dynamic race (carries the witness schedule)
        self.dynamic = dynamic
        self.witness_verified = witness_verified

    def message(self) -> str:
        if self.status == CONFIRMED:
            verified = "replay-verified" if self.witness_verified else "unverified"
            return (
                f"confirmed: {self.report.message()} — witness of "
                f"{len(self.dynamic.witness)} step(s), {verified}"
            )
        if self.scope == SCOPE_OBSERVABLE:
            return (
                f"unconfirmed (observable-event arguments; outside the "
                f"dynamic monitor): {self.report.message()}"
            )
        return f"unconfirmed (possibly infeasible): {self.report.message()}"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "scope": self.scope,
            "race": self.report.as_dict(),
            "dynamic": None if self.dynamic is None else self.dynamic.as_dict(),
            "witness_verified": self.witness_verified,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StaticRaceFinding({self.message()})"


class AuditReport:
    """The full result of one audit."""

    def __init__(self) -> None:
        self.findings: list[StaticRaceFinding] = []
        #: distinct dynamic races across all runs (by program location)
        self.dynamic: list[DynamicRace] = []
        #: dynamic races on variables the static report missed
        self.dynamic_only: list[DynamicRace] = []
        self.coverage = ScheduleCoverage()
        self.seeds: list[int] = []

    @property
    def confirmed(self) -> list[StaticRaceFinding]:
        return [f for f in self.findings if f.status == CONFIRMED]

    @property
    def unconfirmed(self) -> list[StaticRaceFinding]:
        return [f for f in self.findings if f.status == UNCONFIRMED]

    @property
    def sound(self) -> bool:
        """No dynamic-only races — the static analysis held up."""
        return not self.dynamic_only

    def exit_code(self, strict: bool = False) -> int:
        """The CLI exit-code contract.

        * 1 — soundness failure (dynamic-only race), always; or, under
          ``strict``, a confirmed race (real, replayable);
        * 2 — a sampled run (or exploration) deadlocked, and nothing
          above applies;
        * 0 — otherwise (unconfirmed static races do not gate).
        """
        if self.dynamic_only:
            return 1
        if strict and self.confirmed:
            return 1
        if self.coverage.deadlock_runs:
            return 2
        return 0

    def as_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "confirmed": [f.as_dict() for f in self.confirmed],
            "unconfirmed": [f.as_dict() for f in self.unconfirmed],
            "dynamic_only": [r.as_dict() for r in self.dynamic_only],
            "dynamic_races": [r.as_dict() for r in self.dynamic],
            "sound": self.sound,
            "coverage": self.coverage.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditReport(confirmed={len(self.confirmed)}, "
            f"unconfirmed={len(self.unconfirmed)}, "
            f"dynamic_only={len(self.dynamic_only)})"
        )


def _consumers(graph, block_id: int, temp: str) -> list:
    """Statements of ``block_id`` reading the single-assignment ``temp``."""
    return [
        stmt
        for stmt in graph.blocks[block_id].stmts
        if any(use.name == temp and use.version is None for use in stmt.uses())
    ]


def _observable_only(graph, sites: dict, var: str, block_id: int) -> bool:
    """True when every monitored access of ``var`` in ``block_id`` feeds
    only observable-event statements (print / opaque call).

    In CSSA form a protected use is routed through a π term, so the
    access site sits on the :class:`Pi`; the judgement follows the π
    target to its consuming statement(s) in the block.
    """
    found = False
    for site in sites.get(var, []):
        if site.block_id != block_id or not is_memory_access(site):
            continue
        stmts = [site.stmt]
        if isinstance(site.stmt, Pi):
            stmts = _consumers(graph, block_id, site.stmt.target) or stmts
        for stmt in stmts:
            if not isinstance(stmt, (SPrint, SCallStmt)):
                return False
        found = True
    return found


def audit_program(
    program: ProgramIR,
    static_races: list[RaceReport],
    runs: int = _AUDIT["runs"],
    seed_base: int = _AUDIT["seed_base"],
    fuel: int = _AUDIT["fuel"],
    explore_states: int = _AUDIT["max_states"],
    do_explore: bool = _AUDIT["explore"],
    *,
    graph,
    access_sites: dict,
    conflict_vars: Iterable[str] = (),
) -> AuditReport:
    """Cross-validate ``static_races`` against ``runs`` traced schedules.

    The dynamic/static match is at variable granularity: a static race
    on ``v`` is *confirmed* by any dynamic race on ``v`` (block ids and
    PCs index different program representations, so finer matching
    would be spuriously precise).  Witnesses are verified by replay
    before the report claims them.
    """
    tracer = get_tracer()
    report = AuditReport()
    report.coverage.static_conflict_vars = set(conflict_vars)
    compiled = compile_program(program)

    dynamic: dict[tuple, DynamicRace] = {}
    total_checks = 0
    total_joins = 0
    total_steps = 0
    with tracer.span("audit-runs", runs=runs) as span:
        for seed in range(seed_base, seed_base + runs):
            report.seeds.append(seed)
            hb = HBTracker(compiled)
            vm = VirtualMachine(compiled, seed=seed, fuel=fuel, hb=hb)
            try:
                execution = vm.run(raise_on_deadlock=False)
            except StepLimitExceeded:
                continue  # fuel-bounded run: no outcome to record
            except VMError as exc:
                # A faulting step ends the run, as it ends an explored
                # schedule: its outcome carries the error marker.
                execution = vm.execution
                outcome = execution.output_key() + (("error", str(exc)),)
            else:
                outcome = execution.output_key()
            report.coverage.runs += 1
            if execution.deadlocked:
                report.coverage.deadlock_runs += 1
            report.coverage.sampled_outcomes.add(outcome)
            hb.merge_orderings(report.coverage.orderings)
            for race in hb.races:
                dynamic.setdefault(race.pair_key(), race)
            total_checks += hb.checks
            total_joins += hb.joins
            total_steps += execution.steps
        span.set(dynamic_races=len(dynamic))
    report.dynamic = [dynamic[key] for key in sorted(dynamic)]

    if do_explore:
        result = explore(compiled, max_states=explore_states)
        report.coverage.explored_outcomes = result.outcomes
        report.coverage.explored_states = result.states
        report.coverage.explore_complete = result.complete

    verified, replays, replay_steps = _verify_witnesses(compiled, report.dynamic)

    first_race: dict[str, DynamicRace] = {}
    for race in report.dynamic:
        first_race.setdefault(race.var, race)
    # Asked up to twice per unconfirmed race: once per (variable, block).
    observable_only = functools.cache(
        lambda var, block_id: _observable_only(graph, access_sites, var, block_id)
    )

    static_vars = set()
    for static in static_races:
        static_vars.add(static.var)
        match = first_race.get(static.var)
        if match is not None:
            report.findings.append(
                StaticRaceFinding(
                    static,
                    CONFIRMED,
                    SCOPE_MONITORED,
                    dynamic=match,
                    witness_verified=match.pair_key() in verified,
                )
            )
            continue
        scope = SCOPE_MONITORED
        if observable_only(static.var, static.block_a) or observable_only(
            static.var, static.block_b
        ):
            scope = SCOPE_OBSERVABLE
        report.findings.append(StaticRaceFinding(static, UNCONFIRMED, scope))
    report.dynamic_only = [r for r in report.dynamic if r.var not in static_vars]

    record_work(
        "audit",
        runs=report.coverage.runs,
        steps=total_steps,
        access_checks=total_checks,
        clock_joins=total_joins,
        dynamic_races=len(report.dynamic),
        static_races=len(static_races),
        confirmed=len(report.confirmed),
        replays=replays,
        replay_steps=replay_steps,
    )
    return report


def _verify_witnesses(
    compiled: VMProgram, races: list[DynamicRace]
) -> tuple[set[tuple], int, int]:
    """(pair keys of the races whose witness replay re-detects them,
    replays run, steps replayed).

    A witness is a prefix of the schedule of the run that found it, and
    replay is deterministic, so one replay of each *maximal* witness
    (one no other witness extends) stands for the replays of all its
    prefixes.  A race is verified when that replay completes at least
    ``len(race.witness)`` steps and first detects the race's
    ``pair_key`` within them — exactly what replaying its own witness
    on a fresh tracker would show.
    """
    witnesses = sorted({tuple(race.witness) for race in races})
    # In sorted order a witness's extensions directly follow it, so the
    # host of each witness is its successor's host when that successor
    # extends it, and the witness itself otherwise.
    host: dict[tuple, tuple] = {}
    following: tuple = ()
    for witness in reversed(witnesses):
        extended = following[: len(witness)] == witness
        host[witness] = host[following] if extended else witness
        following = witness
    guests: dict[tuple, list[DynamicRace]] = {}
    for race in races:
        guests.setdefault(host[tuple(race.witness)], []).append(race)

    verified: set[tuple] = set()
    steps = 0
    for schedule, hosted in guests.items():
        hb = HBTracker(compiled)
        vm = VirtualMachine(compiled, hb=hb)
        try:
            vm.replay(list(schedule))
        except Exception:  # noqa: BLE001 - an unreplayable step fails its races
            pass
        replayed = vm.execution.steps
        steps += replayed
        detected = {race.pair_key(): race.step_b for race in hb.races}
        for race in hosted:
            needed = len(race.witness)
            if needed <= replayed and detected.get(race.pair_key(), needed) < needed:
                verified.add(race.pair_key())
    return verified, len(guests), steps


def audit_source(
    source: str,
    runs: int = _AUDIT["runs"],
    seed_base: int = _AUDIT["seed_base"],
    fuel: int = _AUDIT["fuel"],
    explore_states: int = _AUDIT["max_states"],
    do_explore: bool = _AUDIT["explore"],
    static_races: Optional[list[RaceReport]] = None,
    session=None,
) -> AuditReport:
    """Audit a source program end to end.

    Builds the unpruned CSSA form, runs the Section 6 lockset analysis
    (unless ``static_races`` overrides it — the soundness tests inject
    fabricated reports that way), then delegates to
    :func:`audit_program`.
    """
    session = session if session is not None else Session()
    form = session.analyze(source, prune=False)
    if static_races is None:
        static_races = detect_races(form.graph, form.structures)
    sites = collect_access_sites(form.graph)
    return audit_program(
        session.front_end(source),
        static_races,
        runs=runs,
        seed_base=seed_base,
        fuel=fuel,
        explore_states=explore_states,
        do_explore=do_explore,
        graph=form.graph,
        access_sites=sites,
        conflict_vars=form.shared,
    )
