"""Per-race witness verification (test oracle).

This is the verification loop :func:`repro.dynamic.audit.audit_program`
ran before it shared replays between the witnesses of one run: every
dynamic race's own witness is replayed on a fresh tracker, and the race
counts as verified when that replay detects its ``pair_key``.  The
audit tests check that the shared replays verify exactly the same races.
"""

from __future__ import annotations

from repro.dynamic.hb import DynamicRace, HBTracker
from repro.vm.bytecode import VMProgram
from repro.vm.machine import VirtualMachine

__all__ = ["oracle_verified"]


def oracle_verified(compiled: VMProgram, races: list[DynamicRace]) -> set[tuple]:
    """Pair keys of the races whose own witness replay re-detects them."""
    verified: set[tuple] = set()
    for race in races:
        hb = HBTracker(compiled)
        vm = VirtualMachine(compiled, hb=hb)
        try:
            vm.replay(list(race.witness))
        except Exception:  # noqa: BLE001 - an unreplayable witness is a bug
            continue
        if race.pair_key() in {r.pair_key() for r in hb.races}:
            verified.add(race.pair_key())
    return verified
