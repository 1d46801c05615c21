"""Pinned machine behaviour: seeded runs, audit payloads, explorations.

``pinned_behaviour.json`` was recorded from the VM and explorer as they
were before both were driven by one transition function
(:meth:`repro.vm.machine.Machine.step`).  Every figure below must still
match:

* a digest of each seeded run of ``examples/*.par`` for seeds 0–7
  (events, steps, memory, the three per-lock maps, the interval
  timeline);
* a digest of the ``audit`` stage payload (minus ``work``/``provenance``,
  its coverage block kept in clear) of every
  example and of eight small generated programs (2–4 threads, half
  race-free), which exercises the happens-before hooks, seeded runs,
  witness replay and a 20,000-state exploration;
* the state count and outcome set of exploring every example.

Regenerate the file only for an intended behaviour change, and say why
in the change description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import api
from repro.errors import VMError
from repro.vm import VirtualMachine, explore, find_witness, run_random
from tests.conftest import build

ROOT = Path(__file__).resolve().parents[2]
PINS = json.loads((Path(__file__).with_name("pinned_behaviour.json")).read_text())
EXAMPLES = {p.stem: p.read_text() for p in sorted((ROOT / "examples").glob("*.par"))}
SEEDS = range(8)


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def run_digest(source: str, seed: int) -> str:
    ex = run_random(build(source), seed=seed, raise_on_deadlock=False)
    return _digest(
        {
            "events": ex.events,
            "steps": ex.steps,
            "deadlocked": ex.deadlocked,
            "memory": sorted(ex.memory.items()),
            "held": sorted(ex.lock_held_steps.items()),
            "blocked": sorted(ex.lock_blocked_steps.items()),
            "acquisitions": sorted(ex.lock_acquisitions.items()),
            "intervals": ex.lock_intervals,
        }
    )


def audit_pin(source: str) -> dict:
    """Digest of the payload, with its coverage block kept readable."""
    doc = api.compile_source(source, "audit").as_dict()
    doc.pop("work", None)
    doc.pop("provenance", None)
    return {"digest": _digest(doc), "coverage": doc["artifacts"]["audit"]["coverage"]}


def explore_pin(source: str) -> dict:
    res = explore(build(source))
    return {
        "states": res.states,
        "complete": res.complete,
        "outcomes": len(res.outcomes),
        "digest": _digest(sorted(res.outcomes)),
    }


def record() -> dict:
    """Recompute every pin from the code in place (the file's layout)."""
    sources = PINS["audit_sources"]
    return {
        "runs": {
            name: [run_digest(src, seed) for seed in SEEDS]
            for name, src in EXAMPLES.items()
        },
        "explore": {name: explore_pin(src) for name, src in EXAMPLES.items()},
        "audit": {
            **{name: audit_pin(src) for name, src in EXAMPLES.items()},
            **{key: audit_pin(src) for key, src in sources.items()},
        },
        "audit_sources": sources,
    }


def test_pins_cover_every_example():
    assert set(PINS["runs"]) == set(EXAMPLES)
    assert set(PINS["explore"]) == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_seeded_runs_match_pins(name):
    got = [run_digest(EXAMPLES[name], seed) for seed in SEEDS]
    assert got == PINS["runs"][name]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_exploration_matches_pins(name):
    assert explore_pin(EXAMPLES[name]) == PINS["explore"][name]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_audit_payload_matches_pins(name):
    assert audit_pin(EXAMPLES[name]) == PINS["audit"][name]


@pytest.mark.parametrize("key", sorted(PINS["audit_sources"]))
def test_generated_audit_payload_matches_pins(key):
    source = PINS["audit_sources"][key]
    assert audit_pin(source) == PINS["audit"][key]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_every_explored_outcome_has_a_replayable_witness(name):
    source = EXAMPLES[name]
    for outcome in explore(build(source)).outcomes:
        schedule = find_witness(build(source), outcome)
        assert schedule is not None, outcome
        if outcome and outcome[-1][0] == "error":
            with pytest.raises(VMError) as info:
                VirtualMachine(build(source)).replay(schedule)
            assert str(info.value) == outcome[-1][1]
        else:
            assert VirtualMachine(build(source)).replay(schedule).output_key() == outcome
