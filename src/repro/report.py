"""Measurement helpers shared by benchmarks and EXPERIMENTS.md.

Everything the paper's figures quantify — π terms and their arguments,
PFG edge inventories, statements inside critical sections, lock hold
times — is computed here so tests and benchmarks report identical
numbers.
"""

from __future__ import annotations

from typing import Iterable

from repro.cfg.blocks import NodeKind
from repro.cssa.builder import CSSAForm
from repro.ir.stmts import Phi, Pi, SAssign
from repro.ir.structured import ProgramIR, count_statements, iter_statements
from repro.vm.machine import DEFAULT_FUEL, run_random

__all__ = [
    "FormMetrics",
    "critical_section_profile",
    "lock_timeline_summary",
    "measure_form",
    "pfg_inventory",
]


class FormMetrics:
    """Static metrics of a CSSA/CSSAME form."""

    def __init__(self) -> None:
        self.pi_terms = 0
        self.pi_args = 0
        self.phi_terms = 0
        self.phi_args = 0
        self.assignments = 0
        self.statements = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pi_terms": self.pi_terms,
            "pi_args": self.pi_args,
            "phi_terms": self.phi_terms,
            "phi_args": self.phi_args,
            "assignments": self.assignments,
            "statements": self.statements,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"FormMetrics({self.as_dict()})"


def measure_form(program: ProgramIR) -> FormMetrics:
    """Count φ/π terms and arguments in an SSA-form program."""
    metrics = FormMetrics()
    metrics.statements = count_statements(program)
    for stmt, _ctx in iter_statements(program):
        if isinstance(stmt, Pi):
            metrics.pi_terms += 1
            metrics.pi_args += 1 + len(stmt.conflicts)
        elif isinstance(stmt, Phi):
            metrics.phi_terms += 1
            metrics.phi_args += len(stmt.args)
        elif isinstance(stmt, SAssign):
            metrics.assignments += 1
    return metrics


def pfg_inventory(form: CSSAForm) -> dict[str, int]:
    """Node/edge counts of a PFG, by kind (the Figure 2 inventory)."""
    graph = form.graph
    counts = {f"nodes_{kind.value}": 0 for kind in NodeKind}
    for block in graph.blocks:
        counts[f"nodes_{block.kind.value}"] += 1
    counts["nodes_total"] = len(graph.blocks)
    counts["edges_control"] = sum(len(b.succs) for b in graph.blocks)
    counts["edges_conflict"] = len(graph.conflict_edges)
    counts["edges_mutex"] = len(graph.mutex_edges)
    counts["edges_sync"] = len(graph.sync_edges)
    return counts


def critical_section_profile(
    program: ProgramIR,
    seeds: Iterable[int] = range(8),
    fuel: int = DEFAULT_FUEL,
) -> dict[str, float]:
    """Average per-run lock statistics under the random scheduler.

    Used to quantify what LICM buys: statements moved out of mutex
    bodies shorten the lock-held window and the time other threads sit
    blocked on the lock.
    """
    seed_list = list(seeds)
    held = 0.0
    blocked = 0.0
    acquisitions = 0.0
    steps = 0.0
    for seed in seed_list:
        ex = run_random(program, seed=seed, fuel=fuel)
        held += sum(ex.lock_held_steps.values())
        blocked += sum(ex.lock_blocked_steps.values())
        acquisitions += sum(ex.lock_acquisitions.values())
        steps += ex.steps
    n = max(len(seed_list), 1)
    return {
        "avg_lock_held_steps": held / n,
        "avg_lock_blocked_steps": blocked / n,
        "avg_lock_acquisitions": acquisitions / n,
        "avg_steps": steps / n,
    }


def lock_timeline_summary(execution) -> dict[str, dict]:
    """Per-lock contention timeline summary of one execution.

    Condenses ``Execution.lock_intervals`` into one row per lock: how
    many held/blocked intervals occurred, the longest of each (in
    global VM steps), and whether any interval was still open when the
    run ended — an open *held* interval past the final step is the
    deadlock signature.  The full interval list stays available on the
    execution for timeline rendering (``--trace-format chrome``).
    """
    summary: dict[str, dict] = {}
    for interval in execution.lock_intervals:
        row = summary.setdefault(
            interval["lock"],
            {
                "held_intervals": 0,
                "blocked_intervals": 0,
                "longest_held": 0,
                "longest_blocked": 0,
                "open": False,
            },
        )
        length = interval["to"] - interval["from"]
        if interval["kind"] == "held":
            row["held_intervals"] += 1
            row["longest_held"] = max(row["longest_held"], length)
        else:
            row["blocked_intervals"] += 1
            row["longest_blocked"] = max(row["longest_blocked"], length)
        if interval.get("open"):
            row["open"] = True
    return summary
