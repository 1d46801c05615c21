"""The regression gate: compare a benchmark record with the committed one.

The baseline is always a committed record, read by
:func:`load_baseline` (``repro bench --check`` reads
``BENCH_baseline.json`` unless ``--baseline`` names another); a missing
or malformed one is an ``E_IO`` error, never a pass.  Two signals, in
priority order:

1. **Work counters (primary).**  The ``work.*`` counters are
   deterministic — same input, same code → same counts on any machine.
   A counter that grows beyond a small tolerance is a real algorithmic
   regression (more lattice evaluations, more π arguments examined),
   never timer noise.  A baseline counter missing from the current
   record is a finding too (dropped instrumentation would otherwise
   pass silently); a counter only the current record has is ignored.
2. **Wall time (secondary).**  Noise-aware: the current median must
   exceed *both* ``baseline_median × (1 + WALL_REL_THRESHOLD)`` *and*
   ``baseline_median + WALL_IQR_MULT × IQR`` (the larger IQR of the two
   records) to count.  Sub-millisecond medians whose absolute change is
   within scheduler jitter therefore pass.

A benchmark present in the baseline but missing (or errored) in the
current record is itself a finding — a silently vanished benchmark
would otherwise shrink the gate's coverage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.bench.runner import RECORD_SCHEMA

__all__ = [
    "COUNTER_TOLERANCE",
    "Regression",
    "WALL_IQR_MULT",
    "WALL_REL_THRESHOLD",
    "compare_records",
    "format_regressions",
    "load_baseline",
]

#: relative growth a deterministic counter may show before failing
COUNTER_TOLERANCE = 0.05
#: relative wall-time growth required (median vs baseline median): more
#: than 3x the baseline median.  The baseline is a committed record made
#: on another machine, so only a gross slowdown says anything.
WALL_REL_THRESHOLD = 2.0
#: and the growth must also clear this many IQRs of observed noise
WALL_IQR_MULT = 3.0


@dataclass(frozen=True)
class Regression:
    """One gate finding."""

    bench: str
    kind: str  # "counter" | "wall" | "missing" | "error"
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.bench}: {self.detail}"


def load_baseline(path: Union[str, Path]) -> dict:
    """The benchmark record at ``path``.

    Raises :class:`OSError` (``E_IO``) when the file cannot be read or
    is not a record of this schema, so a broken baseline fails the gate.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except ValueError as exc:
            raise OSError(f"{path}: not valid JSON: {exc}") from exc
    if not (
        isinstance(record, dict)
        and record.get("schema") == RECORD_SCHEMA
        and isinstance(record.get("results"), dict)
        and all(isinstance(r, dict) for r in record["results"].values())
    ):
        raise OSError(f"{path}: not a {RECORD_SCHEMA} benchmark record")
    return record


def _compare_counters(name: str, current: dict, baseline: dict) -> list[Regression]:
    found: list[Regression] = []
    for counter, base_value in sorted(baseline.items()):
        if not isinstance(base_value, (int, float)):
            continue
        cur_value = current.get(counter)
        if cur_value is None:
            found.append(
                Regression(
                    bench=name,
                    kind="counter",
                    detail=f"{counter} ({base_value} in the baseline) is missing",
                )
            )
        elif base_value > 0 and cur_value > base_value * (1.0 + COUNTER_TOLERANCE):
            found.append(
                Regression(
                    bench=name,
                    kind="counter",
                    detail=(
                        f"{counter} grew {base_value} -> {cur_value} "
                        f"(+{(cur_value / base_value - 1.0) * 100:.1f}%, "
                        f"tolerance {COUNTER_TOLERANCE * 100:.0f}%)"
                    ),
                )
            )
    return found


def _compare_wall(name: str, current: dict, baseline: dict) -> list[Regression]:
    cur_median = current.get("median_ms")
    base_median = baseline.get("median_ms")
    if not cur_median or not base_median:
        return []
    iqr = max(
        float(baseline.get("iqr_ms") or 0.0),
        float(current.get("iqr_ms") or 0.0),
    )
    threshold = max(
        base_median * (1.0 + WALL_REL_THRESHOLD), base_median + WALL_IQR_MULT * iqr
    )
    if cur_median <= threshold:
        return []
    return [
        Regression(
            bench=name,
            kind="wall",
            detail=(
                f"median {base_median:.3f}ms -> {cur_median:.3f}ms "
                f"(threshold {threshold:.3f}ms = max(+{WALL_REL_THRESHOLD * 100:.0f}%, "
                f"+{WALL_IQR_MULT:g} IQR of {iqr:.3f}ms))"
            ),
        )
    ]


def compare_records(current: dict, baseline: dict) -> list[Regression]:
    """Every regression of ``current`` against ``baseline``."""
    regressions: list[Regression] = []
    cur_results = current.get("results") or {}
    base_results = baseline.get("results") or {}
    for name, base in sorted(base_results.items()):
        if base.get("error"):
            continue  # an errored baseline constrains nothing
        cur = cur_results.get(name)
        if cur is None:
            regressions.append(
                Regression(
                    bench=name,
                    kind="missing",
                    detail="present in baseline but absent from this run",
                )
            )
            continue
        if cur.get("error"):
            regressions.append(
                Regression(bench=name, kind="error", detail=cur["error"])
            )
            continue
        regressions.extend(
            _compare_counters(
                name,
                cur.get("counters") or {},
                base.get("counters") or {},
            )
        )
        regressions.extend(
            _compare_wall(name, cur.get("wall") or {}, base.get("wall") or {})
        )
    return regressions


def format_regressions(regressions: list[Regression]) -> str:
    """Human-readable gate report."""
    if not regressions:
        return "bench check: no regressions"
    lines = [f"bench check: {len(regressions)} regression(s)"]
    lines.extend(f"  {r}" for r in regressions)
    return "\n".join(lines)
