"""SESSION — artifact-cache speedups and batch-driver scaling.

Two claims of the ``repro.session`` redesign, quantified:

1. **The cache pays for the API.**  The analyze + diagnose + dot
   journey through one :class:`~repro.session.Session` reuses the
   front end and the CSSAME form instead of re-running them per call.
   Measured three ways against three cold one-shot calls, each on a
   fresh session (the pre-redesign cost): the first sweep of a fresh session (*fill*,
   saves the repeated front ends), a repeat sweep (*steady*, pure
   cache walk), and a two-sweep service pattern (*amortized*).  The
   acceptance bar is ≥2× for the steady and amortized journeys.
2. **The batch driver isolates and scales.**  ``BatchSession`` over a
   replicated examples corpus: serial vs. process pools (real
   parallelism when the hardware has cores; the speedup assertion is
   gated on ``os.cpu_count() >= 2``, and the observed value is always
   recorded).
"""

import glob
import os
import tempfile
from time import perf_counter

from repro.bench import register
from repro.session import BatchSession, Session

from benchmarks.common import best_of

_REPEATS = 7
#: corpus replication factor for the scaling measurement (96 files)
_REPLICAS = 12

_EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)

JOURNEY_SOURCE = open(
    os.path.join(_EXAMPLES, "figure2.par"), encoding="utf-8"
).read()


def _cold_journey() -> None:
    """Three one-shot calls: every one re-runs the front end."""
    Session().analyze(JOURNEY_SOURCE)
    Session().diagnose(JOURNEY_SOURCE)
    Session().dot(JOURNEY_SOURCE)


def _sweep(session: Session) -> None:
    session.analyze(JOURNEY_SOURCE)
    session.diagnose(JOURNEY_SOURCE)
    session.dot(JOURNEY_SOURCE)


def measure_journey() -> dict:
    cold = best_of(_cold_journey, _REPEATS)

    def fill() -> None:
        _sweep(Session())
    fill_time = best_of(fill, _REPEATS)

    warm = Session()
    _sweep(warm)
    steady = best_of(lambda: _sweep(warm), _REPEATS)

    def amortized() -> None:
        session = Session()
        _sweep(session)
        _sweep(session)
    amortized_time = best_of(amortized, _REPEATS) / 2  # per-sweep cost

    stats_session = Session()
    _sweep(stats_session)
    _sweep(stats_session)
    return {
        "cold_ms": round(cold * 1e3, 4),
        "fill_ms": round(fill_time * 1e3, 4),
        "steady_ms": round(steady * 1e3, 4),
        "amortized_ms": round(amortized_time * 1e3, 4),
        "speedup_fill": round(cold / fill_time, 2),
        "speedup_steady": round(cold / steady, 2),
        "speedup_amortized": round(cold / amortized_time, 2),
        "cache": stats_session.cache_stats().as_dict(),
    }


def _replicated_corpus(directory: str) -> int:
    """Write _REPLICAS distinct copies of every example into
    ``directory``; distinct content so no two files share artifacts."""
    count = 0
    for replica in range(_REPLICAS):
        for path in sorted(glob.glob(os.path.join(_EXAMPLES, "*.par"))):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            name = f"{replica:02d}_{os.path.basename(path)}"
            with open(os.path.join(directory, name), "w", encoding="utf-8") as out:
                out.write(f"// replica {replica}\n{source}")
            count += 1
    return count


def measure_batch() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        files = _replicated_corpus(tmp)
        timings = {}
        baseline_results = None
        for label, jobs in (
            ("serial", 1),
            ("process_x2", 2),
            ("process_x4", 4),
        ):
            batch = BatchSession(jobs=jobs)
            t0 = perf_counter()
            results = batch.run_dir(tmp)
            timings[label] = perf_counter() - t0
            assert len(results) == files
            assert all(r.ok for r in results), [
                r.error for r in results if not r.ok
            ][:1]
            summaries = [
                (os.path.basename(r.path), r.warnings, r.races) for r in results
            ]
            if baseline_results is None:
                baseline_results = summaries
            else:
                # every pool size returns identical, identically-ordered results
                assert summaries == baseline_results
    serial = timings["serial"]
    return {
        "files": files,
        "cpu_count": os.cpu_count(),
        # The process-pool scaling assertion needs >=2 real cores; the
        # marker records that this record's scaling claim was skipped.
        "gated": (os.cpu_count() or 1) < 2,
        "wall_ms": {k: round(v * 1e3, 1) for k, v in timings.items()},
        "speedup_vs_serial": {
            k: round(serial / v, 2) for k, v in timings.items() if k != "serial"
        },
    }


@register(
    "session_cache",
    group="slow",
    repeat=1,
    profile=False,  # the cache journeys time themselves; an ambient
    # tracer's span cost would distort them
    summary="artifact-cache journey speedups and batch-driver scaling",
)
def bench_session_cache() -> dict:
    journey = measure_journey()
    assert journey["speedup_fill"] > 1.0, journey
    assert journey["speedup_steady"] >= 2.0, journey
    assert journey["speedup_amortized"] >= 2.0, journey
    batch = measure_batch()
    if batch["gated"]:
        print(
            f"// scaling assertion gated: cpu_count={batch['cpu_count']} < 2 "
            "(parity still asserted)"
        )
    else:
        assert batch["speedup_vs_serial"]["process_x2"] >= 1.3, batch
    return {"journey": journey, "batch": batch}
