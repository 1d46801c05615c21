"""Run one benchmark workload; its result is the last line of output.

    python3 perfbench/run.py --workload contended --seed 0 --seconds 12 --trace 0

Run it from the root of a checkout: the package is imported from
``src/`` and scratch files (serve stores, trace exports) go under
``.bench_build/perfbench``.  The last line of standard output is one
JSON object, ``{"correct", "attempted", "failed", "metrics"}``, holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  A readable summary goes to standard
error.  Without ``src/repro`` it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("contended", "sparse", "serve", "audit")
#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def make(workload: str, seed: int):
    """The workload object: ``prepare``, ``measure``, ``traced``, ``close``."""
    if workload == "serve":
        from perfbench.serve_loop import ServeWorkload

        return ServeWorkload(seed)
    if workload == "audit":
        from perfbench.audit_loop import AuditWorkload

        return AuditWorkload(seed)
    from perfbench.compile_loop import CompileWorkload

    return CompileWorkload(workload, seed)


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0
) -> dict:
    """One run of ``workload``; returns the result object."""
    from perfbench import common

    bench = make(workload, seed)
    tally = common.Tally()
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                bench.close(tally)
            start = perf_counter()
            bench.prepare(tally)
            setups.append(perf_counter() - start)
        outcome = bench.traced(seconds, tally) if trace else bench.measure(seconds, tally)
    finally:
        bench.close(tally)
    if trace:
        reported = common.metrics("per_layer", outcome)
    else:
        setup_s = import_s + statistics.median(setups)
        values = common.end_to_end(tally, outcome, setup_s, bench.peak_rss_mb())
        reported = common.metrics("end_to_end", values)
    common.summary(workload, tally, reported)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": reported,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    # The import time of every layer is part of setup_s.
    from perfbench import audit_loop, compile_loop, serve_loop  # noqa: F401

    import_s = perf_counter() - started
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
