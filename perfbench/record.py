"""Rewrite ``perfbench/golden.json`` from the program in ``src/``.

    python3 perfbench/record.py

Runs the op on every input of the ``contended`` and ``sparse`` pools
and records its outcome.  Run it only when an output change is
intended: the benchmark counts every op whose outcome differs from this
file as a failed op.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import compile_loop

    golden = {}
    for workload in compile_loop.LADDERS:
        for index in range(compile_loop.POOL):
            for key, source in compile_loop.ladder(workload, index):
                golden[key] = compile_loop.golden_entry(source)
                print(key, file=sys.stderr, flush=True)
    with open(compile_loop.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
