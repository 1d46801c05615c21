#!/usr/bin/env python
"""Section 6 in action: auditing synchronization structure.

Runs the compiler's diagnostics over a set of programs with planted
synchronization bugs — unmatched lock operations, improperly nested
locks, and shared variables protected by inconsistent locks — and
confirms each report with the exhaustive schedule explorer where
possible (e.g. showing an actual racy outcome pair, or an actual
deadlock schedule for a lock-ordering bug).

Run:  python examples/race_audit.py
"""

from repro.api import front_end
from repro.session import Session
from repro.vm.explore import explore

PROGRAMS = {
    "clean (paper Figure 2)": """
        a = 0; b = 0;
        cobegin
        T0: begin lock(L); a = 5; b = a + 3; x = a; unlock(L); end
        T1: begin lock(L); a = b + 6; y = a; unlock(L); end
        coend
        print(x); print(y);
    """,
    "forgotten unlock": """
        cobegin
        T0: begin lock(L); v = 1; end
        T1: begin lock(L); v = 2; unlock(L); end
        coend
    """,
    "improper nesting": """
        lock(A); lock(B); x = 1; unlock(A); y = 2; unlock(B);
    """,
    "inconsistent locks": """
        cobegin
        T0: begin lock(A); v = v + 1; unlock(A); end
        T1: begin lock(B); v = v + 1; unlock(B); end
        coend
        print(v);
    """,
    "bare data race": """
        v = 0;
        cobegin
        T0: begin t0 = v; v = t0 + 1; end
        T1: begin t1 = v; v = t1 + 1; end
        coend
        print(v);
    """,
    "lock-order deadlock": """
        cobegin
        T0: begin lock(A); lock(B); x = 1; unlock(B); unlock(A); end
        T1: begin lock(B); lock(A); y = 2; unlock(A); unlock(B); end
        coend
        print(1);
    """,
}


def main() -> None:
    for name, source in PROGRAMS.items():
        print("=" * 64)
        print(name)
        print("=" * 64)
        warnings, races = Session().diagnose(source)
        if not warnings and not races:
            print("  static analysis: clean")
        for w in warnings:
            print(f"  warning [{w.kind}]: {w.message}")
        for r in races:
            print(f"  race: {r.message()}")

        result = explore(front_end(source), max_states=100_000)
        if not result.complete:
            print("  (state space too large to explore exhaustively)")
            continue
        finals = {
            o for o in result.outcomes
        }
        print(f"  explorer: {len(finals)} distinct behaviours"
              f"{', CAN DEADLOCK' if result.can_deadlock else ''}")
        if name == "bare data race":
            printed = sorted(
                o[-1][1][0] for o in result.outcomes if o and o[-1][0] == "print"
            )
            print(f"  observed final counter values: {printed} "
                  "(the lost update is real)")
        if name == "lock-order deadlock":
            assert result.can_deadlock


if __name__ == "__main__":
    main()
