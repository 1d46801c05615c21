#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Parses the Figure 2 program, builds its CSSAME form, runs the full
optimization pipeline (constant propagation → parallel DCE → lock
independent code motion), verifies semantic preservation over *every*
schedule, and prints each intermediate listing — reproducing Figures
3b, 4b, 5a and 5b of the paper.

Run:  python examples/quickstart.py
"""

from repro.session import Session
from repro.verify import exhaustive_equivalence

SOURCE = """
a = 0;
b = 0;
cobegin
T0: begin
    lock(L);
    a = 5;
    b = a + 3;
    if (b > 4) {
        a = a + b;
    }
    x = a;
    unlock(L);
end
T1: begin
    lock(L);
    a = b + 6;
    y = a;
    unlock(L);
end
coend
print(x);
print(y);
"""


def main() -> None:
    report = Session().optimize(SOURCE, fold_output_uses=False)

    print("=" * 60)
    print("CSSAME form (paper Figure 3b)")
    print("=" * 60)
    print(report.listings["cssame"])

    print("=" * 60)
    print("after concurrent constant propagation (Figure 4b)")
    print("=" * 60)
    print(report.listings["constprop"])

    print("=" * 60)
    print("after parallel dead code elimination (Figure 5a)")
    print("=" * 60)
    print(report.listings["pdce"])

    print("=" * 60)
    print("after lock independent code motion (Figure 5b)")
    print("=" * 60)
    print(report.listings["licm"])

    print("=" * 60)
    print("pass statistics")
    print("=" * 60)
    print(f"  CSSAME:   {report.form.rewrite_stats}")
    print(f"  constprop: {report.constprop}")
    print(f"  PDCE:      {report.pdce}")
    print(f"  LICM:      {report.licm}")

    result = exhaustive_equivalence(report.baseline, report.program)
    print()
    print(
        f"semantic check over every schedule: "
        f"{'EQUAL' if result.equal else 'DIFFERENT'} "
        f"({result.original_count} behaviours)"
    )
    assert result.equal


if __name__ == "__main__":
    main()
