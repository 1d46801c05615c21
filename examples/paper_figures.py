#!/usr/bin/env python
"""Regenerate every figure of the paper as text listings.

Prints, side by side with the paper's numbering:

* Figure 1 — the reaching-definition claim, checked by Algorithm A.4;
* Figure 2 — the PFG inventory of the running example;
* Figure 3 — CSSA (3a) vs CSSAME (3b) listings;
* Figure 4 — constant propagation under both forms (4a/4b);
* Figure 5 — PDCE (5a) and LICM (5b) results.

Run:  python examples/paper_figures.py
"""

from repro.api import front_end
from repro.cssame import build_cssame, parallel_reaching_definitions
from repro.ir.printer import format_ir
from repro.ir.stmts import SAssign
from repro.ir.structured import iter_statements
from repro.report import measure_form, pfg_inventory
from repro.session import Session

FIGURE1 = """
a = 1;
b = 2;
cobegin
T0: begin
    lock(L);
    a = a + b;
    unlock(L);
end
T1: begin
    f(a);
    lock(L);
    a = 3;
    b = b + g(a);
    unlock(L);
end
coend
print(a, b);
"""

FIGURE2 = """
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


def banner(text: str) -> None:
    print("\n" + "#" * 66)
    print(f"# {text}")
    print("#" * 66)


def figure1() -> None:
    banner("Figure 1: mutual exclusion reduces data dependencies")
    program = front_end(FIGURE1)
    build_cssame(program)
    info = parallel_reaching_definitions(program)
    g_holder = next(
        s for s, _ in iter_statements(program)
        if isinstance(s, SAssign) and s.target == "b" and s.version == 1
    )
    reaching = set()
    for use in g_holder.uses():
        for d in info.defs(use):
            if getattr(d, "target", None) == "a":
                reaching.add(f"{d.target}{d.version} = {d.value!r}")
    print(format_ir(program))
    print("definitions of 'a' reaching 'b = b + g(a)':")
    for d in sorted(reaching):
        print(f"  {d}")
    print("-> T0's 'a = a + b' is NOT among them (Theorem 2): g(a) always"
          " runs with a = 3.")


def figure2() -> None:
    banner("Figure 2: the Parallel Flow Graph")
    form = Session().analyze(FIGURE2, prune=False)
    for key, value in sorted(pfg_inventory(form).items()):
        if value:
            print(f"  {key:20s} {value}")


def figure3() -> None:
    banner("Figure 3a: CSSA form")
    program = front_end(FIGURE2)
    build_cssame(program, prune=False)
    print(format_ir(program))
    m = measure_form(program)
    print(f"π terms: {m.pi_terms}, π arguments: {m.pi_args}")

    banner("Figure 3b: CSSAME form")
    program = front_end(FIGURE2)
    form = build_cssame(program, prune=True)
    print(format_ir(program))
    m = measure_form(program)
    print(f"π terms: {m.pi_terms}, π arguments: {m.pi_args} "
          f"(Algorithm A.3 removed {form.rewrite_stats.args_removed} "
          f"arguments and deleted {form.rewrite_stats.pis_deleted} π terms)")


def figures4and5() -> None:
    cssa = Session().optimize(FIGURE2, use_mutex=False, fold_output_uses=False)
    cssame = Session().optimize(FIGURE2, use_mutex=True, fold_output_uses=False)

    banner("Figure 4a: constant propagation with CSSA")
    print(cssa.listings["constprop"])
    banner("Figure 4b: constant propagation with CSSAME")
    print(cssame.listings["constprop"])
    banner("Figure 5a: after parallel dead code elimination")
    print(cssame.listings["pdce"])
    banner("Figure 5b: after lock independent code motion")
    print(cssame.listings["licm"])


def main() -> None:
    figure1()
    figure2()
    figure3()
    figures4and5()


if __name__ == "__main__":
    main()
