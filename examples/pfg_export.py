#!/usr/bin/env python
"""Export Parallel Flow Graphs to Graphviz DOT (the paper used VCG).

Writes ``figure2_pfg.dot`` for the paper's running example plus a DOT
file for a producer/consumer pipeline, and prints the PFG inventory
(node and edge counts per kind) the way Figure 2's legend describes.

Render with:  dot -Tpng figure2_pfg.dot -o figure2_pfg.png

Run:  python examples/pfg_export.py [output-dir]
"""

import sys
from pathlib import Path

from repro.cfg.dot import to_dot
from repro.report import pfg_inventory
from repro.session import Session

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

PIPELINE = """
data = 0;
cobegin
producer: begin
    lock(Q);
    data = 42;
    unlock(Q);
    set(ready);
end
consumer: begin
    wait(ready);
    lock(Q);
    out = data * 2;
    unlock(Q);
end
coend
print(out);
"""


def export(name: str, source: str, out_dir: Path) -> None:
    form = Session().analyze(source, prune=False)
    dot = to_dot(form.graph, title=name)
    path = out_dir / f"{name}.dot"
    path.write_text(dot)
    print(f"wrote {path}")
    inventory = pfg_inventory(form)
    for key, value in sorted(inventory.items()):
        if value:
            print(f"  {key:20s} {value}")
    print()


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    export("figure2_pfg", FIGURE2, out_dir)
    export("pipeline_pfg", PIPELINE, out_dir)


if __name__ == "__main__":
    main()
