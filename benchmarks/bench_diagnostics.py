"""DIAG — Section 6 diagnostics on seeded-buggy programs.

Measures the cost of the warning/race analyses and checks their
precision/recall on program families with planted synchronization bugs.
"""

from repro.bench import register
from repro.session import Session
from repro.synth import GeneratorConfig, generate_source

BUGGY = {
    "unmatched-lock": """
        cobegin
        begin lock(L); v = 1; end
        begin lock(L); v = 2; unlock(L); end
        coend
    """,
    "improper-nesting": """
        lock(A); lock(B); x = 1; unlock(A); y = 2; unlock(B);
    """,
    "inconsistent-locks": """
        cobegin
        begin lock(A); v = 1; unlock(A); end
        begin lock(B); v = 2; unlock(B); end
        coend
        print(v);
    """,
    "bare-race": """
        cobegin begin v = 1; end begin v = 2; end coend print(v);
    """,
}


@register(
    "diagnostics",
    group="fast",
    repeat=3,
    summary="Section 6 diagnostics: planted bugs, precision, recall",
)
def bench_diagnostics() -> dict:
    planted = {}
    for name, source in BUGGY.items():
        warnings, races = Session().diagnose(source)
        planted[name] = {"warnings": len(warnings), "races": len(races)}
    assert planted["unmatched-lock"]["warnings"] >= 1
    assert planted["improper-nesting"]["warnings"] >= 1
    assert planted["inconsistent-locks"]["races"] >= 1
    assert planted["bare-race"]["races"] >= 1
    false_positives = 0
    for seed in range(10):
        source = generate_source(
            GeneratorConfig(seed=seed, race_free=True, n_locks=2,
                            p_critical=0.7)
        )
        _warnings, races = Session().diagnose(source)
        false_positives += len(races)
    assert false_positives == 0
    detected = 0
    for seed in range(10):
        source = generate_source(
            GeneratorConfig(seed=seed, race_free=False, p_critical=0.1,
                            n_shared=3)
        )
        _warnings, races = Session().diagnose(source)
        detected += bool(races)
    assert detected >= 6
    return {
        "planted": planted,
        "false_positives": false_positives,
        "racy_detected": detected,
    }
