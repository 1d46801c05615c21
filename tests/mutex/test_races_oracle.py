"""Section 6 races as filtered conflict edges equal the site-pair scan.

:func:`repro.mutex.races.detect_races` filters the pairs of the
block-level MHP access relation; ``races_oracle.oracle_races`` keeps the
(write site, access site) loop it replaced.  The report lists must be
equal in order, orientation and locksets, and race messages must not
depend on the hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg.builder import build_flow_graph
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.races import detect_races
from repro.session import Session
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE, build
from tests.mutex.races_oracle import oracle_races

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = {p.stem: p.read_text() for p in sorted((ROOT / "examples").glob("*.par"))}

#: one thread writes ``v`` and ``w`` holding two locks, one holding one
#: of them, and one holding none
TWO_LOCKS = """
cobegin
T0: begin lock(LA); lock(LB); v = 1; w = v; unlock(LB); unlock(LA); end
T1: begin lock(LB); v = 2; unlock(LB); end
T2: begin x = v; w = 3; end
coend
print(v, w, x);
"""

SOURCES = {"figure1": FIGURE1_SOURCE, "figure2": FIGURE2_SOURCE, "two_locks": TWO_LOCKS}
SOURCES.update(EXAMPLES)


def _assert_oracle_parity(source: str) -> None:
    """Equal reports on the unpruned and pruned forms and the plain PFG."""
    graphs = [
        (form.graph, form.structures)
        for form in (Session().analyze(source, prune=False), Session().analyze(source))
    ]
    graph = build_flow_graph(build(source))
    graphs.append((graph, identify_mutex_structures(graph)))
    for graph, structures in graphs:
        got = [race.as_dict() for race in detect_races(graph, structures)]
        assert got == [race.as_dict() for race in oracle_races(graph, structures)]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_and_examples_match_the_oracle(name):
    _assert_oracle_parity(SOURCES[name])


def test_benchmark_audit_inputs_match_the_oracle():
    from perfbench.audit_loop import inputs

    for seed in range(3):
        for _key, source, _ in inputs(seed):
            _assert_oracle_parity(source)


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_smallest_ladder_rung_matches_the_oracle(workload):
    from perfbench.compile_loop import ladder

    _key, source = ladder(workload, 0)[0]
    form = Session().analyze(source, prune=False)
    got = [race.as_dict() for race in detect_races(form.graph, form.structures)]
    assert got
    assert got == [race.as_dict() for race in oracle_races(form.graph, form.structures)]


_LEAVES = ("v = v + 1;", "v = 2;", "x = v;", "w = v;", "w = w + 1;", "x = w;",
           "set(E);", "wait(E);")
_LOCKS = ("LA", "LB")


def _body(depth: int, held: frozenset):
    """Statements with locks nested up to ``depth`` deep, never
    re-acquiring a lock already held."""
    options = [st.sampled_from(_LEAVES)]
    if depth:
        options.append(
            _body(depth - 1, held).map(lambda body: f"if (v > 0) {{ {body} }}")
        )
        for lock in _LOCKS:
            if lock not in held:
                options.append(
                    _body(depth - 1, held | {lock}).map(
                        lambda body, lock=lock: f"lock({lock}); {body} unlock({lock});"
                    )
                )
    return st.lists(st.one_of(options), min_size=1, max_size=3).map(" ".join)


@st.composite
def _programs(draw):
    barrier = draw(st.booleans())
    threads = []
    for t in range(draw(st.integers(2, 3))):
        before, after = draw(_body(2, frozenset())), draw(_body(2, frozenset()))
        middle = " barrier(B); " if barrier else " "
        threads.append(f"T{t}: begin {before}{middle}{after} end")
    return "v = 0; w = 0; x = 0;\ncobegin\n" + "\n".join(threads) + "\ncoend\nprint(v, w, x);"


@settings(max_examples=40, deadline=None)
@given(_programs())
def test_generated_programs_match_the_oracle(source):
    _assert_oracle_parity(source)


def test_two_lock_messages_list_locks_sorted():
    _warnings, races = Session().diagnose(TWO_LOCKS)
    messages = [race.message() for race in races]
    assert any("holds {'LA', 'LB'} while" in message for message in messages)
    assert any("holds {'LB'} while" in message for message in messages)
    assert any("holds {} (no common lock)" in message for message in messages)


_PAYLOAD = """
import json, sys
from repro import api
print(json.dumps(api.compile_source(sys.stdin.read(), "diagnostics").as_dict()))
"""


def test_race_payloads_do_not_depend_on_the_hash_seed():
    payloads = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", _PAYLOAD],
            input=TWO_LOCKS,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        payloads.append(json.loads(done.stdout))
    assert payloads[0]["diagnostics"]
    assert payloads[0] == payloads[1]
