"""Section 6 races by class equal the per-pair scan.

:func:`repro.mutex.races.detect_race_classes` groups the races into
(variable, kind, writer lockset, other lockset) classes.  Expanded, the
classes must give ``races_oracle.oracle_races`` in order, orientation
and locksets; each class must hold exactly its own pairs of that list,
in order, with its first pairs as the sample; the classes must come in
order of first occurrence; and the ``diagnostics`` wire journey must
report one frame per class and the expanded count without building a
per-pair report.
"""

import pickle

import pytest
from hypothesis import given, settings

from repro import api
from repro.cfg.builder import build_flow_graph
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.races import SAMPLE_PAIRS, RaceReport, detect_race_classes, detect_races
from repro.session import Session
from tests.conftest import build
from tests.mutex.races_oracle import oracle_races
from tests.mutex.test_races_oracle import SOURCES, TWO_LOCKS, _programs


def _key(race):
    return (race.var, race.kind, race.locks_a, race.locks_b)


def _assert_classes(graph, structures) -> None:
    classes = detect_race_classes(graph, structures)
    want = oracle_races(graph, structures)
    assert [r.as_dict() for r in classes.expand()] == [r.as_dict() for r in want]
    assert classes.pairs == sum(c.pairs for c in classes) == len(want)
    assert len(detect_races(graph, structures)) == len(want)

    groups: dict[tuple, list[tuple[int, int]]] = {}
    for race in want:
        groups.setdefault(_key(race), []).append((race.block_a, race.block_b))
    assert [_key(c) for c in classes] == list(groups)
    for c in classes:
        pairs = list(zip(c.blocks[::2], c.blocks[1::2]))
        assert pairs == groups[_key(c)]
        assert c.pairs == len(pairs)
        assert c.sample() == [list(pair) for pair in pairs[:SAMPLE_PAIRS]]
        assert all(tuple(pair) in pairs for pair in c.sample())


def _assert_on_every_form(source: str) -> None:
    """The unpruned and pruned forms and the plain PFG, then the wire
    journey: one frame per class of the unpruned form, and the
    expanded count."""
    unpruned = Session().analyze(source, prune=False)
    for form in (unpruned, Session().analyze(source)):
        _assert_classes(form.graph, form.structures)
    graph = build_flow_graph(build(source))
    _assert_classes(graph, identify_mutex_structures(graph))

    classes = detect_race_classes(unpruned.graph, unpruned.structures)
    result = api.diagnose(source)
    assert result.artifacts["races"] == classes.pairs
    assert [frame["race"] for frame in result.races] == [c.as_dict() for c in classes]
    assert [frame["message"] for frame in result.races] == [c.message() for c in classes]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_figures_and_examples(name):
    _assert_on_every_form(SOURCES[name])


def test_benchmark_audit_inputs():
    from perfbench.audit_loop import inputs

    for seed in range(3):
        for _key_, source, _ in inputs(seed):
            _assert_on_every_form(source)


@pytest.mark.parametrize("workload", ["contended", "sparse"])
def test_smallest_ladder_rung(workload):
    from perfbench.compile_loop import ladder

    _key_, source = ladder(workload, 0)[0]
    form = Session().analyze(source, prune=False)
    classes = detect_race_classes(form.graph, form.structures)
    assert classes.pairs > len(classes) > 0
    _assert_classes(form.graph, form.structures)
    assert api.diagnose(source).artifacts["races"] == classes.pairs


@settings(max_examples=40, deadline=None)
@given(_programs())
def test_generated_programs(source):
    _assert_on_every_form(source)


def test_message_names_the_class():
    _warnings, races = Session().diagnose_classes(
        "cobegin begin v = 1; end begin v = 2; end coend print(v);"
    )
    assert [c.message() for c in races] == [
        "potential write-write race on 'v' in 1 block pair (first B2 and B3): "
        "the write holds {} while the other access holds {} (no common lock)"
    ]


def test_two_lock_classes_list_locks_sorted():
    result = api.diagnose(TWO_LOCKS)
    assert [frame["race"] for frame in result.races] == [
        {"var": "v", "kind": "write-read", "locks_a": ["LA", "LB"], "locks_b": [],
         "pairs": 1, "sample": [[5, 12]]},
        {"var": "v", "kind": "write-read", "locks_a": ["LB"], "locks_b": [],
         "pairs": 1, "sample": [[10, 12]]},
        {"var": "w", "kind": "write-write", "locks_a": ["LA", "LB"], "locks_b": [],
         "pairs": 1, "sample": [[5, 12]]},
    ]
    assert "the write holds {'LA', 'LB'} while" in result.races[0]["message"]


def test_classes_survive_pickling():
    form = Session().analyze(TWO_LOCKS, prune=False)
    classes = detect_race_classes(form.graph, form.structures)
    copy = pickle.loads(pickle.dumps(classes))
    assert [r.as_dict() for r in copy.expand()] == [r.as_dict() for r in classes.expand()]
    assert [c.as_dict() for c in copy] == [c.as_dict() for c in classes]


def test_diagnostics_journey_builds_no_race_report(monkeypatch):
    from perfbench.compile_loop import ladder

    def refuse(self, *args, **kwargs):
        raise AssertionError("the diagnostics journey built a RaceReport")

    monkeypatch.setattr(RaceReport, "__init__", refuse)
    for source in (TWO_LOCKS, ladder("contended", 0)[0][1]):
        result = api.compile_source(source, "diagnostics")
        assert result.races and result.artifacts["races"] >= len(result.races)
    with pytest.raises(AssertionError, match="built a RaceReport"):
        Session().diagnose(TWO_LOCKS)


def test_no_ordering_node_computes_no_dominators(monkeypatch):
    import repro.cssame.ordering as ordering

    calls = []
    real = ordering.compute_dominators
    monkeypatch.setattr(
        ordering, "compute_dominators", lambda graph: calls.append(1) or real(graph)
    )
    form = Session().analyze(TWO_LOCKS, prune=False)
    calls.clear()
    detect_race_classes(form.graph, form.structures)
    assert calls == []

    events = (
        "cobegin begin v = 1; set(E); end begin wait(E); v = 2; end coend print(v);"
    )
    form = Session().analyze(events, prune=False)
    calls.clear()
    assert detect_races(form.graph, form.structures) == []
    assert calls == [1]
