"""Golden equivalence: the Session journeys and the typed facade match
the pre-redesign one-shot implementations.

The reference ("legacy") implementations below are verbatim transcripts
of what ``repro.api`` did before the stage-graph redesign: build
everything from scratch with direct calls into the pipeline modules.
Every :class:`~repro.session.Session` journey and every typed ``api.*``
helper — on a cold session *and* through a warmed, shared one — must
reproduce their outputs bit-for-bit on the whole ``examples/*.par``
corpus plus the paper's Figure 1–5 fixture programs (Figures 3–5 rework
the Figure 2 program, so the two sources cover all five).
"""

import glob
import os

import pytest

from repro import api
from repro.cfg.dot import to_dot
from repro.cssame.builder import build_cssame
from repro.ir.lower import lower_program
from repro.ir.printer import format_ir
from repro.lang.parser import parse
from repro.mutex.deadlock import detect_lock_order_cycles
from repro.mutex.races import detect_races
from repro.mutex.warnings import SyncWarning, check_synchronization
from repro.opt.pipeline import optimize
from repro.report import measure_form
from repro.session import Session
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

CORPUS = {
    "paper-figure1": FIGURE1_SOURCE,
    "paper-figure2-5": FIGURE2_SOURCE,
}
for _path in sorted(glob.glob(os.path.join(_EXAMPLES, "*.par"))):
    with open(_path, "r", encoding="utf-8") as _handle:
        CORPUS[os.path.basename(_path)] = _handle.read()


# -- the pre-redesign reference implementations ---------------------------


def legacy_front_end(source):
    return lower_program(parse(source))


def legacy_analyze(source, prune=True):
    return build_cssame(legacy_front_end(source), prune=prune)


def legacy_optimize(source, **kwargs):
    return optimize(legacy_front_end(source), **kwargs)


def legacy_diagnose(source):
    form = legacy_analyze(source, prune=False)
    warnings = check_synchronization(form.graph, form.structures)
    for risk in detect_lock_order_cycles(form.graph, form.structures):
        blocks = tuple(b for bs in risk.witnesses.values() for b in bs)
        warnings.append(SyncWarning("deadlock-risk", risk.message(), blocks))
    races = detect_races(form.graph, form.structures)
    return warnings, races


def legacy_dot(source, title="PFG"):
    return to_dot(legacy_analyze(source).graph, title=title)


# -- equivalence over the corpus ------------------------------------------


@pytest.fixture(scope="module")
def warm_session():
    """One shared session, used twice per program: cold fill + warm hits."""
    return Session()


def _sessions(warm_session):
    """A cold session, then the shared one twice (fill, then hits)."""
    return (Session(), warm_session, warm_session)


@pytest.mark.parametrize("name", sorted(CORPUS))
class TestGoldenEquivalence:
    def test_front_end(self, name):
        assert format_ir(api.front_end(CORPUS[name])) == format_ir(
            legacy_front_end(CORPUS[name])
        )

    @pytest.mark.parametrize("prune", [True, False])
    def test_analyze(self, name, prune, warm_session):
        expected = legacy_analyze(CORPUS[name], prune=prune)
        listing = format_ir(expected.program)
        metrics = measure_form(expected.program).as_dict()
        for session in _sessions(warm_session):
            form = session.analyze(CORPUS[name], prune=prune)
            assert format_ir(form.program) == listing
            assert measure_form(form.program).as_dict() == metrics
            assert sorted(form.structures) == sorted(expected.structures)
            result = api.analyze(CORPUS[name], prune=prune, session=session)
            assert result.artifacts["listing"] == listing
            assert result.artifacts["metrics"] == metrics
            assert result.artifacts["mutex_bodies"] == len(
                expected.mutex_bodies()
            )
            if prune:
                stats = expected.rewrite_stats
                assert (
                    form.rewrite_stats.args_removed,
                    form.rewrite_stats.pis_deleted,
                ) == (stats.args_removed, stats.pis_deleted)
                assert result.artifacts["rewrite"] == {
                    "args_removed": stats.args_removed,
                    "pis_deleted": stats.pis_deleted,
                }

    def test_diagnose(self, name, warm_session):
        expected_warnings, expected_races = legacy_diagnose(CORPUS[name])
        warning_lines = [(w.kind, w.message) for w in expected_warnings]
        race_lines = [r.message() for r in expected_races]
        for session in _sessions(warm_session):
            warnings, races = session.diagnose(CORPUS[name])
            assert [(w.kind, w.message) for w in warnings] == warning_lines
            assert [r.message() for r in races] == race_lines
            result = api.diagnose(CORPUS[name], session=session)
            assert [(w["kind"], w["message"]) for w in result.warnings] == (
                warning_lines
            )
            assert [r["message"] for r in result.races] == race_lines

    def test_optimize(self, name, warm_session):
        expected = legacy_optimize(CORPUS[name])
        for session in _sessions(warm_session):
            report = session.optimize(CORPUS[name])
            assert report.listings == expected.listings
            assert report.statement_count() == expected.statement_count()
            assert len(report.constprop.constants) == len(
                expected.constprop.constants
            )
            assert report.pdce.total_removed == expected.pdce.total_removed
            assert report.licm.total_moved == expected.licm.total_moved
            result = api.optimize(CORPUS[name], session=session)
            assert result.listing == expected.listings["final"]
            assert result.artifacts["phases"] == sorted(expected.listings)
            assert result.artifacts["statements"] == expected.statement_count()
            assert (result.constants, result.removed, result.moved) == (
                len(expected.constprop.constants),
                expected.pdce.total_removed,
                expected.licm.total_moved,
            )

    def test_pfg_dot(self, name, warm_session):
        expected = legacy_dot(CORPUS[name], title=name)
        for session in _sessions(warm_session):
            assert session.dot(CORPUS[name], title=name) == expected
            result = api.compile_source(
                CORPUS[name], "dot", {"title": name}, session=session
            )
            assert result.artifacts["dot"] == expected


class TestFacadeSurface:
    def test_all_exports_resolve(self):
        for symbol in api.__all__:
            assert getattr(api, symbol) is not None
        assert "listing" in api.__all__

    def test_listing_round_trip(self):
        program = api.front_end(FIGURE2_SOURCE)
        assert api.listing(program) == format_ir(program)

    def test_pfg_dot_prune_passthrough(self):
        pruned = Session().dot(FIGURE2_SOURCE)
        unpruned = Session().dot(FIGURE2_SOURCE, prune=False)
        assert pruned != unpruned
        expected = to_dot(
            legacy_analyze(FIGURE2_SOURCE, prune=False).graph, title="PFG"
        )
        assert unpruned == expected
        result = api.compile_source(FIGURE2_SOURCE, "dot", {"prune": False})
        assert result.artifacts["dot"] == expected

    def test_pfg_dot_accepts_trace(self):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            Session().dot(FIGURE2_SOURCE)
        assert any(s.name == "build-cssame" for s in tracer.spans())

    def test_optimize_pass_variants_match_legacy(self):
        for passes in ((), ("constprop",), ("constprop", "lvn", "pdce")):
            want = legacy_optimize(FIGURE2_SOURCE, passes=passes)
            got = Session().optimize(FIGURE2_SOURCE, passes=passes)
            assert got.listings == want.listings
            result = api.optimize(FIGURE2_SOURCE, passes=passes)
            assert result.listing == want.listings["final"]
