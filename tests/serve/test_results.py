"""Typed results and the redesigned facade."""

import json

import pytest

from repro import api
from repro._version import __version__
from repro.results import (
    CompileResult,
    DiagnoseResult,
    OptimizeResult,
    Provenance,
    result_class_for,
    result_from_dict,
)
from repro.session import Session
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE

RACY = "cobegin begin v = 1; end begin v = 2; end coend print(v);"
CLEAN = "a = 1;\nb = a + 1;\nprint(a, b);"


class TestTypedResults:
    def test_diagnose_returns_typed_result(self):
        result = api.diagnose(FIGURE1_SOURCE)
        assert isinstance(result, DiagnoseResult)
        assert result.stage == "diagnostics"
        assert result.races, "figure 1 has a known race"
        assert not result.clean
        for frame in result.diagnostics:
            assert "kind" in frame and "message" in frame

    def test_clean_program_is_clean(self):
        result = api.diagnose(CLEAN)
        assert result.clean
        assert result.warnings == [] and result.races == []

    def test_optimize_returns_typed_result(self):
        result = api.optimize(FIGURE2_SOURCE)
        assert isinstance(result, OptimizeResult)
        assert "print" in result.listing
        assert result.removed >= 0 and result.moved >= 0
        assert result.constants >= 0

    def test_analyze_artifacts(self):
        result = api.analyze(FIGURE2_SOURCE)
        assert type(result) is CompileResult
        assert result.artifacts["form"] == "CSSAME"
        assert result.artifacts["metrics"]["pi_terms"] >= 0

    def test_results_are_frozen(self):
        result = api.diagnose(CLEAN)
        with pytest.raises(AttributeError):
            result.stage = "other"

    def test_work_counters_present_on_cold_run(self):
        result = api.diagnose(FIGURE1_SOURCE)
        assert result.total_work > 0
        assert all(name.startswith("work.") for name in result.work)


class TestProvenance:
    def test_cold_then_warm_session(self):
        sess = Session()
        cold = api.diagnose(FIGURE1_SOURCE, session=sess)
        warm = api.diagnose(FIGURE1_SOURCE, session=sess)
        assert cold.provenance.cache_misses > 0
        assert warm.provenance.cache_misses == 0
        assert warm.provenance.cache_hits > 0
        # Cache provenance is the only difference; payloads agree.
        assert cold.artifacts == warm.artifacts
        assert cold.diagnostics == warm.diagnostics

    def test_provenance_fields(self):
        result = api.analyze(CLEAN)
        prov = result.provenance
        assert prov.version == __version__
        assert len(prov.source_key) == 64
        assert prov.artifact_key is not None and len(prov.artifact_key) == 64
        assert prov.stage == "analyze"


class TestWireRoundTrip:
    @pytest.mark.parametrize("stage", sorted(api.SERVE_STAGES))
    def test_as_dict_survives_json(self, stage):
        options = {"runs": 2, "explore": False} if stage == "audit" else None
        result = api.compile_source(FIGURE1_SOURCE, stage, options)
        payload = result.as_dict()
        rebuilt = result_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.as_dict() == payload
        assert type(rebuilt) is result_class_for(stage)

    def test_result_class_for(self):
        assert result_class_for("diagnostics") is DiagnoseResult
        assert result_class_for("optimized") is OptimizeResult
        assert result_class_for("dot") is CompileResult

    def test_provenance_roundtrip(self):
        prov = Provenance("s" * 64, "dot", "a" * 64, 2, 3)
        assert Provenance.from_dict(prov.as_dict()) == prov


class TestDeprecationShims:
    """The 1.x loose-shape helpers were removed in 2.0; the typed surface
    that replaced them must not warn."""

    def test_new_surface_does_not_warn(self, recwarn):
        api.diagnose(CLEAN)
        api.analyze(CLEAN)
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]


class TestStageOptions:
    def test_unknown_stage_rejected(self):
        from repro.errors import UnsupportedRequest

        with pytest.raises(UnsupportedRequest):
            api.stage_options("transmogrify")

    def test_unknown_option_rejected(self):
        from repro.errors import UnsupportedRequest

        with pytest.raises(UnsupportedRequest):
            api.stage_options("dot", {"nope": 1})

    def test_defaults_filled(self):
        options = api.stage_options("optimized")
        assert options == dict(api.SERVE_STAGES["optimized"])

    def test_lists_normalised_to_tuples(self):
        options = api.stage_options("optimized", {"passes": ["constprop"]})
        assert options["passes"] == ("constprop",)
