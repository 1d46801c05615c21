"""One stage schema: every default derives from the stage table.

The wire schema, the session's artifact keys, the journey signatures and
the CLI's ``request``/``audit`` flags must all agree with
:mod:`repro.session.stages`, so a default changed there changes
everywhere at once.
"""

import argparse
import inspect

import pytest

from repro import api
from repro.cli import _build_parser
from repro.errors import E_UNSUPPORTED, UnsupportedRequest
from repro.session import STAGES, ArtifactCache, Session
from tests.conftest import FIGURE2_SOURCE

#: the wire contract as published in 6.0, copied literally
SERVE_STAGES_V6 = {
    "analyze": {"prune": True},
    "diagnostics": {},
    "optimized": {
        "passes": ("constprop", "pdce", "licm"),
        "use_mutex": True,
        "fold_output_uses": True,
    },
    "dot": {"title": "PFG", "prune": True},
    "bytecode": {},
    "audit": {
        "runs": 16,
        "seed_base": 0,
        "fuel": 1_000_000,
        "explore": True,
        "max_states": 20_000,
    },
}

#: the journey that ends at each graph stage
JOURNEYS = {
    "ast": Session.front_end,
    "ir": Session.front_end,
    "cssame": Session.analyze,
    "diagnostics": Session.diagnose,
    "optimized": Session.optimize,
    "dot": Session.dot,
    "bytecode": Session.bytecode,
}


class _RecordingCache(ArtifactCache):
    """An artifact cache that remembers every (stage, key) looked up."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups: list[tuple[str, str]] = []

    def get(self, key, stage):
        self.lookups.append((stage, key))
        return super().get(key, stage)


def _subparser(parser: argparse.ArgumentParser, name: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError("no subcommands")


def test_serve_stages_unchanged():
    assert api.SERVE_STAGES == SERVE_STAGES_V6
    assert list(api.SERVE_STAGES) == list(SERVE_STAGES_V6)


@pytest.mark.parametrize(
    "stage,options",
    [("analyze", {"prune_events": False}), ("optimized", {"simplify": False})],
)
def test_options_removed_in_6_are_unsupported(stage, options):
    with pytest.raises(UnsupportedRequest) as info:
        api.stage_options(stage, options)
    assert info.value.code == E_UNSUPPORTED


def test_every_graph_stage_has_a_journey():
    assert sorted(JOURNEYS) == sorted(STAGES)


@pytest.mark.parametrize("stage", list(STAGES))
def test_artifact_key_is_the_default_journey_cache_key(stage):
    cache = _RecordingCache()
    JOURNEYS[stage](Session(cache=cache), FIGURE2_SOURCE)
    keys = {key for looked_up, key in cache.lookups if looked_up == stage}
    assert keys == {Session().artifact_key(stage, FIGURE2_SOURCE)}


@pytest.mark.parametrize(
    "journey,stage",
    [
        (Session.analyze, "analyze"),
        (Session.optimize, "optimized"),
        (Session.dot, "dot"),
        (api.analyze, "analyze"),
        (api.optimize, "optimized"),
    ],
)
def test_journey_signature_defaults_match_schema(journey, stage):
    defaults = api.SERVE_STAGES[stage]
    params = inspect.signature(journey).parameters
    for name, param in params.items():
        if name in defaults:
            assert param.default == defaults[name], name


def test_cli_request_stage_choices():
    request = _subparser(_build_parser(), "request")
    (stage,) = [a for a in request._actions if a.dest == "stage"]
    assert sorted(stage.choices) == sorted(api.SERVE_STAGES)


def test_cli_audit_flag_defaults():
    args = _build_parser().parse_args(["audit", "file.par"])
    assert {
        name: getattr(args, name) for name in api.SERVE_STAGES["audit"]
    } == api.SERVE_STAGES["audit"]
