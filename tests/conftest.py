"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir.lower import lower_program
from repro.ir.structured import ProgramIR
from repro.lang.parser import parse
from repro.synth.workloads import paper_figure1_source, paper_figure2_source

FIGURE1_SOURCE = paper_figure1_source()
FIGURE2_SOURCE = paper_figure2_source()


def build(source: str) -> ProgramIR:
    """Parse + lower a source string."""
    return lower_program(parse(source))


@pytest.fixture
def figure2() -> ProgramIR:
    return build(FIGURE2_SOURCE)


@pytest.fixture
def figure1() -> ProgramIR:
    return build(FIGURE1_SOURCE)


@pytest.fixture
def figure2_source() -> str:
    return FIGURE2_SOURCE
