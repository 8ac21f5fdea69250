"""Telemetry tests mutate process-global state (the registry and the
tracer); reset around every test."""

from __future__ import annotations

import pytest

from repro.telemetry import reset_telemetry


@pytest.fixture(autouse=True)
def clean_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()
