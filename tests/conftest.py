"""Shared fixtures: a tiny configuration that keeps simulation tests fast."""

from __future__ import annotations

import pytest

from ttl_lab.benchcli import CHECK_OVERRIDES
from ttl_lab.config import ExperimentConfig, build_config

TINY_OVERRIDES = {**CHECK_OVERRIDES, "bench.runs": "1"}


@pytest.fixture
def tiny_cfg() -> ExperimentConfig:
    """A sub-second simulation config for wiring-level tests."""
    return build_config(overrides=dict(TINY_OVERRIDES))
