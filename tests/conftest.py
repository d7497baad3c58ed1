"""Shared fixtures: a tiny configuration that keeps simulation tests fast.

Also registers the Hypothesis profile `ci` (HYPOTHESIS_PROFILE=ci): the
state machines draw their examples from a fixed seed, and a failure prints
the blob that reproduces it. Without it they explore at random.
"""

from __future__ import annotations

import os

import pytest

from ttl_lab.benchcli import CHECK_OVERRIDES
from ttl_lab.config import ExperimentConfig, build_config

try:
    from hypothesis import settings
except ImportError:  # the state-machine modules skip themselves
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

TINY_OVERRIDES = {**CHECK_OVERRIDES, "bench.runs": "1"}


@pytest.fixture
def tiny_cfg() -> ExperimentConfig:
    """A sub-second simulation config for wiring-level tests."""
    return build_config(overrides=dict(TINY_OVERRIDES))
