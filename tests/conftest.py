"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.campaign.jobs import clear_warm_state
from repro.runtime.lang import Env
from repro.sim.config import MemoryModel, SimConfig


@pytest.fixture(autouse=True)
def _cold_warm_memos():
    """Every test starts with empty per-process memos.

    Litmus runs, DPOR explorations and figure points are memoised by
    content for the process's lifetime; a test that patches the
    simulator must never read a run another test cached.
    """
    clear_warm_state()


@pytest.fixture
def config() -> SimConfig:
    """Default Table III configuration."""
    return SimConfig()


@pytest.fixture
def small_config() -> SimConfig:
    """A two-core configuration for focused functional tests."""
    return SimConfig(n_cores=2)


@pytest.fixture
def env(config) -> Env:
    return Env(config)


@pytest.fixture
def env2(small_config) -> Env:
    return Env(small_config)


def make_env(**overrides) -> Env:
    """Fresh environment with config overrides (helper for tests)."""
    return Env(SimConfig(**overrides))
