"""Shared fixtures for the pytest-benchmark harness.

Each benchmark module regenerates one of the paper's tables/figures or
times one serving-path mechanism, and prints the numbers it measures (run
with ``-s`` to see them).  The workload context is session scoped so the
(comparatively expensive) spiking simulation of each benchmark network runs
once and every figure reuses it — the same structure the experiment runner
uses.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSettings, WorkloadContext


@pytest.fixture(scope="session")
def context() -> WorkloadContext:
    """Full-size benchmark networks with a reduced simulation window."""
    return WorkloadContext(ExperimentSettings.quick())


@pytest.fixture(scope="session")
def reduced_context() -> WorkloadContext:
    """Width-scaled networks for the heavier sweeps."""
    return WorkloadContext(
        ExperimentSettings(
            timesteps=6,
            eval_samples=2,
            train_samples=16,
            test_samples=8,
            train_epochs=0,
            network_scale=0.25,
            seed=7,
        )
    )
