"""Determinism: same seed, same results — twice.

Catches seeding bugs (e.g. spike trains that depend on anything but the
session's seed and each sample's index) at both the chip level and the
experiment level.  Every assertion is for *identical* output, not
tolerance-based: a same-seed rerun exercises the exact same code path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ArchitectureConfig
from repro.experiments import ExperimentSettings, WorkloadContext, run_fig11
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn


def _snn(seed: int = 21):
    rng = np.random.default_rng(seed)
    network = Network(
        (40,),
        [
            Dense(40, 24, use_bias=False, rng=rng, name="fc1"),
            Dense(24, 10, activation=None, use_bias=False, rng=rng, name="out"),
        ],
        name="determinism-mlp",
    )
    return convert_to_snn(network, rng.random((10, 40)))


def _chip_run(backend: str, encoder: str, seed: int):
    session = ChipSession(
        _snn(),
        config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
        timesteps=8,
        encoder=encoder,
        backend=backend,
        seed=seed,
    )
    inputs = np.random.default_rng(1000 + seed).random((5, 40))
    return session.infer(InferenceRequest(inputs=inputs))


class TestChipDeterminism:
    @pytest.mark.parametrize("backend", ["structural", "vectorized"])
    @pytest.mark.parametrize("encoder", ["poisson", "deterministic"])
    def test_same_seed_identical_results(self, backend, encoder):
        first = _chip_run(backend, encoder, seed=3)
        second = _chip_run(backend, encoder, seed=3)
        np.testing.assert_array_equal(first.predictions, second.predictions)
        np.testing.assert_array_equal(first.spike_counts, second.spike_counts)
        assert first.counters.as_dict() == second.counters.as_dict()
        assert first.energy.components == second.energy.components
        assert first.energy.total_j == second.energy.total_j

    def test_different_seeds_differ_with_poisson(self):
        # Sanity check that the seed actually reaches the encoder: a
        # different seed must change the stochastic spike trains.
        first = _chip_run("vectorized", "poisson", seed=3)
        second = _chip_run("vectorized", "poisson", seed=4)
        assert not np.array_equal(first.spike_counts, second.spike_counts)


class TestExperimentDeterminism:
    @staticmethod
    def _settings() -> ExperimentSettings:
        return ExperimentSettings(
            timesteps=4,
            eval_samples=2,
            train_samples=16,
            test_samples=8,
            train_epochs=0,
            network_scale=0.15,
            seed=11,
        )

    def test_fig11_rerun_is_identical(self):
        # Fresh contexts (fresh caches, fresh sessions) must reproduce
        # the exact same rendered table, including the chip validation rows.
        tables = []
        for _ in range(2):
            context = WorkloadContext(self._settings())
            result = run_fig11(
                context=context, benchmarks=["mnist-mlp"], validate_chip=True
            )
            tables.append(result.as_table())
        assert tables[0] == tables[1]

    def test_chip_validation_backends_agree_in_experiment(self):
        # The experiment-level chip run must be backend-invariant too: the
        # workload's seed encodes identically for both backends.
        results = {}
        for backend in ("structural", "vectorized"):
            context = WorkloadContext(self._settings())
            workload = context.prepare("mnist-mlp")
            results[backend] = context.evaluate_chip(
                workload, crossbar_size=32, backend=backend
            )
        np.testing.assert_array_equal(
            results["structural"].predictions, results["vectorized"].predictions
        )
        np.testing.assert_array_equal(
            results["structural"].spike_counts, results["vectorized"].spike_counts
        )
        assert results["vectorized"].energy.total_j == pytest.approx(
            results["structural"].energy.total_j, rel=1e-9
        )
