"""Tests for report rendering, the experiment runner and remaining edge paths."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import repro
from repro.core import ArchitectureConfig, ResparcChip, ResparcModel
from repro.experiments import ExperimentSettings, WorkloadContext
from repro.experiments.runner import main as runner_main
from repro.mapping import map_network, partition_layer, place_partitions
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn
from repro.snn.topology import LayerConnectivity
from repro.workloads import build_mnist_mlp


class TestExperimentSettings:
    def test_quick_settings_are_lighter(self):
        quick = ExperimentSettings.quick()
        default = ExperimentSettings()
        assert quick.timesteps < default.timesteps
        assert quick.eval_samples <= default.eval_samples

    def test_context_inputs_shape_for_mlp_and_cnn(self):
        context = WorkloadContext(
            ExperimentSettings(
                timesteps=4, eval_samples=1, train_samples=8, test_samples=4,
                train_epochs=0, network_scale=0.2, seed=1,
            )
        )
        mlp = context.prepare("mnist-mlp")
        cnn = context.prepare("mnist-cnn")
        assert mlp.network.input_shape == (784,)
        assert cnn.network.input_shape == (28, 28, 1)
        assert mlp.trace.samples == 1

    def test_training_epochs_produce_distinct_cache_entries(self):
        context = WorkloadContext(
            ExperimentSettings(
                timesteps=4, eval_samples=1, train_samples=16, test_samples=4,
                train_epochs=0, network_scale=0.15, seed=1,
            )
        )
        untrained = context.prepare("mnist-mlp")
        trained = context.prepare("mnist-mlp", train_epochs=1)
        assert untrained is not trained


class TestRunnerCli:
    def test_quick_run_without_accuracy(self, capsys):
        exit_code = runner_main(["--quick", "--no-accuracy", "--timesteps", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 11" in captured
        assert "Fig. 12" in captured
        assert "Fig. 13" in captured
        assert "Fig. 14(b)" in captured

    def test_module_entry_point_runs_without_runtime_warning(self):
        """``python -m repro.experiments.runner`` must execute a module its
        package has not imported yet: runpy warns otherwise."""
        src = Path(repro.__file__).resolve().parent.parent
        result = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.experiments.runner", "--help",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "--validate-chip" in result.stdout


class TestStructuralChipExtras:
    def test_effective_layer_weights_shape(self, rng):
        network = Network(
            (24,),
            [Dense(24, 12, use_bias=False, rng=rng), Dense(12, 4, activation=None, use_bias=False, rng=rng)],
            name="weights-roundtrip",
        )
        snn = convert_to_snn(network, rng.random((4, 24)))
        chip = ResparcChip.from_spiking_network(
            snn,
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            rng=np.random.default_rng(0),
        )
        weights = chip.effective_layer_weights(0)
        assert weights.shape == (24, 12)
        # Correlation with the (quantised) source weights should be very high.
        source = network.layers[0].weights
        corr = np.corrcoef(weights.ravel(), source.ravel())[0, 1]
        assert corr > 0.99

    def test_chip_single_vector_input(self, rng):
        network = Network(
            (10,), [Dense(10, 5, activation=None, use_bias=False, rng=rng)], name="single"
        )
        snn = convert_to_snn(network, rng.random((3, 10)))
        session = ChipSession(
            snn,
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            timesteps=3,
            encoder="deterministic",
            backend="structural",
        )
        result = session.infer(InferenceRequest(inputs=rng.random(10)))
        assert result.predictions.shape == (1,)


class TestModelMapsItself:
    def test_model_map_uses_configured_size(self):
        network = build_mnist_mlp(scale=0.2)
        model = ResparcModel(config=ArchitectureConfig().with_crossbar_size(32))
        mapped = model.map(network)
        assert mapped.crossbar_rows == 32
        direct = map_network(network, crossbar_size=32)
        assert mapped.total_tiles == direct.total_tiles


class TestPlacementProperties:
    @staticmethod
    def _conn(index: int, n_in: int, n_out: int) -> LayerConnectivity:
        return LayerConnectivity(
            index=index, name=f"l{index}", kind="dense", n_inputs=n_in, n_outputs=n_out,
            fan_in=n_in, synapses=n_in * n_out, output_groups=n_out,
            window_positions=1, shared_inputs_per_step=0, unique_weights=n_in * n_out,
        )

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300)),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([32, 64]),
    )
    @settings(max_examples=25, deadline=None)
    def test_placement_capacity_invariants(self, layer_dims, size):
        partitions = [
            partition_layer(self._conn(i, n_in, n_out), size, size)
            for i, (n_in, n_out) in enumerate(layer_dims)
        ]
        placement = place_partitions(partitions, mcas_per_mpe=4, mpes_per_neurocell=16)
        # Every layer gets enough MCAs for its tiles, and the NeuroCell count
        # is consistent with the mPE capacity of a cell.
        for layer, partition in zip(placement.layers, partitions):
            assert layer.mpe_count * 4 >= partition.tile_count
        assert placement.total_neurocells >= int(np.ceil(placement.total_mpes / 16))
        assert placement.total_switches == placement.total_neurocells * 9
        assert placement.layers[-1].output_stays_in_neurocell
