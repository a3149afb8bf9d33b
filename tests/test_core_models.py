"""Tests for the analytical RESPARC model, the structural chip and their agreement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ArchitectureConfig,
    EventCounters,
    ResparcChip,
    ResparcModel,
    counters_to_energy,
)
from repro.crossbar import CrossbarEnergyModel, DeviceParameters
from repro.energy import DEFAULT_LIBRARY
from repro.mapping import map_network
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, SpikingSimulator, convert_to_snn
from repro.workloads import build_mnist_cnn, build_mnist_mlp


@pytest.fixture(scope="module")
def mlp_workload():
    """A reduced MNIST MLP with a measured activity trace."""
    from repro.datasets import make_dataset

    network = build_mnist_mlp(scale=0.25)
    dataset = make_dataset("mnist", train_samples=8, test_samples=8, seed=0)
    inputs = dataset.test_images.reshape(8, -1)
    snn = convert_to_snn(network, inputs[:4])
    trace = SpikingSimulator(timesteps=8, rng=np.random.default_rng(0)).run(snn, inputs[:2]).trace
    return network, trace


@pytest.fixture(scope="module")
def cnn_workload():
    from repro.datasets import make_dataset

    network = build_mnist_cnn(scale=0.25)
    dataset = make_dataset("mnist", train_samples=8, test_samples=8, seed=0)
    snn = convert_to_snn(network, dataset.test_images[:4])
    trace = (
        SpikingSimulator(timesteps=8, rng=np.random.default_rng(0))
        .run(snn, dataset.test_images[:2])
        .trace
    )
    return network, trace


class TestEventCounters:
    def test_merge_and_dict(self):
        a = EventCounters(crossbar_evaluations=2, switch_hops=3)
        b = EventCounters(crossbar_evaluations=1, io_bus_words=5)
        merged = a.merge(b)
        assert merged.crossbar_evaluations == 3
        assert merged.switch_hops == 3
        assert merged.io_bus_words == 5
        assert merged.total_events == pytest.approx(sum(merged.as_dict().values()))

    def test_counters_to_energy_groups(self):
        counters = EventCounters(
            crossbar_device_energy_j=1e-9,
            neuron_integrations=1000,
            ibuff_accesses=100,
            switch_hops=10,
            io_bus_words=5,
        )
        report = counters_to_energy(
            counters,
            library=DEFAULT_LIBRARY,
            crossbar_energy=CrossbarEnergyModel(),
            label="t",
            active_mpes=2,
            active_switches=1,
            duration_s=1e-6,
        )
        groups = report.grouped()
        assert groups["crossbar"] >= 1e-9
        assert groups["neuron"] > 0
        assert groups["peripherals"] > 0


class TestResparcModel:
    def test_energy_latency_positive_and_reported(self, mlp_workload):
        network, trace = mlp_workload
        evaluation = ResparcModel().evaluate(network, trace)
        assert evaluation.energy_per_classification_j > 0
        assert evaluation.latency_per_classification_s > 0
        groups = evaluation.energy.grouped()
        assert set(groups) >= {"crossbar", "neuron", "peripherals"}

    def test_accepts_premapped_network(self, mlp_workload):
        network, trace = mlp_workload
        model = ResparcModel()
        mapped = model.map(network)
        evaluation = model.evaluate(mapped, trace)
        assert evaluation.mapped is mapped

    def test_event_driven_saves_energy(self, mlp_workload):
        network, trace = mlp_workload
        on = ResparcModel(config=ArchitectureConfig(event_driven=True)).evaluate(network, trace)
        off = ResparcModel(config=ArchitectureConfig(event_driven=False)).evaluate(network, trace)
        assert on.energy_per_classification_j < off.energy_per_classification_j
        assert on.counters.suppressed_packets > 0
        assert off.counters.suppressed_packets == 0

    def test_mlp_energy_decreases_with_crossbar_size(self, mlp_workload):
        network, trace = mlp_workload
        energies = [
            ResparcModel(config=ArchitectureConfig().with_crossbar_size(size)).evaluate(network, trace).energy_per_classification_j
            for size in (32, 64, 128)
        ]
        assert energies[0] > energies[1] > energies[2]

    def test_cnn_peripheral_share_exceeds_mlp(self, mlp_workload, cnn_workload):
        mlp_net, mlp_trace = mlp_workload
        cnn_net, cnn_trace = cnn_workload
        model = ResparcModel()
        mlp_eval = model.evaluate(mlp_net, mlp_trace)
        cnn_eval = model.evaluate(cnn_net, cnn_trace)
        assert cnn_eval.mapped.utilisation.mean_utilisation < mlp_eval.mapped.utilisation.mean_utilisation

    def test_energy_scales_with_timesteps(self, mlp_workload):
        from repro.datasets import make_dataset

        network, _ = mlp_workload
        dataset = make_dataset("mnist", train_samples=8, test_samples=8, seed=0)
        inputs = dataset.test_images.reshape(8, -1)
        snn = convert_to_snn(network, inputs[:4])
        short = SpikingSimulator(timesteps=4, rng=np.random.default_rng(0)).run(snn, inputs[:2]).trace
        long = SpikingSimulator(timesteps=16, rng=np.random.default_rng(0)).run(snn, inputs[:2]).trace
        model = ResparcModel()
        e_short = model.evaluate(network, short).energy_per_classification_j
        e_long = model.evaluate(network, long).energy_per_classification_j
        assert e_long > 2 * e_short

    def test_precision_independence(self, mlp_workload):
        network, trace = mlp_workload
        energies = [
            ResparcModel(config=ArchitectureConfig().with_weight_bits(bits)).evaluate(network, trace).energy_per_classification_j
            for bits in (1, 4, 8)
        ]
        spread = max(energies) / min(energies)
        assert spread < 1.1  # essentially flat, unlike the CMOS baseline


class TestStructuralChip:
    def _small_snn(self, rng):
        network = Network(
            (20,),
            [
                Dense(20, 24, use_bias=False, rng=rng, name="fc1"),
                Dense(24, 6, activation=None, use_bias=False, rng=rng, name="out"),
            ],
            name="chip-mlp",
        )
        inputs = rng.random((6, 20))
        return convert_to_snn(network, inputs), inputs

    def test_chip_construction_matches_mapping(self, rng):
        snn, _ = self._small_snn(rng)
        config = ArchitectureConfig().with_crossbar_size(16)
        chip = ResparcChip.from_spiking_network(snn, config=config)
        mapped = map_network(snn, crossbar_size=16)
        assert chip.mca_count == mapped.total_tiles
        assert chip.required_neurocells() >= 1

    def test_chip_rejects_conv_networks(self, rng):
        cnn = build_mnist_cnn(scale=0.2)
        snn = convert_to_snn(cnn, np.random.default_rng(0).random((2, 28, 28, 1)))
        with pytest.raises(ValueError):
            ResparcChip.from_spiking_network(snn)

    def test_chip_spike_counts_match_reference_if_dynamics(self, rng):
        # The chip's output spike counts must match a NumPy IF simulation that
        # uses the chip's own (quantised) effective weights — an end-to-end
        # functional correctness check of the structural datapath.
        snn, inputs = self._small_snn(rng)
        config = ArchitectureConfig(
            crossbar_rows=16, crossbar_columns=16, device=DeviceParameters(levels=256)
        )
        chip = ResparcChip.from_spiking_network(
            snn, config=config, rng=np.random.default_rng(0)
        )
        session = ChipSession(
            snn, chip=chip, timesteps=12, encoder="deterministic", backend="structural"
        )
        result = session.infer(InferenceRequest(inputs=inputs[:2]))

        from repro.snn.encoding import DeterministicRateEncoder
        from repro.snn.neuron import IFNeuronParameters, IFNeuronPool

        weights = {i: chip.effective_layer_weights(i) for i in chip.layer_order}
        train = DeterministicRateEncoder().encode(inputs[:2].reshape(2, -1), 12)
        pools = {
            i: IFNeuronPool((2, weights[i].shape[1]), IFNeuronParameters(threshold=snn.threshold_for(i)))
            for i in chip.layer_order
        }
        for t in range(12):
            current = train[t]
            for i in chip.layer_order:
                current = pools[i].step(current @ weights[i])
        expected = pools[chip.layer_order[-1]].spike_count
        np.testing.assert_allclose(result.spike_counts, expected, atol=1e-9)

    def test_chip_counters_populated(self, rng):
        snn, inputs = self._small_snn(rng)
        session = ChipSession(
            snn,
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            timesteps=6,
            encoder="deterministic",
            backend="structural",
        )
        result = session.infer(InferenceRequest(inputs=inputs[:1]))
        assert result.counters.crossbar_evaluations > 0
        assert result.counters.ibuff_accesses > 0
        assert result.counters.io_bus_words > 0
        assert result.energy.total_j > 0

    def test_structural_and_analytical_energy_same_order(self, rng):
        # The two models count events differently (measured vs expected
        # activity) but must land within a small factor of each other.
        snn, inputs = self._small_snn(rng)
        config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
        session = ChipSession(
            snn, config=config, timesteps=10, encoder="deterministic", backend="structural"
        )
        structural = session.infer(InferenceRequest(inputs=inputs[:2]))

        functional = SpikingSimulator(timesteps=10, encoder="deterministic").run(snn, inputs[:2])
        analytical = ResparcModel(config=config).evaluate(snn, functional.trace)
        ratio = structural.energy.total_j / analytical.energy_per_classification_j / 2  # 2 samples
        assert 0.2 < ratio < 5.0
