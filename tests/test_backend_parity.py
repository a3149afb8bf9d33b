"""Cross-backend parity: the vectorized chip must match the structural chip.

The vectorized backend (:mod:`repro.fastpath`) is only allowed to be fast —
never different.  For a grid of seeds, workload shapes, encoders and
event-driven settings these tests assert that predictions and spike counts
are *identical* and that every event counter matches exactly, with the
crossbar device energy and the final energy report agreeing to floating
point accumulation order (1e-9 relative is the contract; observed agreement
is ~1e-15).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ArchitectureConfig, ResparcChip
from repro.serve import ChipSession, InferenceRequest
from repro.snn import Dense, Network, convert_to_snn

#: Counters that are pure integer event counts and must match exactly.
EXACT_COUNTERS = [
    "crossbar_evaluations",
    "neuron_integrations",
    "neuron_spikes",
    "ibuff_accesses",
    "obuff_accesses",
    "tbuff_accesses",
    "local_control_events",
    "ccu_transfers",
    "switch_hops",
    "zero_checks",
    "suppressed_packets",
    "io_bus_words",
    "global_control_events",
    "input_sram_reads",
    "input_sram_writes",
]

ENERGY_RTOL = 1e-9


def _mlp(seed: int, dims: tuple[int, ...]) -> tuple[Network, np.ndarray]:
    """A random MLP plus calibration inputs for the given layer widths."""
    rng = np.random.default_rng(seed)
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        last = i == len(dims) - 2
        layers.append(
            Dense(
                n_in,
                n_out,
                activation=None if last else "relu",
                use_bias=False,
                rng=rng,
                name=f"fc{i}",
            )
        )
    network = Network((dims[0],), layers, name=f"parity-{'x'.join(map(str, dims))}")
    return network, rng.random((12, dims[0]))


def _build_chip(snn, config):
    return ResparcChip.from_spiking_network(
        snn, config=config, rng=np.random.default_rng(0)
    )


def _run(snn, inputs, labels=None, **session_options):
    """One batch on a fresh :class:`ChipSession` built with ``session_options``."""
    session = ChipSession(snn, **session_options)
    return session.infer(InferenceRequest(inputs=inputs, labels=labels))


def _run_pair(snn, inputs, labels, *, config, timesteps, encoder, seed):
    return [
        _run(
            snn,
            inputs,
            labels,
            config=config,
            timesteps=timesteps,
            encoder=encoder,
            backend=backend,
            seed=seed,
        )
        for backend in ("structural", "vectorized")
    ]


def _assert_parity(structural, vectorized):
    np.testing.assert_array_equal(structural.predictions, vectorized.predictions)
    np.testing.assert_array_equal(structural.spike_counts, vectorized.spike_counts)
    assert structural.accuracy == vectorized.accuracy
    s_counts = structural.counters.as_dict()
    v_counts = vectorized.counters.as_dict()
    for name in EXACT_COUNTERS:
        assert s_counts[name] == v_counts[name], (
            f"counter {name}: structural={s_counts[name]} vectorized={v_counts[name]}"
        )
    assert vectorized.counters.crossbar_device_energy_j == pytest.approx(
        structural.counters.crossbar_device_energy_j, rel=ENERGY_RTOL
    )
    assert vectorized.energy.total_j == pytest.approx(
        structural.energy.total_j, rel=ENERGY_RTOL
    )
    for component, energy_j in structural.energy.components.items():
        assert vectorized.energy.components[component] == pytest.approx(
            energy_j, rel=ENERGY_RTOL, abs=1e-30
        ), f"energy component {component}"


class TestBackendParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("encoder", ["deterministic", "poisson"])
    def test_two_layer_mlp_parity(self, seed, encoder):
        network, calibration = _mlp(seed, (48, 24, 10))
        snn = convert_to_snn(network, calibration)
        rng = np.random.default_rng(100 + seed)
        inputs = rng.random((6, 48))
        labels = rng.integers(0, 10, size=6)
        structural, vectorized = _run_pair(
            snn,
            inputs,
            labels,
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            timesteps=10,
            encoder=encoder,
            seed=seed,
        )
        _assert_parity(structural, vectorized)

    @pytest.mark.parametrize("event_driven", [True, False])
    def test_multi_neurocell_chip_parity(self, event_driven):
        # Tiny NeuroCells force the mapping across cells, exercising the
        # inter-layer bus/SRAM transfer accounting in both backends.
        network, calibration = _mlp(7, (60, 40, 20, 10))
        snn = convert_to_snn(network, calibration)
        config = ArchitectureConfig(
            crossbar_rows=16,
            crossbar_columns=16,
            mcas_per_mpe=1,
            mpes_per_neurocell=4,
            event_driven=event_driven,
        )
        rng = np.random.default_rng(77)
        inputs = rng.random((5, 60))
        structural, vectorized = _run_pair(
            snn, inputs, None, config=config, timesteps=9, encoder="poisson", seed=5
        )
        chip = _build_chip(snn, config)
        assert chip.required_neurocells() > 1
        _assert_parity(structural, vectorized)

    def test_parity_on_shared_prebuilt_chip(self):
        # Both backends can execute the very same programmed chip instance,
        # in any order and repeatedly: structural counters are per-run
        # deltas, so earlier runs must not leak into later results.
        network, calibration = _mlp(3, (32, 16, 10))
        snn = convert_to_snn(network, calibration)
        config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
        inputs = np.random.default_rng(9).random((4, 32))
        chip = _build_chip(snn, config)
        structural_first = _run(
            snn, inputs, backend="structural", config=config, timesteps=8, chip=chip
        )
        vectorized = _run(
            snn, inputs, backend="vectorized", config=config, timesteps=8, chip=chip
        )
        structural_again = _run(
            snn, inputs, backend="structural", config=config, timesteps=8, chip=chip
        )
        _assert_parity(structural_first, vectorized)
        _assert_parity(structural_again, vectorized)
        first = structural_first.counters.as_dict()
        again = structural_again.counters.as_dict()
        for name in EXACT_COUNTERS:
            assert first[name] == again[name], name
        # The snapshot delta of the float energy accumulator may lose ulps.
        assert again["crossbar_device_energy_j"] == pytest.approx(
            first["crossbar_device_energy_j"], rel=ENERGY_RTOL
        )

    def test_single_vector_input_parity(self):
        network, calibration = _mlp(11, (20, 12, 5))
        snn = convert_to_snn(network, calibration)
        config = ArchitectureConfig(crossbar_rows=16, crossbar_columns=16)
        x = np.random.default_rng(2).random(20)
        structural, vectorized = _run_pair(
            snn, x, None, config=config, timesteps=6, encoder="deterministic", seed=0
        )
        assert structural.predictions.shape == (1,)
        _assert_parity(structural, vectorized)


class TestChipAccessors:
    def test_public_dimension_accessors(self):
        network, calibration = _mlp(2, (32, 16, 10))
        snn = convert_to_snn(network, calibration)
        chip = _build_chip(snn, ArchitectureConfig(crossbar_rows=16, crossbar_columns=16))
        assert chip.input_dim == 32
        assert chip.output_dim == 10
        assert chip.dims_for(chip.layer_order[0]) == (32, 16)
        assert chip.layer_dims[chip.layer_order[-1]] == (16, 10)
        assert chip.threshold_for(chip.layer_order[0]) == snn.threshold_for(
            chip.layer_order[0]
        )
        with pytest.raises(KeyError):
            chip.dims_for(99)
        with pytest.raises(KeyError):
            chip.threshold_for(99)


class TestVectorizedBackendGuards:
    def test_input_width_mismatch_raises(self):
        network, calibration = _mlp(1, (24, 10))
        snn = convert_to_snn(network, calibration)
        session = ChipSession(
            snn,
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            timesteps=4,
            backend="vectorized",
        )
        with pytest.raises(ValueError, match="expects"):
            session.infer(
                InferenceRequest(inputs=np.random.default_rng(0).random((2, 30)))
            )

    def test_mismatched_chip_config_rejected(self):
        network, calibration = _mlp(6, (24, 10))
        snn = convert_to_snn(network, calibration)
        chip = _build_chip(snn, ArchitectureConfig(crossbar_rows=16, crossbar_columns=16))
        with pytest.raises(ValueError, match="different ArchitectureConfig"):
            ChipSession(
                snn,
                chip=chip,
                config=ArchitectureConfig(crossbar_rows=32, crossbar_columns=32),
                timesteps=4,
            )
        # A session without an explicit config adopts the chip's own.
        session = ChipSession(snn, chip=chip, timesteps=4)
        assert session.config == chip.config
        result = session.infer(InferenceRequest(inputs=np.zeros((1, 24))))
        assert result.predictions.shape == (1,)

    def test_compiled_program_is_cached_per_chip(self):
        from repro.fastpath import compile_chip

        network, calibration = _mlp(8, (20, 10))
        snn = convert_to_snn(network, calibration)
        chip = _build_chip(snn, ArchitectureConfig(crossbar_rows=16, crossbar_columns=16))
        assert compile_chip(chip) is compile_chip(chip)

    def test_result_records_backend(self):
        network, calibration = _mlp(4, (16, 8))
        snn = convert_to_snn(network, calibration)
        result = _run(
            snn,
            np.random.default_rng(1).random((2, 16)),
            backend="vectorized",
            config=ArchitectureConfig(crossbar_rows=16, crossbar_columns=16),
            timesteps=4,
        )
        assert result.backend == "vectorized"
        assert result.energy.label.startswith("resparc-vectorized/")
