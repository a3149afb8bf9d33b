"""Tests for RESPARC structural components: buffers, switches, control, mPE, NeuroCell."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ArchitectureConfig,
    CurrentControlUnit,
    GlobalControlUnit,
    GlobalIOBus,
    InputMemory,
    LocalControlUnit,
    MacroProcessingEngine,
    NeuroCell,
    ProgrammableSwitch,
    SpikeBuffer,
    SpikePacket,
    SwitchPort,
    TargetBuffer,
    TileAssignment,
)
from repro.crossbar import CrossbarConfig


class TestArchitectureConfig:
    def test_defaults_match_fig8(self):
        config = ArchitectureConfig()
        assert config.mcas_per_mpe == 4
        assert config.mpes_per_neurocell == 16
        assert config.switches_per_neurocell == 9
        assert config.frequency_hz == pytest.approx(200e6)
        assert config.word_bits == 64
        assert config.area_mm2 == pytest.approx(0.29)
        assert config.power_w == pytest.approx(53.2e-3)
        assert config.mcas_per_neurocell == 64

    def test_variants(self):
        config = ArchitectureConfig().with_crossbar_size(128)
        assert config.crossbar_rows == 128
        assert not ArchitectureConfig().with_event_driven(False).event_driven
        assert ArchitectureConfig().with_weight_bits(8).device.levels == 256

    def test_synapses_per_neurocell(self):
        assert ArchitectureConfig().synapses_per_neurocell == 64 * 64 * 64

    def test_validation(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(crossbar_rows=0)
        with pytest.raises(ValueError):
            ArchitectureConfig(neurocell_boundary_fraction=1.5)


class TestBuffers:
    def test_packet_from_array_pads_and_splits(self):
        packets = SpikePacket.from_array(np.array([1, 0, 0, 1, 1]), packet_bits=4)
        assert len(packets) == 2
        assert packets[0].bits == (1, 0, 0, 1)
        assert packets[1].bits == (1, 0, 0, 0)
        assert packets[0].spike_count == 2
        assert not packets[0].is_zero

    def test_zero_packet_detection(self):
        assert SpikePacket(bits=(0, 0, 0)).is_zero

    def test_buffer_fifo_order_and_counters(self):
        buffer = SpikeBuffer("b", capacity_packets=4)
        first = SpikePacket(bits=(1, 0))
        second = SpikePacket(bits=(0, 1))
        buffer.push(first)
        buffer.push(second)
        assert buffer.pop() is first
        assert buffer.pop() is second
        assert buffer.accesses == 4
        assert buffer.high_watermark == 2

    def test_buffer_overflow_and_underflow(self):
        buffer = SpikeBuffer("b", capacity_packets=1)
        buffer.push(SpikePacket(bits=(1,)))
        with pytest.raises(OverflowError):
            buffer.push(SpikePacket(bits=(1,)))
        buffer.drain()
        with pytest.raises(IndexError):
            buffer.pop()

    def test_buffer_reset_counters(self):
        buffer = SpikeBuffer("b")
        buffer.push(SpikePacket(bits=(1,)))
        buffer.reset_counters()
        assert buffer.accesses == 0
        assert len(buffer) == 1

    def test_target_buffer(self):
        tbuff = TargetBuffer("t")
        tbuff.configure(["nc0.mpe1", "nc0.mpe2"])
        assert tbuff.lookup() == ("nc0.mpe1", "nc0.mpe2")
        assert tbuff.lookups == 1


class TestSwitch:
    def _switch(self, zero_check=True):
        switch = ProgrammableSwitch("sw0", zero_check_enabled=zero_check)
        switch.attach_port(SwitchPort("mpe0", "mpe"))
        switch.attach_port(SwitchPort("mpe1", "mpe"))
        switch.configure_route("mpe0", "mpe0")
        switch.configure_route("mpe1", "mpe1")
        return switch

    def test_routing_longest_prefix(self):
        switch = self._switch()
        port, delivered = switch.forward(SpikePacket(bits=(1, 0), target="mpe1"))
        assert delivered and port == "mpe1"
        assert switch.forwarded_packets == 1

    def test_zero_check_suppression(self):
        switch = self._switch()
        port, delivered = switch.forward(SpikePacket(bits=(0, 0), target="mpe0"))
        assert not delivered and port is None
        assert switch.suppressed_packets == 1

    def test_zero_check_disabled_forwards_everything(self):
        switch = self._switch(zero_check=False)
        _, delivered = switch.forward(SpikePacket(bits=(0, 0), target="mpe0"))
        assert delivered
        assert switch.suppressed_packets == 0

    def test_unroutable_target_raises(self):
        switch = ProgrammableSwitch("sw1")
        switch.attach_port(SwitchPort("mpe0", "mpe"))
        with pytest.raises(KeyError):
            switch.forward(SpikePacket(bits=(1,), target="mpe9"))

    def test_arbitration_conflicts_counted(self):
        switch = self._switch()
        packets = [SpikePacket(bits=(1, 0), target="mpe0") for _ in range(3)]
        delivered = switch.forward_many(packets)
        assert len(delivered) == 3
        assert switch.arbitration_conflicts == 2

    def test_duplicate_port_rejected(self):
        switch = self._switch()
        with pytest.raises(ValueError):
            switch.attach_port(SwitchPort("mpe0", "mpe"))

    def test_invalid_port_kind(self):
        with pytest.raises(ValueError):
            SwitchPort("x", "bus")


class TestControlUnits:
    def test_local_control_scheduling(self):
        lcu = LocalControlUnit("mpe0", mca_count=4)
        lcu.schedule_evaluation(1, multiplex_degree=3)
        assert lcu.pending_integrations == 3
        lcu.complete_integration(1)
        assert lcu.pending_integrations == 2
        with pytest.raises(IndexError):
            lcu.schedule_evaluation(7)
        with pytest.raises(RuntimeError):
            lcu.complete_integration(0)

    def test_ccu_counters(self):
        ccu = CurrentControlUnit("mpe0")
        ccu.request_transfer_out()
        ccu.accept_transfer_in()
        ccu.wait()
        assert ccu.total_transfers == 2
        assert ccu.wait_events == 1

    def test_global_control_event_flags(self):
        gcu = GlobalControlUnit((0, 1, 2))
        gcu.dispatch(0)
        assert not gcu.all_complete()
        for nc in (0, 1, 2):
            gcu.mark_complete(nc)
        assert gcu.all_complete()
        assert gcu.all_complete((0, 1))
        with pytest.raises(KeyError):
            gcu.mark_complete(9)


class TestInterconnect:
    def test_input_memory_roundtrip(self):
        memory = InputMemory(word_bits=8)
        bits = np.array([1, 0, 1, 1, 0, 0, 0, 0, 1])
        words = memory.store_vector("x", bits)
        assert words == 2
        loaded, read_words = memory.load_vector("x")
        assert read_words == 2
        np.testing.assert_array_equal(loaded, bits)
        assert memory.accesses == 4
        with pytest.raises(KeyError):
            memory.load_vector("missing")

    def test_bus_broadcast_suppresses_zero_words(self):
        bus = GlobalIOBus(word_bits=8, zero_check_enabled=True)
        bits = np.zeros(16)
        bits[0] = 1
        driven = bus.broadcast(bits, target_neurocells=3)
        assert driven == 1
        assert bus.suppressed_words == 1
        assert bus.words_transferred == 1

    def test_bus_without_zero_check(self):
        bus = GlobalIOBus(word_bits=8, zero_check_enabled=False)
        driven = bus.broadcast(np.zeros(16), target_neurocells=1)
        assert driven == 2

    def test_bus_validation(self):
        bus = GlobalIOBus()
        with pytest.raises(ValueError):
            bus.broadcast(np.ones(8), target_neurocells=0)
        with pytest.raises(ValueError):
            bus.transfer_words(-1)


class TestMpeAndNeuroCell:
    def _mpe(self):
        return MacroProcessingEngine(
            "nc0.mpe0", CrossbarConfig(rows=16, columns=16), mcas_per_mpe=2, packet_bits=8
        )

    def test_program_and_evaluate_tile(self):
        mpe = self._mpe()
        weights = np.eye(8)
        assignment = TileAssignment(layer_index=0, row_start=0, row_stop=8, column_start=0, column_stop=8)
        index = mpe.program_tile(assignment, weights, targets=["layer0"])
        assert index == 0
        out = mpe.evaluate_tile(index, np.ones(8))
        np.testing.assert_allclose(out, np.ones(8), atol=0.05)
        assert mpe.crossbar_evaluations == 1
        assert mpe.neuron_integrations == 8

    def test_program_full_mpe_raises(self):
        mpe = self._mpe()
        assignment = TileAssignment(0, 0, 4, 0, 4)
        mpe.program_tile(assignment, np.ones((4, 4)))
        mpe.program_tile(assignment, np.ones((4, 4)))
        with pytest.raises(RuntimeError):
            mpe.program_tile(assignment, np.ones((4, 4)))

    def test_wrong_block_shape_rejected(self):
        mpe = self._mpe()
        with pytest.raises(ValueError):
            mpe.program_tile(TileAssignment(0, 0, 4, 0, 4), np.ones((3, 4)))

    def test_emit_output_counts_buffer_traffic(self):
        mpe = self._mpe()
        mpe.program_tile(TileAssignment(0, 0, 8, 0, 8), np.eye(8), targets=["layer1"])
        packets = mpe.emit_output(0, np.ones(8))
        assert len(packets) == 1
        assert mpe.tbuffer_lookups == 1
        assert mpe.buffer_accesses >= 2

    def test_neurocell_structure(self):
        cell = NeuroCell(0, CrossbarConfig(rows=8, columns=8), mpes_per_neurocell=4, mcas_per_mpe=2, packet_bits=8)
        assert len(cell.mpes) == 4
        assert len(cell.switches) == 1
        assert cell.free_mca_count == 8

    @pytest.mark.parametrize("mpes", [1, 2, 3, 5, 6, 10, 16])
    def test_neurocell_supports_any_mpe_count(self, mpes):
        # Regression: non-square counts used to collapse two mPEs onto one
        # grid cell (round instead of ceil of sqrt), attaching the same
        # switch port twice and crashing construction for e.g. 2 mPEs.
        cell = NeuroCell(
            0, CrossbarConfig(rows=8, columns=8), mpes_per_neurocell=mpes, mcas_per_mpe=2
        )
        assert len(cell.mpes) == mpes
        for switch in cell.switches:
            names = [port.name for port in switch.ports]
            assert len(names) == len(set(names))
        # Every mPE is reachable through some switch.
        for mpe in cell.mpes:
            assert cell.switch_for_mpe(mpe.mpe_id) is not None
        spikes = np.ones(8)
        delivered = cell.route_spike_vector(spikes, [m.mpe_id for m in cell.mpes])
        assert all(count == 1 for count in delivered.values())

    def test_non_square_mpe_count_runs_end_to_end(self):
        # A chip built with 2 mPEs per NeuroCell must program and execute.
        from repro.core import ArchitectureConfig
        from repro.serve import ChipSession, InferenceRequest
        from repro.snn import Dense, Network, convert_to_snn

        rng = np.random.default_rng(3)
        network = Network(
            (16,),
            [
                Dense(16, 12, use_bias=False, rng=rng, name="fc1"),
                Dense(12, 5, activation=None, use_bias=False, rng=rng, name="out"),
            ],
            name="nonsquare-mlp",
        )
        snn = convert_to_snn(network, rng.random((8, 16)))
        config = ArchitectureConfig(
            crossbar_rows=8, crossbar_columns=8, mcas_per_mpe=1, mpes_per_neurocell=2
        )
        inputs = rng.random((3, 16))
        results = {
            backend: ChipSession(
                snn, config=config, timesteps=5, backend=backend
            ).infer(InferenceRequest(inputs=inputs))
            for backend in ("structural", "vectorized")
        }
        np.testing.assert_array_equal(
            results["structural"].predictions, results["vectorized"].predictions
        )
        assert config.switches_per_neurocell == 1

    def test_neurocell_routing_counts_hops_and_suppression(self):
        cell = NeuroCell(0, CrossbarConfig(rows=8, columns=8), mpes_per_neurocell=4, mcas_per_mpe=2, packet_bits=4)
        spikes = np.array([1, 0, 0, 0, 0, 0, 0, 0])
        delivered = cell.route_spike_vector(spikes, [cell.mpes[0].mpe_id])
        assert delivered[cell.mpes[0].mpe_id] == 1
        assert cell.switch_hops == 1
        assert cell.suppressed_packets == 1  # second packet is all zero
        assert cell.zero_checks == 2
