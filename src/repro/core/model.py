"""Analytical RESPARC energy/performance model.

This is the model behind every quantitative result in the paper's evaluation:
given a network mapped onto the reconfigurable hierarchy
(:class:`~repro.mapping.mapper.MappedNetwork`), the spike-activity statistics
of the workload (:class:`~repro.snn.functional.ActivityTrace`) and the
architecture configuration, it charges per-event energies for every
architectural event of one classification and accumulates the latency of the
logical dataflow (Fig. 7): bus broadcast → switch-network distribution →
crossbar evaluation → time-multiplexed neuron integration → spike-packet
collection.

Event-driven operation (Section 3.2) is modelled through the measured
zero-packet statistics: when ``ArchitectureConfig.event_driven`` is true,
switch transfers, bus broadcasts and whole-crossbar evaluations whose spike
packets are entirely zero are suppressed (their zero-check energy is still
charged); when false, every packet moves and every crossbar fires every
timestep.

The same event counters used here are produced by executing the chip
(:class:`repro.serve.ChipSession`), which is how the two are cross-validated
in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import ArchitectureConfig
from repro.core.stats import EventCounters, counters_to_energy
from repro.crossbar.energy import CrossbarEnergyModel
from repro.energy.cacti import SRAMConfig, SRAMModel
from repro.energy.components import DEFAULT_LIBRARY, ComponentLibrary
from repro.energy.latency import LatencyReport
from repro.energy.model import EnergyReport
from repro.mapping.mapper import MappedNetwork, map_network
from repro.snn.conversion import SpikingNetwork
from repro.snn.functional import ActivityTrace
from repro.snn.network import Network

__all__ = ["ResparcEvaluation", "ResparcModel"]


@dataclass(frozen=True)
class ResparcEvaluation:
    """Energy, latency and raw event counts of one classification on RESPARC."""

    energy: EnergyReport
    latency: LatencyReport
    counters: EventCounters
    mapped: MappedNetwork

    @property
    def energy_per_classification_j(self) -> float:
        """Total energy of one classification (J)."""
        return self.energy.total_j

    @property
    def latency_per_classification_s(self) -> float:
        """Total latency of one classification (s)."""
        return self.latency.total_s


@dataclass
class ResparcModel:
    """Analytical activity-based model of the RESPARC architecture."""

    config: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    library: ComponentLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)

    def __post_init__(self) -> None:
        self.crossbar_energy = CrossbarEnergyModel(device=self.config.device)
        self.input_sram = SRAMModel(
            SRAMConfig(capacity_bytes=self.config.input_sram_bytes, word_bits=self.config.word_bits)
        )

    # -- mapping helper -----------------------------------------------------------

    def map(self, network: Network | SpikingNetwork) -> MappedNetwork:
        """Map a network using this model's architecture parameters."""
        return map_network(
            network,
            crossbar_size=self.config.crossbar_rows,
            crossbar_columns=self.config.crossbar_columns,
            mcas_per_mpe=self.config.mcas_per_mpe,
            mpes_per_neurocell=self.config.mpes_per_neurocell,
        )

    # -- evaluation -----------------------------------------------------------------

    def evaluate(
        self,
        mapped: MappedNetwork | Network | SpikingNetwork,
        trace: ActivityTrace,
        label: str | None = None,
    ) -> ResparcEvaluation:
        """Estimate one classification's energy and latency on RESPARC.

        Parameters
        ----------
        mapped:
            A mapped network (or a network, which is then mapped with this
            model's configuration).
        trace:
            Spike-activity statistics measured by the functional simulator.
        label:
            Report label; defaults to ``resparc-<size>/<network>``.
        """
        if not isinstance(mapped, MappedNetwork):
            mapped = self.map(mapped)
        cfg = self.config
        lib = self.library
        label = label or f"resparc-{cfg.crossbar_rows}/{trace.network_name}"

        counters = EventCounters()
        latency = LatencyReport(label=label)
        timesteps = trace.timesteps
        packet_bits = cfg.packet_bits
        word_bits = cfg.word_bits
        switches_per_nc = cfg.switches_per_neurocell

        communication_s = 0.0
        compute_s = 0.0

        for position, partition in enumerate(mapped.partitions):
            layer = partition.layer
            placement = mapped.placement.layer(layer.index)
            activity = trace.layer(layer.index)
            rate = activity.input_spike_rate
            out_rate = activity.output_spike_rate
            zero_packet = activity.zero_packet_fraction_for(packet_bits)
            zero_word = activity.zero_packet_fraction_for(word_bits)
            packet_keep = (1.0 - zero_packet) if cfg.event_driven else 1.0
            word_keep = (1.0 - zero_word) if cfg.event_driven else 1.0
            out_zero_packet = (1.0 - out_rate) ** packet_bits
            out_packet_keep = (1.0 - out_zero_packet) if cfg.event_driven else 1.0

            # ---------------- input spike delivery -----------------------------
            input_words = math.ceil(layer.n_inputs / word_bits)
            is_first_layer = position == 0
            previous_stays = (
                mapped.placement.layers[position - 1].output_stays_in_neurocell
                if position > 0
                else False
            )
            bus_words_this_layer = 0.0
            if is_first_layer:
                # Broadcast from the input SRAM over the shared IO bus; the
                # tag mechanism delivers one word to every target NC per cycle.
                counters.input_sram_reads += input_words * word_keep * timesteps
                counters.io_bus_words += input_words * word_keep * timesteps
                counters.zero_checks += input_words * timesteps * (1 if cfg.event_driven else 0)
                counters.global_control_events += placement.neurocell_count * timesteps
                bus_words_this_layer = input_words * word_keep
            elif not previous_stays:
                # Inter-NeuroCell transfer: previous layer's spikes go through
                # the SRAM and back out over the bus (Fig. 7b).
                counters.input_sram_writes += input_words * word_keep * timesteps
                counters.input_sram_reads += input_words * word_keep * timesteps
                counters.io_bus_words += 2 * input_words * word_keep * timesteps
                counters.zero_checks += input_words * timesteps * (1 if cfg.event_driven else 0)
                counters.global_control_events += placement.neurocell_count * timesteps
                bus_words_this_layer = 2 * input_words * word_keep
            elif placement.neurocell_count > 1 and layer.kind in ("conv", "pool"):
                # Co-located spatially-local consumer: only the windows at the
                # NeuroCell perimeter need producer outputs from a neighbouring
                # cell, and that residual traffic rides the shared bus.
                boundary_words = input_words * cfg.neurocell_boundary_fraction
                counters.input_sram_writes += boundary_words * word_keep * timesteps
                counters.input_sram_reads += boundary_words * word_keep * timesteps
                counters.io_bus_words += 2 * boundary_words * word_keep * timesteps
                bus_words_this_layer = 2 * boundary_words * word_keep

            # ---------------- crossbar evaluation + integration -------------------
            layer_switch_packets = 0.0
            for group in partition.tile_groups:
                # Probability that a tile sees no spike at all this timestep.
                tile_zero = activity.zero_packet_fraction_for(group.rows_used)
                tile_keep = (1.0 - tile_zero) if cfg.event_driven else 1.0
                active_evals = group.count * tile_keep * timesteps

                read = self.crossbar_energy.read_cost(
                    rows=cfg.crossbar_rows,
                    columns=cfg.crossbar_columns,
                    active_rows=max(int(round(group.rows_used * rate)), 1),
                    utilisation=group.synapses_per_tile
                    / (cfg.crossbar_rows * cfg.crossbar_columns),
                )
                counters.crossbar_evaluations += active_evals
                counters.crossbar_device_energy_j += active_evals * (
                    read.energy_j
                    - read.active_rows * self.crossbar_energy.driver_energy_per_row_j
                    - read.active_columns * self.crossbar_energy.sense_energy_per_column_j
                )
                counters.crossbar_active_row_reads += active_evals * read.active_rows
                # Every column of the crossbar is sensed/integrated by its
                # neuron when the MCA fires, used or not — this is the
                # "peripheral energy per MCA" penalty of incomplete
                # utilisation the paper discusses in Section 5.1.
                counters.crossbar_column_senses += active_evals * cfg.crossbar_columns

                # mPE peripheral events per evaluation.  The input buffer spans
                # the full row range of the MCA; output packets carry only the
                # used columns.
                in_pkts_span = math.ceil(cfg.crossbar_rows / packet_bits)
                in_pkts_real = math.ceil(group.rows_used / packet_bits)
                out_pkts = math.ceil(group.columns_used / packet_bits)
                counters.ibuff_accesses += 2 * in_pkts_span * packet_keep * group.count * timesteps
                counters.obuff_accesses += 2 * out_pkts * out_packet_keep * group.count * timesteps
                counters.tbuff_accesses += out_pkts * out_packet_keep * group.count * timesteps
                counters.local_control_events += active_evals

                # Spike packets actually delivered to this tile through the
                # switch network (one hop inside the NeuroCell).
                tile_switch_packets = in_pkts_real * group.count
                counters.zero_checks += tile_switch_packets * timesteps * (1 if cfg.event_driven else 0)
                counters.switch_hops += tile_switch_packets * packet_keep * timesteps
                counters.suppressed_packets += (
                    tile_switch_packets * (1.0 - packet_keep) * timesteps
                )
                layer_switch_packets += tile_switch_packets * packet_keep

                # Neuron integration of every column of every active tile.
                counters.neuron_integrations += active_evals * cfg.crossbar_columns

            switch_cycles_per_step = layer_switch_packets / max(
                switches_per_nc * placement.neurocell_count, 1
            )
            communication_s += (
                (bus_words_this_layer + switch_cycles_per_step) * cfg.cycle_s * timesteps
            )

            # Partial sums that hop between MCAs/mPEs through the CCU gated wires.
            tmux = partition.time_multiplex_degree
            if tmux > 1:
                keep = packet_keep  # gated alongside the rest of the datapath
                counters.ccu_transfers += (
                    partition.external_current_transfers_per_timestep * keep * timesteps
                )

            # Output spikes of this layer (spike generation energy).
            counters.neuron_spikes += activity.total_output_spikes

            # Crossbar reads of successive time-multiplex stages overlap with
            # the integration of the previous stage, so a layer's compute
            # latency is one read followed by `tmux` integrations.
            layer_compute_s = (
                cfg.device.read_pulse_s + tmux * lib.neuron_integration_latency_s
            ) * timesteps
            compute_s += layer_compute_s

        latency.add("communication", communication_s)
        latency.add("compute", compute_s)
        duration_s = latency.total_s

        energy = counters_to_energy(
            counters,
            library=lib,
            crossbar_energy=self.crossbar_energy,
            label=label,
            active_mpes=mapped.total_mpes,
            active_switches=mapped.placement.total_switches,
            duration_s=duration_s,
            sram_access_energy_j=self.input_sram.access_energy_j(),
            sram_leakage_power_w=self.input_sram.leakage_power_w(),
        )
        return ResparcEvaluation(energy=energy, latency=latency, counters=counters, mapped=mapped)
