"""Chip-owning inference sessions.

A :class:`ChipSession` is the service-layer unit of the serving API: it owns
one programmed :class:`~repro.core.resparc.ResparcChip`, the chip's compiled
fastpath program (compiled eagerly, cached for the session's lifetime) and
the encoder state, and answers :class:`~repro.serve.schema.InferenceRequest`
batches with :class:`~repro.serve.schema.InferenceResponse` results.  A
session, alone or inside a :class:`~repro.serve.pool.ChipPool`, is the one
way to run the chip.

Spikes are encoded by a shard-stable
:class:`~repro.snn.encoding.EncoderState` derived from the session's integer
seed, so inference is a pure function of ``(session, request)``: repeated
calls return identical responses, and a pool can split a batch across
sessions without changing a single spike.

This module also hosts the structural backend's per-sample loop
(:func:`run_structural`); a vectorized session runs its own
:class:`~repro.fastpath.engine.VectorizedChipEngine`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ArchitectureConfig
from repro.core.resparc import ResparcChip
from repro.core.stats import EventCounters, counters_to_energy
from repro.crossbar.energy import CrossbarEnergyModel
from repro.energy.components import DEFAULT_LIBRARY, ComponentLibrary
from repro.energy.model import EnergyReport
from repro.serve.metrics import MetricsRegistry, get_default_registry
from repro.serve.schema import InferenceRequest, InferenceResponse
from repro.snn.conversion import SpikingNetwork
from repro.snn.encoding import EncoderState
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive

if TYPE_CHECKING:
    from repro.fastpath.plan import PlanCache

__all__ = ["CHIP_BACKENDS", "ChipSession", "CONFIG_MISMATCH_ERROR"]

#: Execution backends a :class:`ChipSession` runs on.
CHIP_BACKENDS = ("structural", "vectorized")

#: Raised whenever a prebuilt chip is paired with a different configuration.
CONFIG_MISMATCH_ERROR = (
    "the supplied chip was built for a different ArchitectureConfig "
    "than this session; latency/energy accounting would mix "
    "configurations"
)


# -- the structural backend ----------------------------------------------------------


def gather_chip_counters(chip: ResparcChip) -> EventCounters:
    """Snapshot the lifetime event counters of a structural chip's components."""
    counters = EventCounters()
    for cell in chip.neurocells:
        counters.switch_hops += cell.switch_hops
        counters.suppressed_packets += cell.suppressed_packets
        counters.zero_checks += cell.zero_checks
        for mpe in cell.mpes:
            counters.crossbar_evaluations += mpe.crossbar_evaluations
            counters.crossbar_device_energy_j += mpe.crossbar_energy_j
            counters.ibuff_accesses += sum(b.accesses for b in mpe.ibuffs)
            counters.obuff_accesses += sum(b.accesses for b in mpe.obuffs)
            counters.tbuff_accesses += mpe.tbuffer_lookups
            counters.local_control_events += mpe.control.evaluations_issued
            counters.ccu_transfers += mpe.ccu.total_transfers
            counters.neuron_integrations += mpe.neuron_integrations
    counters.io_bus_words += chip.bus.words_transferred
    counters.zero_checks += chip.bus.zero_checks
    counters.input_sram_reads += chip.input_memory.reads
    counters.input_sram_writes += chip.input_memory.writes
    if chip.global_control is not None:
        counters.global_control_events += chip.global_control.flag_updates
    return counters


def run_structural(
    chip: ResparcChip, spike_train: np.ndarray
) -> tuple[np.ndarray, np.ndarray, EventCounters]:
    """Reference path: per-sample execution through the component tree.

    Component counters accumulate for the lifetime of the chip instance, so
    the counters of this run are taken as a delta against a snapshot —
    matching the per-run semantics of the vectorized backend even when the
    same chip is reused across runs.
    """
    baseline = gather_chip_counters(chip)
    timesteps, batch, _ = spike_train.shape
    spike_counts = np.zeros((batch, chip.output_dim))
    predictions = np.zeros(batch, dtype=int)
    for sample in range(batch):
        chip.reset_state()
        for t in range(timesteps):
            out = chip.step(spike_train[t, sample])
            spike_counts[sample] += out
        final_pool = chip.neuron_pools[chip.layer_order[-1]]
        score = spike_counts[sample] + 1e-3 * final_pool.membrane.reshape(-1)
        predictions[sample] = int(np.argmax(score))
    counters = gather_chip_counters(chip).difference(baseline)
    return predictions, spike_counts, counters


# -- the session --------------------------------------------------------------------


class ChipSession:
    """A programmed chip plus everything needed to serve inference on it.

    Parameters
    ----------
    snn:
        The spiking network the chip executes (used for chip construction
        when no prebuilt ``chip`` is given, and for report labelling).
    chip:
        Optional prebuilt chip.  Must match ``config`` when both are given;
        without ``config`` the session adopts the chip's own.
    config / library:
        Architecture and component energies (defaults: ``ArchitectureConfig()``
        and the default component library).
    timesteps:
        Rate-coding window of a request that does not set its own.
    encoder:
        ``"poisson"`` or ``"deterministic"`` input spike encoding.
    backend:
        One of :data:`CHIP_BACKENDS`: ``"structural"`` walks the component
        tree one sample at a time, ``"vectorized"`` runs the compiled fast
        path; both give the same answer.
    seed:
        Seed of the session's deterministic randomness (chip programming and
        shard-stable spike encoding).
    """

    def __init__(
        self,
        snn: SpikingNetwork,
        *,
        chip: ResparcChip | None = None,
        config: ArchitectureConfig | None = None,
        library: ComponentLibrary | None = None,
        timesteps: int = 32,
        encoder: str = "deterministic",
        backend: str = "vectorized",
        seed: int = 0,
        registry: MetricsRegistry | None = None,
    ):
        check_positive("timesteps", timesteps)
        if backend not in CHIP_BACKENDS:
            raise ValueError(f"backend must be one of {CHIP_BACKENDS}, got {backend!r}")
        if chip is not None and config is not None and chip.config != config:
            raise ValueError(CONFIG_MISMATCH_ERROR)

        self.snn = snn
        self.config = chip.config if chip is not None else (config or ArchitectureConfig())
        self.library = library or DEFAULT_LIBRARY
        self.timesteps = timesteps
        self.backend = backend
        # Validates ``encoder`` before the chip is built.
        self.encoder_state = EncoderState(kind=encoder, seed=seed)
        self.chip = chip or ResparcChip.from_spiking_network(
            snn, config=self.config, rng=derive_rng(seed, "chip")
        )
        # Eager, cached compilation plus the session's plan cache: the first
        # request should not pay the lowering cost, every vectorized run
        # reuses the same program and the engine's one scratch arena, and
        # repeated request shapes — the common case under the dynamic
        # batcher — reuse their plan's run state.
        self._engine = None
        self.plan_cache: PlanCache | None = None
        if backend == "vectorized":
            from repro.fastpath import PlanCache, VectorizedChipEngine, compile_chip

            self._engine = VectorizedChipEngine(compile_chip(self.chip))
            self.plan_cache = PlanCache()
        # Session-layer instrumentation lands in the process-default
        # registry unless told otherwise (a disabled registry turns every
        # observation into an early return — the hot-path no-op mode).
        self.metrics = registry if registry is not None else get_default_registry()
        self._m_infer = self.metrics.histogram(
            "repro_session_infer_seconds", "one infer() on the chip"
        )
        self._m_samples = self.metrics.counter(
            "repro_session_samples_total", "samples inferred"
        )
        self._m_energy = self.metrics.counter(
            "repro_session_energy_joules_total", "chip energy spent"
        )
        self._m_plan_hits = self.metrics.counter(
            "repro_session_plan_cache_hits_total", "kernel plans reused from cache"
        )
        self._m_plan_misses = self.metrics.counter(
            "repro_session_plan_cache_misses_total", "kernel plans built on miss"
        )

    # -- energy -------------------------------------------------------------------

    def energy_for(
        self, counters: EventCounters, batch: int, timesteps: int
    ) -> EnergyReport:
        """Convert run counters into the session's energy report.

        Exposed separately from :meth:`infer` so a pool can recompute the
        energy of *merged* shard counters through the exact pipeline a
        single-session run uses, keeping sharded responses result-identical.
        """
        # A per-timestep latency of one crossbar read + integration per
        # time-multiplex stage, matching the analytical latency model.
        wall_clock_s = (
            batch
            * timesteps
            * (self.config.device.read_pulse_s + self.library.neuron_integration_latency_s)
        )
        return counters_to_energy(
            counters,
            library=self.library,
            crossbar_energy=CrossbarEnergyModel(device=self.config.device),
            label=f"resparc-{self.backend}/{self.snn.name}",
            active_mpes=self.chip.total_mpes_used,
            active_switches=sum(len(cell.switches) for cell in self.chip.neurocells),
            duration_s=wall_clock_s,
            sram_access_energy_j=self.chip.input_memory.access_energy_j(),
            sram_leakage_power_w=self.chip.input_memory.leakage_power_w(),
        )

    # -- inference ----------------------------------------------------------------

    def infer(self, request: InferenceRequest) -> InferenceResponse:
        """Run one request batch through the session's backend."""
        started = time.monotonic()
        timesteps = request.timesteps if request.timesteps is not None else self.timesteps
        x = request.batch
        spike_train = self.encoder_state.shard(request.sample_offset).encode(
            x, timesteps
        )
        metadata: dict[str, object] = {}
        if self._engine is not None:
            # Vectorized fast path through the session's plan cache: a hit
            # reuses the shape's plan, a miss builds (and keeps) it.
            plan_started = time.monotonic()
            plan, hit = self.plan_cache.get(
                self._engine.program, spike_train.shape[1], spike_train.shape[0]
            )
            metadata["plan"] = {
                "cache": "hit" if hit else "miss",
                "build_s": 0.0 if hit else time.monotonic() - plan_started,
            }
            (self._m_plan_hits if hit else self._m_plan_misses).inc()
            outcome = self._engine.run_batch(spike_train, plan=plan)
            predictions = outcome.predictions
            spike_counts = outcome.spike_counts
            counters = outcome.counters
        else:
            predictions, spike_counts, counters = run_structural(self.chip, spike_train)
        counters.neuron_spikes += float(spike_counts.sum())
        energy = self.energy_for(counters, batch=x.shape[0], timesteps=timesteps)
        accuracy = None
        if request.labels is not None:
            accuracy = float(
                np.mean(predictions == np.asarray(request.labels, dtype=int))
            )
        self._m_infer.observe(time.monotonic() - started)
        self._m_samples.inc(x.shape[0])
        self._m_energy.inc(energy.total_j)
        return InferenceResponse(
            predictions=predictions,
            spike_counts=spike_counts,
            accuracy=accuracy,
            counters=counters,
            energy=energy,
            timesteps=timesteps,
            backend=self.backend,
            batch_size=x.shape[0],
            jobs=1,
            metadata=metadata,
        )
