"""Vectorized batch execution of a compiled RESPARC chip.

The default path follows the chip's crossbar grid and runs **layer-major
over chunks of timesteps**.  A chunk is a run of consecutive timesteps whose
rows (timesteps × batch) fit :data:`~repro.fastpath.plan.CHUNK_ROWS`.  Each
layer evaluates a whole chunk before the next layer runs — valid because
layer ``l`` at step ``t`` depends only on layer ``l - 1`` at step ``t`` and
on its own membrane at ``t - 1``.  A spike is one ``bool`` byte from the
encoded train to the last layer: each layer reads its input spikes as
``bool`` (the train's, then the previous layer's output) and writes its own
output spikes as ``bool``:

* a hidden layer, layer 0 included, is one float32 GEMM of its 0/1 input
  spikes, copied once into float32, with its grid of signed conductance
  levels (:attr:`~repro.fastpath.compiler.FusedLayer.matrix`), cut to the
  layer's own ``n_in`` rows and ``n_out`` columns: the padding rows would
  multiply zero inputs and the padding columns feed no neuron.  One float64
  pass multiplies the integer sums by the layer's drive per level
  (:attr:`~repro.fastpath.compiler.FusedLayer.unit`);
* the output layer runs one float64 GEMM per crossbar row block
  (:attr:`~repro.fastpath.compiler.FusedLayer.row_blocks`) of its
  conductances on a column slice of its input ``spikes × V_read``, scales
  each partial sum and divides it by the current LSB in two passes, and
  adds it onto the drive in placement order;
* active input rows are counted once per row block, ``np.add.reduceat``
  over the spikes' bytes at the row-block starts (any crossbar height), and
  priced by the row block's read-cost table;
* the IF update — :class:`repro.snn.neuron.IFNeuronPool`'s elementwise
  code path for the compiled regime (subtract reset, no leak/refractory) —
  is replayed timestep by timestep, carrying each layer's membrane from
  chunk to chunk; the reset subtracts ``fired × threshold`` from every
  neuron;
* packets and bus words are counted on the chunk's spikes: switch hops and
  suppressed packets are linear in the per-step live counts, so per-chunk
  totals give the same integers.

The work buffers live in the engine's one
:class:`~repro.fastpath.plan.KernelArena`, shared by the layers and by every
execution shape, and are written with ``out=``/in-place operations; the
arena grows when a chunk needs more rows than it has.  A
:class:`~repro.fastpath.plan.KernelPlan` holds only a shape's membranes and
spike counts; callers that repeat an execution shape pass a cached plan
(:class:`~repro.fastpath.plan.PlanCache`).  Runs on one engine are
serialized by its lock.

What is exact, and why.  Predictions, spike counts and every integer event
counter equal the structural chip's and the per-tile reference loop's;
crossbar energy agrees within 1e-9 relative (the kernel sums it over
(row, row block) instead of (row, tile)).  Every synapse sits on one of the
device's conductance levels, so over 0/1 spikes a hidden-layer column
current is ``V_read`` times one level's conductance times an integer sum of
levels.  The kernel sums those integers in float32, exactly in any order:
the compiler checks that every column's ``Σ|level|`` stays below ``2**24``,
and the spikes are ``bool`` (:meth:`VectorizedChipEngine.run_batch`
converts any other train once, refusing any value but 0 and 1).  So a
hidden layer's drives do not depend on the GEMM height (the chunk, pool
sharding, server coalescing) or on BLAS's order.  ``sum × unit`` can still
differ from the structural chip's drive in the last bits, since the chip
sums float64 conductances tile by tile and rounds each step; those drives
reach the outputs only through ``membrane >= threshold``.  The output layer
stays float64 and sums its row blocks in the structural placement order,
because its membrane breaks ties in ``argmax(spike_counts + 1e-3 ·
membrane)``: exact integer sums would tie two classes that the chip's
float64 sums separate by one ulp, and a prototype with them flipped 1
prediction of 85 in the short-last-chunk test.  For the same reason each
row block's product keeps all ``C·g_cols`` columns, though only ``n_out``
feed neurons: cutting the product's width changes its float64 rounding.
On an AVX-512 Xeon with OpenBLAS 0.3.31, ``x @ B[:, :n_out]`` differed
from ``(x @ B)[:, :n_out]`` in 538 of 600 row-block products of
mnist-mlp's 64×64 output layer and in 459 of 504 of cifar10-mlp's 128×128
one (1–512 rows, spike densities 0.05–0.5), while the scale, divide and add
passes cost the same on a strided 10-column view as on all 64 contiguous
columns (20.8 against 20.4 µs per 256-row block).  The IF replay is exact
(``m - 0.0 == m`` for the neurons that did not fire), and so are the chunk
counts.  :meth:`VectorizedChipEngine.run_batch_reference` keeps the
``timesteps × layers × tiles`` loop over float64 conductances alive as the
parity oracle the property suite checks the kernel against; like the
structural chip, it also runs analog trains.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.stats import EventCounters
from repro.fastpath.compiler import CompiledChip, CompiledLayer, compile_chip
from repro.fastpath.plan import KernelArena, KernelPlan, head
from repro.snn.neuron import IFNeuronParameters, IFNeuronPool

__all__ = ["BatchRunOutcome", "VectorizedChipEngine"]


@dataclass(frozen=True)
class BatchRunOutcome:
    """Raw outcome of one vectorized batch run (pre energy conversion)."""

    spike_counts: np.ndarray
    predictions: np.ndarray
    counters: EventCounters
    timesteps: int


def _nonzero_chunk_counts(bits: np.ndarray, chunk_bits: int) -> np.ndarray:
    """Per-sample count of ``chunk_bits``-wide chunks containing any spike.

    ``bits`` has shape ``(batch, n)``; chunks are zero-padded at the tail,
    matching :meth:`SpikePacket.from_array` / the bus word slicing.
    """
    batch, n = bits.shape
    n_chunks = int(math.ceil(n / chunk_bits)) if n else 0
    if n_chunks == 0:
        return np.zeros(batch, dtype=np.int64)
    padded = np.zeros((batch, n_chunks * chunk_bits), dtype=bool)
    padded[:, :n] = bits > 0
    return padded.reshape(batch, n_chunks, chunk_bits).any(axis=2).sum(axis=1)


class VectorizedChipEngine:
    """Executes an entire encoded batch through a compiled chip."""

    def __init__(self, program: CompiledChip):
        self.program = program
        #: Scratch shared by every plan this engine runs, sized by the
        #: tallest chunk so far; allocated by the first run.
        self.arena: KernelArena | None = None
        # The arena, and the state of the plan a run resets, are shared
        # between callers: one run at a time.
        self._lock = threading.Lock()

    @classmethod
    def from_chip(cls, chip) -> "VectorizedChipEngine":
        """Compile a structural chip and wrap it in an engine."""
        return cls(compile_chip(chip))

    def _validate_train(self, train: np.ndarray) -> np.ndarray:
        program = self.program
        if train.ndim != 3:
            raise ValueError(
                f"spike_train must have shape (timesteps, batch, n_in), got {train.shape}"
            )
        if train.shape[2] != program.input_dim:
            raise ValueError(
                f"layer {program.layers[0].layer_index} expects {program.input_dim} "
                f"inputs, got {train.shape[2]}"
            )
        return train

    # -- fused execution ----------------------------------------------------------

    def run_batch(
        self, spike_train: np.ndarray, plan: KernelPlan | None = None
    ) -> BatchRunOutcome:
        """Run an encoded spike train of shape ``(timesteps, batch, n_in)``.

        ``plan`` carries the run state of this execution shape; omitted, a
        fresh one is built (and discarded).  The scratch comes from the
        engine's :attr:`arena`, grown first if the plan's chunk needs more
        rows.  Returns per-sample output spike counts and predictions plus
        the aggregate :class:`EventCounters` of the run (the same totals the
        structural chip's components would have accumulated).  A ``bool``
        train, as :meth:`repro.snn.encoding.EncoderState.encode` emits, runs
        as it is; any other train is converted to ``bool`` once, and raises
        ``ValueError`` unless every value is 0 or 1: the hidden layers sum
        conductance levels over spikes.  Thread-safe: runs on one engine are
        serialized.
        """
        program = self.program
        train = self._validate_train(np.asarray(spike_train))
        if train.dtype != bool:
            spikes = train != 0
            if not np.array_equal(train, spikes):
                raise ValueError(
                    "the vectorized backend runs binary (0/1) spike trains; "
                    "run analog trains through the structural backend"
                )
            train = spikes
        timesteps, batch = train.shape[:2]
        if plan is None:
            plan = KernelPlan(program, batch, timesteps)
        with self._lock:
            plan.check(program, batch, timesteps)
            plan.reset()
            if self.arena is None or self.arena.rows < plan.rows:
                self.arena = KernelArena(program, plan.rows)
            return self._run_chunks(train, plan, self.arena)

    def _run_chunks(
        self, train: np.ndarray, plan: KernelPlan, arena: KernelArena
    ) -> BatchRunOutcome:
        """The layer-major chunk loop of :meth:`run_batch`, on a reset plan."""
        program = self.program
        timesteps, batch, n_in = train.shape

        voltage = program.read_voltage_v
        lsb = program.current_lsb_a
        event_driven = program.event_driven
        layers = program.layers
        last_index = len(layers) - 1

        crossbar_energy = 0.0
        switch_hops = 0
        suppressed_packets = 0
        io_bus_words = 0
        live = 0

        for start in range(0, timesteps, plan.chunk):
            steps = min(plan.chunk, timesteps - start)
            rows = steps * batch
            # The layer's input spikes: the train's, then each layer's output.
            bits = train[start : start + steps].reshape(rows, n_in)
            if event_driven:
                io_bus_words += arena.input_word_scratch.count_total(bits)
                live = arena.input_packet_scratch.count_total(bits)
            for index, layer in enumerate(layers):
                fused = layer.fused
                blocks = fused.row_blocks
                n_blocks, g_rows, width = blocks.shape
                if event_driven:
                    delivered = live * layer.destinations
                    switch_hops += delivered
                    suppressed_packets += (
                        rows * layer.input_packets * layer.destinations - delivered
                    )
                # Read energy: active rows per (row, row block), summed over
                # the spikes' bytes, priced by the row block's cost table.
                active = head(arena.active, rows, n_blocks)
                np.add.reduceat(
                    bits.view(np.uint8), arena.row_starts[index], axis=1, out=active
                )
                crossbar_energy += float(
                    np.take_along_axis(fused.read_cost, active.T, axis=1).sum()
                )
                if index < last_index:
                    # A hidden layer is one GEMM of its 0/1 spikes with its
                    # levels, cut to the layer's rows and columns (the padding
                    # rows multiply zero inputs, the padding columns feed no
                    # neuron): an integer sum, exact in float32, made a drive
                    # in float64.
                    x = head(arena.inputs, rows, layer.n_in)
                    np.copyto(x, bits)
                    sums = head(arena.sums, rows, layer.n_out)
                    np.matmul(x, fused.matrix[: layer.n_in, : layer.n_out], out=sums)
                    drive = head(arena.drive, rows, layer.n_out)
                    np.multiply(sums, fused.unit, out=drive, dtype=np.float64)
                else:
                    # The output layer's membrane breaks prediction ties, so
                    # its row blocks read ``spikes × V_read`` in float64 and
                    # accumulate in placement order, and each partial sum
                    # goes from currents to weighted sums (* scale, then
                    # / lsb) in two passes as CrossbarArray.evaluate rounds
                    # them.
                    x = head(arena.output_input, rows, n_blocks * g_rows)
                    np.multiply(bits, voltage, out=x[:, : layer.n_in])
                    x[:, layer.n_in :].fill(0.0)
                    drive = head(arena.drive, rows, width)
                    partial = head(arena.partial, rows, width)
                    drive.fill(0.0)
                    for r in range(n_blocks):
                        np.matmul(x[:, r * g_rows : (r + 1) * g_rows], blocks[r], out=partial)
                        np.multiply(partial, fused.scale, out=partial)
                        np.divide(partial, lsb, out=partial)
                        np.add(drive, partial, out=drive)
                # The IF update, one timestep of the chunk at a time, into
                # the spike buffer the layer's input (read in full above)
                # may share.  The reset subtracts fired * threshold from
                # every neuron, which leaves the unfired ones exact
                # (m - 0.0 == m).
                membrane = plan.layers[index].membrane
                spikes = head(arena.spikes, rows, layer.n_out)
                reset = head(arena.partial, batch, layer.n_out)
                for step in range(0, rows, batch):
                    fired = spikes[step : step + batch]
                    np.add(membrane, drive[step : step + batch, : layer.n_out], out=membrane)
                    np.greater_equal(membrane, layer.threshold, out=fired)
                    np.multiply(fired, layer.threshold, out=reset)
                    np.subtract(membrane, reset, out=membrane)
                if event_driven and layer.needs_bus_transfer:
                    io_bus_words += arena.word_scratch[index].count_total(spikes)
                if index < last_index:
                    if event_driven:
                        live = arena.packet_scratch[index].count_total(spikes)
                    bits = spikes
                else:
                    plan.spike_counts += spikes.reshape(steps, batch, -1).sum(axis=0)

        scores = plan.spike_counts + 1e-3 * plan.layers[last_index].membrane
        predictions = np.argmax(scores, axis=1).astype(int)

        counters = self._gather_counters(
            batch * timesteps,
            crossbar_energy,
            switch_hops,
            suppressed_packets,
            io_bus_words,
        )
        return BatchRunOutcome(
            # The plan is reused by the next run on this shape; the outcome
            # must own its spike counts.
            spike_counts=plan.spike_counts.copy(),
            predictions=predictions,
            counters=counters,
            timesteps=timesteps,
        )

    # -- reference execution (parity oracle) --------------------------------------

    def _layer_drive(
        self,
        layer: CompiledLayer,
        conductances: list[np.ndarray],
        current: np.ndarray,
        active_row_energy: list[float],
    ) -> np.ndarray:
        """Weighted sums of one layer for the whole batch (per-tile loop).

        Accumulates per-tile partial sums in placement order and records the
        crossbar read energy of every (sample, tile) evaluation via the
        tiles' active-row cost tables.  ``conductances`` holds each tile's
        :attr:`~repro.fastpath.compiler.CompiledTile.conductance_diff`.
        """
        program = self.program
        batch = current.shape[0]
        drive = np.zeros((batch, layer.n_out))
        for tile, conductance in zip(layer.tiles, conductances):
            block = np.zeros((batch, conductance.shape[0]))
            block[:, : tile.rows] = current[:, tile.row_start : tile.row_stop]
            active_rows = np.count_nonzero(block, axis=1)
            active_row_energy[0] += float(tile.read_cost_j[active_rows].sum())
            # Mirrors CrossbarArray.evaluate: x*V through the differential
            # conductances, then currents back to weighted sums.
            currents = (block * program.read_voltage_v) @ conductance
            weighted = currents * tile.scale / program.current_lsb_a
            drive[:, tile.column_start : tile.column_stop] += weighted[:, : tile.columns]
        return drive

    def run_batch_reference(self, spike_train: np.ndarray) -> BatchRunOutcome:
        """The ``timesteps × layers × tiles`` loop, one tile at a time.

        This is the parity oracle: the fused kernel must match its
        predictions, spike counts and integer counters exactly and its
        crossbar energy within 1e-9 relative (the hypothesis suite in
        ``tests/test_kernel_fused.py`` asserts that across randomized
        geometries and chunkings), and the kernel benchmark measures the
        fused speedup against it.  It runs analog trains too, as the
        structural chip does.
        """
        program = self.program
        train = self._validate_train(np.asarray(spike_train, dtype=float))
        timesteps, batch, _n_in = train.shape
        # The tiles' float64 conductances, looked up once per run.
        conductances = [
            [tile.conductance_diff for tile in layer.tiles] for layer in program.layers
        ]

        # One neuron pool per layer, positionally aligned with the program.
        pools = [
            IFNeuronPool(
                (batch, layer.n_out), IFNeuronParameters(threshold=layer.threshold)
            )
            for layer in program.layers
        ]
        spike_counts = np.zeros((batch, program.output_dim))
        crossbar_energy = [0.0]
        switch_hops = 0
        suppressed_packets = 0
        io_bus_words = 0

        for t in range(timesteps):
            current = train[t]
            if program.event_driven:
                io_bus_words += int(
                    _nonzero_chunk_counts(current, program.word_bits).sum()
                )
            for index, layer in enumerate(program.layers):
                if program.event_driven:
                    live = _nonzero_chunk_counts(current, program.packet_bits)
                    delivered = int(live.sum()) * layer.destinations
                    switch_hops += delivered
                    suppressed_packets += (
                        batch * layer.input_packets * layer.destinations - delivered
                    )
                drive = self._layer_drive(
                    layer, conductances[index], current, crossbar_energy
                )
                spikes = pools[index].step(drive)
                if program.event_driven and layer.needs_bus_transfer:
                    io_bus_words += int(
                        _nonzero_chunk_counts(spikes, program.word_bits).sum()
                    )
                current = spikes
            spike_counts += current

        final_pool = pools[-1]
        scores = spike_counts + 1e-3 * final_pool.membrane
        predictions = np.argmax(scores, axis=1).astype(int)

        counters = self._gather_counters(
            batch * timesteps,
            crossbar_energy[0],
            switch_hops,
            suppressed_packets,
            io_bus_words,
        )
        return BatchRunOutcome(
            spike_counts=spike_counts,
            predictions=predictions,
            counters=counters,
            timesteps=timesteps,
        )

    def _gather_counters(
        self,
        steps: int,
        crossbar_energy_j: float,
        switch_hops: int,
        suppressed_packets: int,
        io_bus_words: int,
    ) -> EventCounters:
        """Scale the static schedule by the executed steps and merge in the
        data-dependent event totals."""
        program = self.program
        static = program.static_events
        counters = EventCounters()
        counters.crossbar_evaluations = steps * static.crossbar_evaluations
        counters.crossbar_device_energy_j = crossbar_energy_j
        counters.neuron_integrations = steps * static.neuron_integrations
        counters.ibuff_accesses = steps * static.ibuff_accesses
        counters.obuff_accesses = steps * static.obuff_accesses
        counters.tbuff_accesses = steps * static.tbuff_accesses
        counters.local_control_events = steps * static.local_control_events
        counters.ccu_transfers = steps * static.ccu_transfers
        counters.input_sram_reads = steps * static.input_sram_reads
        counters.input_sram_writes = steps * static.input_sram_writes
        counters.global_control_events = steps * static.global_control_events
        counters.zero_checks = steps * static.zero_checks
        if program.event_driven:
            counters.switch_hops = switch_hops
            counters.suppressed_packets = suppressed_packets
            counters.io_bus_words = io_bus_words
        else:
            counters.switch_hops = steps * static.switch_hops_without_ed
            counters.io_bus_words = steps * static.io_bus_words_without_ed
        return counters
