"""Lowering a programmed :class:`~repro.core.resparc.ResparcChip` to arrays.

The structural chip executes one sample at a time by pushing spike packets
through Python objects.  The vectorized backend instead *compiles* the chip
once: each layer's tiles are laid out as the chip's crossbar grid — one
``(row blocks, g_rows, column blocks, g_cols)`` tensor of the differential
conductances the MCAs apply (:class:`FusedLayer`), of which every
:class:`CompiledTile` holds a view — the data-independent event activity of
one timestep is pre-counted into a :class:`StaticStepEvents` schedule, and
the data-dependent crossbar read energy is tabulated per possible
active-row count through the very same
:class:`~repro.crossbar.energy.CrossbarEnergyModel` the structural MCA calls.

The compiled program is immutable and holds no references to the live chip
components, so one chip can serve the structural path and any number of
vectorized batch runs without the two interfering.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.core.resparc import ResparcChip

__all__ = [
    "CompiledTile",
    "CompiledLayer",
    "FusedLayer",
    "StaticStepEvents",
    "CompiledChip",
    "compile_chip",
]


def _chunks(n_items: int, chunk_bits: int) -> int:
    """Number of ``chunk_bits``-wide packets/words covering ``n_items`` slots."""
    return int(math.ceil(n_items / chunk_bits)) if n_items else 0


@dataclass(frozen=True)
class CompiledTile:
    """One programmed MCA, captured as dense arrays.

    ``conductance_diff`` is the full-geometry ``g_positive - g_negative``
    matrix, held as a read-only view of the tile's block in its layer's
    :attr:`FusedLayer.conductance` (the program stores each conductance
    once).  Evaluating ``(x * V_read) @ conductance_diff * scale / lsb`` is
    what :meth:`repro.crossbar.mca.CrossbarArray.evaluate` computes for an
    ideal device.  ``read_cost_j[a]`` is the energy of one evaluation with
    ``a`` active rows.
    """

    layer_index: int
    row_start: int
    row_stop: int
    column_start: int
    column_stop: int
    conductance_diff: np.ndarray
    scale: float
    read_cost_j: np.ndarray

    @property
    def rows(self) -> int:
        """Input rows the tile consumes."""
        return self.row_stop - self.row_start

    @property
    def columns(self) -> int:
        """Output columns the tile produces."""
        return self.column_stop - self.column_start


@dataclass(frozen=True)
class FusedLayer:
    """A layer's tiles laid out as the chip's crossbar grid.

    The chip builder cuts a layer into ``R`` row blocks × ``C`` column
    blocks of full crossbar geometry (paper §3.1.1): the ``C`` crossbars of
    one row block read the same input lines, and the partial sums of
    successive row blocks accumulate onto each neuron.  Every tile of the
    layer is programmed with one weight scale (``max|W|`` of the layer).

    Stored that way, the whole grid is one ``(R·g_rows, C·g_cols)`` GEMM
    operand (:attr:`matrix`) over the zero-padded layer input, which is how
    the kernel runs a hidden layer: the product sums the row blocks in
    BLAS order, so its drives may differ from placement order in the last
    bits.  Row block ``r`` alone is the ``(g_rows, C·g_cols)`` operand
    ``row_blocks[r]``; the output layer adds those partial sums onto the
    drive one row block at a time, in the placement order the structural
    chip accumulates in, because its membrane breaks prediction ties.
    """

    #: ``g_positive - g_negative`` of tile ``(r, c)`` at
    #: ``conductance[r, :, c, :]``, shape ``(R, g_rows, C, g_cols)``.
    conductance: np.ndarray
    #: The ``scale`` every tile of the layer is programmed with, 0-d.
    scale: np.ndarray
    #: Read energy of row block ``r`` with ``a`` active input rows at
    #: ``read_cost[r, a]``: the sum of its ``C`` tiles' cost tables (they
    #: all see the same active rows), ``(R, g_rows + 1)``.
    read_cost: np.ndarray

    @property
    def n_tiles(self) -> int:
        return self.conductance.shape[0] * self.conductance.shape[2]

    @property
    def geometry(self) -> tuple[int, int]:
        """Full crossbar geometry ``(rows, columns)`` shared by the tiles."""
        return self.conductance.shape[1], self.conductance.shape[3]

    @property
    def row_blocks(self) -> np.ndarray:
        """``(R, g_rows, C·g_cols)`` view: row block ``r`` as one GEMM operand."""
        n_row_blocks, g_rows, n_col_blocks, g_cols = self.conductance.shape
        return self.conductance.reshape(n_row_blocks, g_rows, n_col_blocks * g_cols)

    @property
    def matrix(self) -> np.ndarray:
        """``(R·g_rows, C·g_cols)`` view: the whole grid as one GEMM operand."""
        n_row_blocks, g_rows, n_col_blocks, g_cols = self.conductance.shape
        return self.conductance.reshape(n_row_blocks * g_rows, n_col_blocks * g_cols)


def _fuse_tiles(
    tiles: list[CompiledTile], n_in: int, n_out: int
) -> tuple[FusedLayer, tuple[CompiledTile, ...]]:
    """Lay a layer's tiles (placement order) out as its crossbar grid.

    Tile ``k = r·C + c`` must cover rows from ``r·g_rows`` and columns from
    ``c·g_cols`` with the geometry and the scale of the layer's other tiles
    — what :meth:`ResparcChip.from_spiking_network` programs, and what lets
    the kernel scale a hidden layer's single GEMM once; anything else raises
    ``ValueError`` naming the layer.  Returns the fused layer and the tiles
    re-pointed at their (read-only) blocks of its conductance tensor.
    """
    g_rows, g_cols = tiles[0].conductance_diff.shape
    n_row_blocks = -(-n_in // g_rows)
    n_col_blocks = -(-n_out // g_cols)
    if len(tiles) != n_row_blocks * n_col_blocks:
        raise ValueError(
            f"layer {tiles[0].layer_index}: {len(tiles)} tiles do not form the "
            f"{n_row_blocks}x{n_col_blocks} crossbar grid of a {n_in}x{n_out} layer"
        )
    conductance = np.zeros((n_row_blocks, g_rows, n_col_blocks, g_cols))
    scale = tiles[0].scale
    read_cost = np.zeros((n_row_blocks, g_rows + 1))
    for k, tile in enumerate(tiles):
        r, c = divmod(k, n_col_blocks)
        expected = (
            r * g_rows,
            min((r + 1) * g_rows, n_in),
            c * g_cols,
            min((c + 1) * g_cols, n_out),
            (g_rows, g_cols),
            scale,
        )
        placed = (
            tile.row_start,
            tile.row_stop,
            tile.column_start,
            tile.column_stop,
            tile.conductance_diff.shape,
            tile.scale,
        )
        if placed != expected:
            raise ValueError(
                f"layer {tile.layer_index}: tile {k} has (rows, columns, geometry, "
                f"scale) {placed}; grid block ({r}, {c}) needs {expected}"
            )
        conductance[r, :, c] = tile.conductance_diff
        read_cost[r] += tile.read_cost_j
    conductance.flags.writeable = False
    fused = FusedLayer(
        conductance=conductance, scale=np.array(scale), read_cost=read_cost
    )
    blocks = tuple(
        replace(tile, conductance_diff=conductance[k // n_col_blocks, :, k % n_col_blocks])
        for k, tile in enumerate(tiles)
    )
    return fused, blocks


@dataclass(frozen=True)
class CompiledLayer:
    """One dense layer of the compiled program."""

    layer_index: int
    n_in: int
    n_out: int
    threshold: float
    tiles: tuple[CompiledTile, ...]
    #: Distinct (NeuroCell, mPE) destinations the layer's input is routed to.
    destinations: int
    #: Packets per routed copy of the layer's input vector.
    input_packets: int
    #: True when the layer's output crosses NeuroCells over the shared bus.
    needs_bus_transfer: bool
    #: Words of one output vector on the bus / in the input SRAM.
    output_words: int
    #: The layer's tiles as the crossbar grid the fused kernel runs.
    fused: FusedLayer


@dataclass(frozen=True)
class StaticStepEvents:
    """Data-independent event counts of one chip timestep (one sample).

    These are the events the structural chip generates regardless of the
    spike values: buffer pushes/pops, control sequencing, crossbar
    evaluations, SRAM staging and the per-timestep completion flags.  The
    engine multiplies them by ``batch * timesteps``.
    """

    crossbar_evaluations: int
    neuron_integrations: int
    ibuff_accesses: int
    obuff_accesses: int
    tbuff_accesses: int
    local_control_events: int
    ccu_transfers: int
    input_sram_reads: int
    input_sram_writes: int
    global_control_events: int
    #: Zero-check comparisons (switch packets + bus words); 0 without ED.
    zero_checks: int
    #: Switch hops when event-driven gating is OFF (every packet forwarded).
    switch_hops_without_ed: int
    #: Bus words when event-driven gating is OFF (every word driven).
    io_bus_words_without_ed: int


@dataclass(frozen=True)
class CompiledChip:
    """A :class:`ResparcChip` lowered to a batch-executable program."""

    layers: tuple[CompiledLayer, ...]
    static_events: StaticStepEvents
    event_driven: bool
    packet_bits: int
    word_bits: int
    read_voltage_v: float
    #: Current of a full-scale weight per active row (``V * g_range``).
    current_lsb_a: float
    neurocell_count: int
    active_mpes: int
    active_switches: int
    sram_access_energy_j: float
    sram_leakage_power_w: float

    @property
    def input_dim(self) -> int:
        """Width of the first layer's input vector."""
        return self.layers[0].n_in

    @property
    def output_dim(self) -> int:
        """Width of the last layer's output vector."""
        return self.layers[-1].n_out


#: One compiled program per live chip instance.  A chip's weights are
#: programmed once at construction and never rewritten, so the lowering can
#: be cached for the chip's lifetime; the weak keys let chips be collected.
_COMPILED: "weakref.WeakKeyDictionary[ResparcChip, CompiledChip]" = (
    weakref.WeakKeyDictionary()
)


def compile_chip(chip: ResparcChip) -> CompiledChip:
    """Lower a programmed structural chip into a :class:`CompiledChip`.

    Results are memoized per chip instance (chips are programmed once, at
    construction).  Raises ``ValueError`` when the chip's crossbars enable
    analog non-idealities (IR drop, sneak paths, read noise): those
    evaluation paths are stochastic or geometry-coupled and only the
    structural model simulates them.
    """
    cached = _COMPILED.get(chip)
    if cached is not None:
        return cached
    program = _compile_chip(chip)
    _COMPILED[chip] = program
    return program


def _compile_chip(chip: ResparcChip) -> CompiledChip:
    config = chip.config
    if not chip.tiles:
        raise ValueError("chip has no programmed tiles; build it from a network first")

    device = config.device
    lsb = device.read_voltage_v * (device.g_on_s - device.g_off_s)

    layers: list[CompiledLayer] = []
    for position, layer_index in enumerate(chip.layer_order):
        n_in, n_out = chip.dims_for(layer_index)
        placed: list[CompiledTile] = []
        destinations: dict[tuple[int, int], None] = {}
        for tile in chip.tiles_for_layer(layer_index):
            destinations.setdefault((tile.neurocell_index, tile.mpe_index))
            mpe = chip.neurocells[tile.neurocell_index].mpes[tile.mpe_index]
            mca = mpe.mcas[tile.mca_index]
            if not mca.config.nonidealities.ideal:
                raise ValueError(
                    "the vectorized backend requires ideal crossbars; "
                    "run non-ideality studies through the structural backend"
                )
            programmed = mca.programmed
            rows = mca.config.rows
            cost = mca.energy_model
            read_cost_j = np.array(
                [
                    cost.read_cost(
                        rows=rows,
                        columns=mca.config.columns,
                        active_rows=active,
                        utilisation=mca.utilisation,
                    ).energy_j
                    for active in range(rows + 1)
                ]
            )
            a = tile.assignment
            placed.append(
                CompiledTile(
                    layer_index=layer_index,
                    row_start=a.row_start,
                    row_stop=a.row_stop,
                    column_start=a.column_start,
                    column_stop=a.column_stop,
                    conductance_diff=programmed.g_positive - programmed.g_negative,
                    scale=programmed.scale,
                    read_cost_j=read_cost_j,
                )
            )
        fused, tiles = _fuse_tiles(placed, n_in, n_out)
        needs_bus = False
        if position + 1 < len(chip.layer_order):
            cells_here = {t.neurocell_index for t in chip.tiles_for_layer(layer_index)}
            cells_next = {
                t.neurocell_index
                for t in chip.tiles_for_layer(chip.layer_order[position + 1])
            }
            needs_bus = not cells_next.issubset(cells_here)
        layers.append(
            CompiledLayer(
                layer_index=layer_index,
                n_in=n_in,
                n_out=n_out,
                threshold=chip.threshold_for(layer_index),
                tiles=tiles,
                destinations=len(destinations),
                input_packets=_chunks(n_in, config.packet_bits),
                needs_bus_transfer=needs_bus,
                output_words=_chunks(n_out, config.word_bits),
                fused=fused,
            )
        )

    static = _static_step_events(layers, chip)
    return CompiledChip(
        layers=tuple(layers),
        static_events=static,
        event_driven=config.event_driven,
        packet_bits=config.packet_bits,
        word_bits=config.word_bits,
        read_voltage_v=device.read_voltage_v,
        current_lsb_a=lsb,
        neurocell_count=len(chip.neurocells),
        active_mpes=chip.total_mpes_used,
        active_switches=sum(len(cell.switches) for cell in chip.neurocells),
        sram_access_energy_j=chip.input_memory.access_energy_j(),
        sram_leakage_power_w=chip.input_memory.leakage_power_w(),
    )


def _static_step_events(layers: list[CompiledLayer], chip: ResparcChip) -> StaticStepEvents:
    """Pre-count the data-independent events of one structural timestep."""
    config = chip.config
    input_words = _chunks(layers[0].n_in, config.word_bits)

    crossbar_evaluations = 0
    neuron_integrations = 0
    ibuff = 0
    obuff = 0
    tbuff = 0
    local_control = 0
    ccu = 0
    sram_words = input_words  # the per-step input staging (store + load)
    switch_packets = 0
    bus_words = input_words

    for layer in layers:
        switch_packets += layer.destinations * layer.input_packets
        for tile in layer.tiles:
            crossbar_evaluations += 1
            neuron_integrations += tile.columns
            # deliver_packets pushes then evaluate_tile drains: one write and
            # one read per packet of the tile's row slice.
            ibuff += 2 * _chunks(tile.rows, config.packet_bits)
            # emit_output pushes then pops every output packet.
            obuff += 2 * _chunks(tile.columns, config.packet_bits)
            tbuff += 1
            local_control += 1
            if tile.row_start > 0:
                ccu += 1
        if layer.needs_bus_transfer:
            sram_words += layer.output_words
            bus_words += layer.output_words

    zero_checks = (switch_packets + bus_words) if config.event_driven else 0
    return StaticStepEvents(
        crossbar_evaluations=crossbar_evaluations,
        neuron_integrations=neuron_integrations,
        ibuff_accesses=ibuff,
        obuff_accesses=obuff,
        tbuff_accesses=tbuff,
        local_control_events=local_control,
        ccu_transfers=ccu,
        input_sram_reads=sram_words,
        input_sram_writes=sram_words,
        global_control_events=len(chip.neurocells),
        zero_checks=zero_checks,
        switch_hops_without_ed=switch_packets,
        io_bus_words_without_ed=bus_words,
    )
