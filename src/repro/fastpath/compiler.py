"""Lowering a programmed :class:`~repro.core.resparc.ResparcChip` to arrays.

The structural chip executes one sample at a time by pushing spike packets
through Python objects.  The vectorized backend instead *compiles* the chip
once: each layer's tiles are laid out as the chip's crossbar grid — one
``(row blocks, g_rows, column blocks, g_cols)`` tensor (:class:`FusedLayer`),
of which every :class:`CompiledTile` holds a view — the data-independent
event activity of one timestep is pre-counted into a
:class:`StaticStepEvents` schedule, and the data-dependent crossbar read
energy is tabulated per possible active-row count through the very same
:class:`~repro.crossbar.energy.CrossbarEnergyModel` the structural MCA calls.

Every synapse is programmed as one of the device's conductance levels
(paper §4.2), so a tile's ``g_positive - g_negative`` is a signed level
difference times the conductance of one level.  A hidden layer's grid holds
those signed levels as float32, recovered tile by tile; the output layer's
grid holds the float64 conductance differences themselves.  A chip whose
conductances are off the level grid (programming variation, stuck devices)
does not compile.

The compiled program is immutable and holds no references to the live chip
components, so one chip can serve the structural path and any number of
vectorized batch runs without the two interfering.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.resparc import ResparcChip
from repro.crossbar.device import MemristorModel

__all__ = [
    "CompiledTile",
    "CompiledLayer",
    "FusedLayer",
    "StaticStepEvents",
    "CompiledChip",
    "compile_chip",
]

#: A hidden layer's GEMM sums levels in float32, which holds every integer
#: below this bound exactly, whatever order BLAS adds them in.
EXACT_FLOAT32_SUM = 2**24

_STRUCTURAL_ONLY = "run this chip through the structural backend"


def _chunks(n_items: int, chunk_bits: int) -> int:
    """Number of ``chunk_bits``-wide packets/words covering ``n_items`` slots."""
    return int(math.ceil(n_items / chunk_bits)) if n_items else 0


def _levels_to_conductance(
    levels: np.ndarray, level_conductance: np.ndarray
) -> np.ndarray:
    """``g_positive - g_negative`` (S, float64) of signed conductance levels.

    ``level_conductance[n]`` is ``g(n) - g(0)`` on the device's level table;
    a negative level is the same difference on the negative device plane.
    """
    return np.copysign(level_conductance[np.abs(levels).astype(np.intp)], levels)


def _recover_levels(
    diff: np.ndarray, level_conductance: np.ndarray, layer_index: int
) -> np.ndarray:
    """The signed levels a tile's ``g_positive - g_negative`` was programmed at.

    Raises ``ValueError`` unless the level table maps every recovered level
    back to exactly the programmed difference.
    """
    top = len(level_conductance) - 1
    levels = np.clip(np.rint(diff * (top / level_conductance[top])), -top, top)
    if not np.array_equal(_levels_to_conductance(levels, level_conductance), diff):
        raise ValueError(
            f"layer {layer_index}: conductances off the device's {top + 1}-level "
            "grid (write variation or stuck devices); the vectorized backend runs "
            f"on-grid chips only, {_STRUCTURAL_ONLY}"
        )
    return levels


@dataclass(frozen=True)
class CompiledTile:
    """One programmed MCA, captured as dense arrays.

    ``block`` is the tile's read-only view of its layer's
    :attr:`FusedLayer.grid` (the program stores each grid once): signed
    conductance levels in a hidden layer, conductance differences in the
    output layer.  :attr:`conductance_diff` is the full-geometry
    ``g_positive - g_negative`` matrix either way; evaluating
    ``(x * V_read) @ conductance_diff * scale / lsb`` is what
    :meth:`repro.crossbar.mca.CrossbarArray.evaluate` computes for an ideal
    device.  ``read_cost_j[a]`` is the energy of one evaluation with ``a``
    active rows.
    """

    layer_index: int
    row_start: int
    row_stop: int
    column_start: int
    column_stop: int
    block: np.ndarray
    #: ``g(n) - g(0)`` of every level ``n`` of the device (shared by the chip).
    level_conductance: np.ndarray
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

    @property
    def conductance_diff(self) -> np.ndarray:
        """The programmed ``g_positive - g_negative`` (S, float64)."""
        if self.block.dtype == np.float64:
            return self.block
        return _levels_to_conductance(self.block, self.level_conductance)


@dataclass(frozen=True)
class FusedLayer:
    """A layer's tiles laid out as the chip's crossbar grid.

    The chip builder cuts a layer into ``R`` row blocks × ``C`` column
    blocks of full crossbar geometry (paper §3.1.1): the ``C`` crossbars of
    one row block read the same input lines, and the partial sums of
    successive row blocks accumulate onto each neuron.  Every tile of the
    layer is programmed with one weight scale (``max|W|`` of the layer).

    A hidden layer's grid holds the tiles' signed conductance levels as
    float32, and the whole grid is one ``(R·g_rows, C·g_cols)`` GEMM operand
    (:attr:`matrix`): over 0/1 spikes the product is an integer sum of
    levels, exact in float32 because the compiler bounds every column's
    ``Σ|level|`` below ``2**24``, and ``sum × unit`` is the drive.  The
    output layer's grid holds ``g_positive - g_negative`` as float64; row
    block ``r`` alone is the ``(g_rows, C·g_cols)`` operand
    ``row_blocks[r]``, and the kernel adds the row blocks' partial sums onto
    the drive one at a time, in the placement order the structural chip
    accumulates in, because the output membrane breaks prediction ties.
    """

    #: Tile ``(r, c)`` at ``grid[r, :, c, :]``, shape ``(R, g_rows, C,
    #: g_cols)``: signed levels (float32) in a hidden layer,
    #: ``g_positive - g_negative`` in siemens (float64) in the output layer.
    grid: np.ndarray
    #: The ``scale`` every tile of the layer is programmed with, 0-d.
    scale: np.ndarray
    #: The drive one level adds per active input row, ``V_read · g_level ·
    #: scale / lsb`` with ``g_level`` the conductance of one level, 0-d.
    unit: np.ndarray
    #: Read energy of row block ``r`` with ``a`` active input rows at
    #: ``read_cost[r, a]``: the sum of its ``C`` tiles' cost tables (they
    #: all see the same active rows), ``(R, g_rows + 1)``.
    read_cost: np.ndarray

    @property
    def n_tiles(self) -> int:
        return self.grid.shape[0] * self.grid.shape[2]

    @property
    def geometry(self) -> tuple[int, int]:
        """Full crossbar geometry ``(rows, columns)`` shared by the tiles."""
        return self.grid.shape[1], self.grid.shape[3]

    @property
    def row_blocks(self) -> np.ndarray:
        """``(R, g_rows, C·g_cols)`` view: row block ``r`` as one GEMM operand."""
        n_row_blocks, g_rows, n_col_blocks, g_cols = self.grid.shape
        return self.grid.reshape(n_row_blocks, g_rows, n_col_blocks * g_cols)

    @property
    def matrix(self) -> np.ndarray:
        """``(R·g_rows, C·g_cols)`` view: the whole grid as one GEMM operand."""
        n_row_blocks, g_rows, n_col_blocks, g_cols = self.grid.shape
        return self.grid.reshape(n_row_blocks * g_rows, n_col_blocks * g_cols)


def _read_cost_table(mca, tables: dict) -> np.ndarray:
    """``table[a]``: the energy of one evaluation of ``mca`` with ``a`` active
    rows, through the MCA's own
    :class:`~repro.crossbar.energy.CrossbarEnergyModel`.

    The cost is a function of the MCA's configuration and utilisation only,
    so the MCAs that share both share one read-only table, kept in
    ``tables``.
    """
    key = (mca.config, mca.utilisation)
    table = tables.get(key)
    if table is None:
        rows, columns = mca.config.rows, mca.config.columns
        table = np.array(
            [
                mca.energy_model.read_cost(
                    rows=rows,
                    columns=columns,
                    active_rows=active,
                    utilisation=mca.utilisation,
                ).energy_j
                for active in range(rows + 1)
            ]
        )
        table.flags.writeable = False
        tables[key] = table
    return table


def _fuse_layer(
    chip: ResparcChip,
    layer_index: int,
    hidden: bool,
    level_conductance: np.ndarray,
    lsb: float,
    read_cost_tables: dict,
) -> tuple[FusedLayer, tuple[CompiledTile, ...], int]:
    """Lay a layer's tiles (placement order) out as its crossbar grid.

    Tile ``k = r·C + c`` must cover rows from ``r·g_rows`` and columns from
    ``c·g_cols`` with the geometry and the scale of the layer's other tiles
    — what :meth:`ResparcChip.from_spiking_network` programs, and what lets
    the kernel scale a hidden layer's single GEMM once; anything else raises
    ``ValueError`` naming the layer, as do conductances off the device's
    level grid and, in a ``hidden`` layer, a column whose ``Σ|level|``
    reaches :data:`EXACT_FLOAT32_SUM`.  The grid is filled one tile at a
    time from the tile's programmed conductances, with no layer-sized
    temporary.  Returns the fused layer, the tiles viewing their (read-only)
    blocks of its grid, and the count of distinct (NeuroCell, mPE)
    destinations.
    """
    n_in, n_out = chip.dims_for(layer_index)
    placements = chip.tiles_for_layer(layer_index)
    mcas = [
        chip.neurocells[p.neurocell_index].mpes[p.mpe_index].mcas[p.mca_index]
        for p in placements
    ]
    g_rows, g_cols = mcas[0].config.rows, mcas[0].config.columns
    n_row_blocks = -(-n_in // g_rows)
    n_col_blocks = -(-n_out // g_cols)
    if len(placements) != n_row_blocks * n_col_blocks:
        raise ValueError(
            f"layer {layer_index}: {len(placements)} tiles do not form the "
            f"{n_row_blocks}x{n_col_blocks} crossbar grid of a {n_in}x{n_out} layer"
        )
    grid = np.zeros(
        (n_row_blocks, g_rows, n_col_blocks, g_cols),
        dtype=np.float32 if hidden else np.float64,
    )
    scale = mcas[0].programmed.scale
    read_cost = np.zeros((n_row_blocks, g_rows + 1))
    column_levels = np.zeros((n_col_blocks, g_cols))
    costs = []
    for k, (placement, mca) in enumerate(zip(placements, mcas)):
        if not mca.config.nonidealities.ideal:
            raise ValueError(
                "the vectorized backend requires ideal crossbars; "
                "run non-ideality studies through the structural backend"
            )
        r, c = divmod(k, n_col_blocks)
        a = placement.assignment
        programmed = mca.programmed
        expected = (
            r * g_rows,
            min((r + 1) * g_rows, n_in),
            c * g_cols,
            min((c + 1) * g_cols, n_out),
            (g_rows, g_cols),
            scale,
        )
        placed = (
            a.row_start,
            a.row_stop,
            a.column_start,
            a.column_stop,
            programmed.shape,
            programmed.scale,
        )
        if placed != expected:
            raise ValueError(
                f"layer {layer_index}: tile {k} has (rows, columns, geometry, "
                f"scale) {placed}; grid block ({r}, {c}) needs {expected}"
            )
        diff = programmed.g_positive - programmed.g_negative
        levels = _recover_levels(diff, level_conductance, layer_index)
        grid[r, :, c] = levels if hidden else diff
        column_levels[c] += np.abs(levels).sum(axis=0)
        tile_cost = _read_cost_table(mca, read_cost_tables)
        read_cost[r] += tile_cost
        costs.append(tile_cost)
    if hidden and column_levels.max() >= EXACT_FLOAT32_SUM:
        raise ValueError(
            f"layer {layer_index}: a column's |levels| sum to "
            f"{int(column_levels.max())}, past the 2**24 that float32 sums "
            f"exactly; {_STRUCTURAL_ONLY}"
        )
    grid.flags.writeable = False
    level_current = chip.config.device.read_voltage_v * (
        level_conductance[-1] / (len(level_conductance) - 1)
    )
    fused = FusedLayer(
        grid=grid,
        scale=np.array(scale),
        unit=np.array(level_current * scale / lsb),
        read_cost=read_cost,
    )
    # Views taken after the grid froze are read-only too.
    tiles = tuple(
        CompiledTile(
            layer_index=layer_index,
            row_start=p.assignment.row_start,
            row_stop=p.assignment.row_stop,
            column_start=p.assignment.column_start,
            column_stop=p.assignment.column_stop,
            block=grid[k // n_col_blocks, :, k % n_col_blocks],
            level_conductance=level_conductance,
            scale=scale,
            read_cost_j=cost,
        )
        for k, (p, cost) in enumerate(zip(placements, costs))
    )
    destinations = {(p.neurocell_index, p.mpe_index) for p in placements}
    return fused, tiles, len(destinations)


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
    structural model simulates them.  Raises it too when a conductance is
    off the device's level grid (write variation, stuck devices), or when a
    hidden-layer column's ``Σ|level|`` reaches ``2**24``, past which its
    float32 sums could round.
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
    levels = MemristorModel(device).level_to_conductance(np.arange(device.levels))
    level_conductance = levels - levels[0]
    read_cost_tables: dict = {}

    layers: list[CompiledLayer] = []
    last = len(chip.layer_order) - 1
    for position, layer_index in enumerate(chip.layer_order):
        n_in, n_out = chip.dims_for(layer_index)
        fused, tiles, destinations = _fuse_layer(
            chip, layer_index, position < last, level_conductance, lsb, read_cost_tables
        )
        needs_bus = False
        if position < last:
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
                destinations=destinations,
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
