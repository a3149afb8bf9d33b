"""Connectivity-matrix partitioning onto fixed-size MCAs.

Section 3.1.1 of the paper: crossbars that operate reliably are much smaller
(e.g. 64x64) than a typical layer's fan-in, so a layer's connectivity matrix
must be partitioned across multiple MCAs and the partial sums integrated onto
the neuron by time multiplexing.  For sparse connectivity (CNNs), mapping
directly onto a large MCA wastes cross-points; enumerating the matrix across
smaller MCAs lets adjacent convolution windows share input rows, which is the
"input sharing" optimisation this partitioner models.

The partitioner works on the structural :class:`~repro.snn.topology.LayerConnectivity`
descriptors, not on weight values, and produces a :class:`LayerPartition`
summarising, for one layer and one crossbar size:

* how many crossbar tiles the layer needs,
* the rows/columns actually used per tile (utilisation),
* the time-multiplexing degree of its neurons (how many partial current sets
  each output neuron integrates),
* how many of those partial sums cross tile boundaries (and therefore need
  CCU analog transfers between mPEs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.snn.topology import LayerConnectivity

__all__ = ["TileGroup", "LayerPartition", "partition_layer", "partition_network_layers"]


@dataclass(frozen=True)
class TileGroup:
    """A group of identically shaped crossbar tiles within one layer.

    Conv layers produce thousands of tiles with identical geometry; grouping
    them keeps partitions compact.

    Attributes
    ----------
    count:
        Number of identical tiles in the group.
    rows_used, columns_used:
        Cross-points used in each tile (out of the physical crossbar
        geometry).
    synapses_per_tile:
        Mapped synapses per tile (<= rows_used * columns_used for sparse
        connectivity).
    outputs_per_tile:
        Logical output neurons whose (partial) sums this tile produces.
    windows_per_tile:
        Distinct input windows packed into the tile (1 for dense tiles).
    """

    count: int
    rows_used: int
    columns_used: int
    synapses_per_tile: int
    outputs_per_tile: int
    windows_per_tile: int = 1


@dataclass(frozen=True)
class LayerPartition:
    """Partition of one layer's connectivity matrix across fixed-size MCAs."""

    layer: LayerConnectivity
    crossbar_rows: int
    crossbar_columns: int
    tile_groups: tuple[TileGroup, ...]
    time_multiplex_degree: int

    # -- tile-level aggregates ---------------------------------------------------

    @property
    def tile_count(self) -> int:
        """Total MCAs used by the layer."""
        return sum(group.count for group in self.tile_groups)

    @property
    def mapped_synapses(self) -> int:
        """Synapses mapped across all tiles (equals the layer's synapse count)."""
        return sum(group.count * group.synapses_per_tile for group in self.tile_groups)

    @property
    def crosspoints(self) -> int:
        """Physical cross-points occupied by the layer's tiles."""
        return self.tile_count * self.crossbar_rows * self.crossbar_columns

    @property
    def utilisation(self) -> float:
        """Fraction of allocated cross-points that hold synapses."""
        return self.mapped_synapses / self.crosspoints if self.crosspoints else 0.0

    @property
    def mean_rows_used(self) -> float:
        """Average rows used per tile."""
        if self.tile_count == 0:
            return 0.0
        return sum(g.count * g.rows_used for g in self.tile_groups) / self.tile_count

    @property
    def mean_columns_used(self) -> float:
        """Average columns used per tile."""
        if self.tile_count == 0:
            return 0.0
        return sum(g.count * g.columns_used for g in self.tile_groups) / self.tile_count

    @property
    def row_utilisation(self) -> float:
        """Mean fraction of crossbar rows used."""
        return self.mean_rows_used / self.crossbar_rows if self.crossbar_rows else 0.0

    @property
    def column_utilisation(self) -> float:
        """Mean fraction of crossbar columns used."""
        return self.mean_columns_used / self.crossbar_columns if self.crossbar_columns else 0.0

    # -- per-timestep activity counts ---------------------------------------------

    @property
    def crossbar_evaluations_per_timestep(self) -> int:
        """MCA evaluations per simulation timestep (every tile fires once)."""
        return self.tile_count

    @property
    def neuron_integrations_per_timestep(self) -> int:
        """Partial-sum integrations per timestep (outputs x time-mux degree)."""
        return self.layer.n_outputs * self.time_multiplex_degree

    @property
    def external_current_transfers_per_timestep(self) -> int:
        """Analog partial sums that must hop between crossbars/mPEs per timestep.

        A neuron whose fan-in spans ``d`` tiles integrates ``d`` partial sums,
        ``d - 1`` of which may arrive from other MCAs through the CCU gated
        wires.
        """
        return self.layer.n_outputs * max(self.time_multiplex_degree - 1, 0)


def _partition_packed_windows(
    layer: LayerConnectivity, rows: int, columns: int
) -> tuple[tuple[TileGroup, ...], int]:
    """Partition a sparse layer whose windows fit inside one crossbar."""
    fan_in = layer.fan_in
    outputs_per_window = layer.outputs_per_window
    positions = layer.window_positions
    step = max(layer.shared_inputs_per_step, 1)

    windows_by_rows = 1 + (rows - fan_in) // step
    windows_by_columns = max(columns // outputs_per_window, 1)
    windows_per_tile = max(1, min(windows_by_rows, windows_by_columns, positions))

    full_tiles, remainder = divmod(positions, windows_per_tile)
    groups: list[TileGroup] = []
    if full_tiles:
        groups.append(
            TileGroup(
                count=full_tiles,
                rows_used=fan_in + (windows_per_tile - 1) * step,
                columns_used=windows_per_tile * outputs_per_window,
                synapses_per_tile=windows_per_tile * outputs_per_window * fan_in,
                outputs_per_tile=windows_per_tile * outputs_per_window,
                windows_per_tile=windows_per_tile,
            )
        )
    if remainder:
        groups.append(
            TileGroup(
                count=1,
                rows_used=fan_in + (remainder - 1) * step,
                columns_used=remainder * outputs_per_window,
                synapses_per_tile=remainder * outputs_per_window * fan_in,
                outputs_per_tile=remainder * outputs_per_window,
                windows_per_tile=remainder,
            )
        )
    return tuple(groups), 1


def _partition_split_windows(
    layer: LayerConnectivity, rows: int, columns: int
) -> tuple[tuple[TileGroup, ...], int]:
    """Partition a layer whose fan-in and/or outputs exceed one crossbar.

    Every window (a dense layer is one window covering all outputs) is split
    into a grid of ``row_splits x column_splits`` tiles; the row splits set
    the time-multiplexing degree.
    """
    fan_in = layer.fan_in
    outputs_per_window = layer.outputs_per_window
    positions = layer.window_positions

    row_splits = math.ceil(fan_in / rows)

    full_rows, row_remainder = divmod(fan_in, rows)
    full_columns, column_remainder = divmod(outputs_per_window, columns)

    row_blocks = [rows] * full_rows + ([row_remainder] if row_remainder else [])
    column_blocks = [columns] * full_columns + ([column_remainder] if column_remainder else [])

    # Group identical (row_block, column_block) combinations.
    combos: dict[tuple[int, int], int] = {}
    for r_block in row_blocks:
        for c_block in column_blocks:
            combos[(r_block, c_block)] = combos.get((r_block, c_block), 0) + 1

    groups = tuple(
        TileGroup(
            count=count * positions,
            rows_used=r_block,
            columns_used=c_block,
            synapses_per_tile=r_block * c_block,
            outputs_per_tile=c_block,
            windows_per_tile=1,
        )
        for (r_block, c_block), count in sorted(combos.items(), reverse=True)
    )
    return groups, row_splits


def partition_layer(layer: LayerConnectivity, rows: int, columns: int) -> LayerPartition:
    """Partition one layer across crossbars of geometry ``rows x columns``."""
    if rows <= 0 or columns <= 0:
        raise ValueError(f"crossbar geometry must be positive, got {rows}x{columns}")
    fits_rows = layer.fan_in <= rows
    fits_columns = layer.outputs_per_window <= columns
    if fits_rows and fits_columns and layer.window_positions > 1:
        groups, tmux = _partition_packed_windows(layer, rows, columns)
    else:
        groups, tmux = _partition_split_windows(layer, rows, columns)
    return LayerPartition(
        layer=layer,
        crossbar_rows=rows,
        crossbar_columns=columns,
        tile_groups=groups,
        time_multiplex_degree=tmux,
    )


def partition_network_layers(
    layers: list[LayerConnectivity], rows: int, columns: int
) -> list[LayerPartition]:
    """Partition every computational layer of a network."""
    return [partition_layer(layer, rows, columns) for layer in layers]
