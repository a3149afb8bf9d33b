"""Kernel scratch, per-shape run state and the plan cache of the fused kernel.

The engine runs layer-major over *chunks* of consecutive timesteps (see
:mod:`repro.fastpath.engine`), so its buffers are sized by the rows of one
chunk — ``chunk × batch``, about :data:`CHUNK_ROWS` — rather than by the
whole spike train.  They split by what they depend on:

* a :class:`KernelArena` holds the scratch, which every chunk writes before
  it reads: the ``bool`` spikes a layer writes and the next one reads, a
  hidden layer's float32 copy of its input spikes and its float32 level
  sums, the output layer's zero-padded float64 input ``spikes × V_read``,
  one drive, one partial sum (the output layer's row-block products, and
  the ``fired × threshold`` reset of the IF replay), the active-row counts,
  and the event-driven chunk-count scratch of the input train and of each
  layer's output.  One scratch set serves every layer in turn, and every
  execution shape: each
  :class:`~repro.fastpath.engine.VectorizedChipEngine` owns one arena, sized
  by the tallest chunk it has run, which grows when a plan needs more rows
  and never shrinks;
* a :class:`KernelPlan` keeps the run state of one ``(program, batch,
  timesteps)`` shape: its chunk, the membrane each layer carries from chunk
  to chunk and the output spike counts.

The engine writes the buffers with ``out=``/in-place operations, so
steady-state chunks perform no O(rows × width) heap allocations.

:class:`PlanCache` is a small keyed LRU over plans — ``(program, batch,
timesteps)`` — that :class:`~repro.serve.ChipSession` consults per request.
Under the server's dynamic batcher most requests repeat a handful of
shapes, so the common case is a cache hit; hit/miss counts are exported so
the reuse rate is observable.  Since the scratch lives in the engine's
arena, a cached plan costs only its membranes and spike counts.

The arena and a plan's state are mutable: the engine runs one batch at a
time under its lock, and a plan must be run by one engine only.  Sessions
are driven serially (the pool gives every worker its own session, so its
own engine and arena), and the per-session cache never shares a plan
across engines.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.fastpath.compiler import CompiledChip

__all__ = ["CHUNK_ROWS", "ChunkCountScratch", "KernelArena", "KernelPlan", "PlanCache"]


#: Rows (timesteps × batch) a chunk of the layer-major kernel aims for.  A
#: chunk is ``max(1, min(timesteps, CHUNK_ROWS // batch))`` timesteps, so
#: small batches share each pass over the conductances across timesteps.
#: Kernel only, on one BLAS thread, the mixed benchmark workload's 21
#: cifar10-mlp shapes took 2.29–2.77 s summed at 64 rows, 2.16–2.32 s at
#: 128, 2.06–2.13 s at 256 and 2.01–2.04 s at 512: past 256 the gain is a
#: few percent, while the engine's arena grows with the chunk.
CHUNK_ROWS = 256


class ChunkCountScratch:
    """Preallocated buffers for nonzero-chunk counting (integer-exact).

    Gives the total of :func:`repro.fastpath.engine._nonzero_chunk_counts`
    over the rows of a ``bool`` spike matrix: the ``chunk_bits``-wide chunks
    holding any spike, the last chunk of a row possibly shorter.  The spikes
    are read as bytes and OR-reduced from each chunk's first column, which
    needs no padding and works at any chunk width.  A call counts up to
    ``rows`` rows (a short last chunk uses the leading ones).
    """

    def __init__(self, rows: int, n: int, chunk_bits: int):
        self.rows = rows
        self.n = n
        self.chunk_bits = chunk_bits
        self._starts = np.arange(0, n, chunk_bits)
        self.n_chunks = len(self._starts)
        self._any = np.zeros((rows, self.n_chunks), dtype=np.uint8)

    def count_total(self, spikes: np.ndarray) -> int:
        """Total nonzero-chunk count over all rows of ``bool`` ``spikes``."""
        if self.n_chunks == 0:
            return 0
        reduced = self._any[: spikes.shape[0]]
        np.bitwise_or.reduceat(spikes.view(np.uint8), self._starts, axis=1, out=reduced)
        return int(np.count_nonzero(reduced))


def head(flat: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The leading ``rows × width`` elements of a flat buffer, as a matrix.

    The view is C-contiguous whatever the layer's width, which keeps the
    elementwise passes on NumPy's contiguous loops: column views of one
    wide matrix measured 2-3x slower.
    """
    return flat[: rows * width].reshape(rows, width)


class KernelArena:
    """The scratch of one engine, for chunks of up to ``rows`` rows.

    Spikes stay ``bool`` from layer to layer in :attr:`spikes`: a layer reads
    its input spikes in full (active-row counts, the GEMM operand) before it
    writes its output spikes over them, so one spike buffer serves every
    layer.  The buffers are flat; the engine views them per layer through
    :func:`head`.  Each chunk writes a buffer before reading it, so any plan
    whose :attr:`KernelPlan.rows` fit runs on the arena, whatever shape ran
    before it.
    """

    def __init__(self, program: CompiledChip, rows: int):
        self.rows = rows
        grids = [layer.fused.row_blocks.shape for layer in program.layers]
        max_blocks = max(n_blocks for n_blocks, _, _ in grids)
        max_out = max(layer.n_out for layer in program.layers)
        out_size = rows * max(width for _, _, width in grids)
        #: Where each layer's input splits into row blocks: the active-row
        #: counts sum the spikes between these columns.
        self.row_starts = [
            np.arange(0, layer.n_in, g_rows)
            for layer, (_, g_rows, _) in zip(program.layers, grids)
        ]
        #: A hidden layer's 0/1 input spikes in float32, its GEMM operand.
        self.inputs = np.zeros(
            rows * max((layer.n_in for layer in program.layers[:-1]), default=0),
            dtype=np.float32,
        )
        #: The output layer's zero-padded input ``spikes * V_read``, float64.
        n_blocks, g_rows, _ = grids[-1]
        self.output_input = np.zeros(rows * n_blocks * g_rows)
        #: A hidden layer's integer level sums.
        self.sums = np.zeros(
            rows * max((layer.n_out for layer in program.layers[:-1]), default=0),
            dtype=np.float32,
        )
        self.active = np.zeros(rows * max_blocks, dtype=np.int64)
        self.partial = np.zeros(out_size)
        self.drive = np.zeros(out_size)
        #: A layer's output spikes, which the next layer reads as its input.
        self.spikes = np.zeros(rows * max_out, dtype=bool)
        # Event-driven bookkeeping, counted per chunk: the input train, and
        # each layer's *output* spikes — word chunks when the output crosses
        # the bus, packet chunks when a next layer consumes it as routed
        # input.  The lists align positionally with ``program.layers``.
        self.input_word_scratch: ChunkCountScratch | None = None
        self.input_packet_scratch: ChunkCountScratch | None = None
        self.word_scratch: list[ChunkCountScratch | None] = [None] * len(program.layers)
        self.packet_scratch: list[ChunkCountScratch | None] = [None] * len(program.layers)
        if program.event_driven:
            n_in = program.input_dim
            self.input_word_scratch = ChunkCountScratch(rows, n_in, program.word_bits)
            self.input_packet_scratch = ChunkCountScratch(rows, n_in, program.packet_bits)
            last = len(program.layers) - 1
            for index, layer in enumerate(program.layers):
                if layer.needs_bus_transfer:
                    self.word_scratch[index] = ChunkCountScratch(
                        rows, layer.n_out, program.word_bits
                    )
                if index < last:
                    self.packet_scratch[index] = ChunkCountScratch(
                        rows, layer.n_out, program.packet_bits
                    )


class _LayerState:
    """The membrane one layer carries from chunk to chunk."""

    def __init__(self, batch: int, n_out: int):
        self.membrane = np.zeros((batch, n_out))


class KernelPlan:
    """The run state of one ``(program, batch, timesteps)`` execution.

    The scratch it runs on is the engine's :class:`KernelArena`.
    """

    def __init__(self, program: CompiledChip, batch: int, timesteps: int):
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        self.program = program
        self.batch = batch
        self.timesteps = timesteps
        #: Timesteps per chunk; a full chunk spans :attr:`rows` rows.
        self.chunk = max(1, min(timesteps, CHUNK_ROWS // batch))
        self.rows = self.chunk * batch
        self.spike_counts = np.zeros((batch, program.output_dim))
        #: Per-layer run state, aligned positionally with ``program.layers``.
        self.layers = [_LayerState(batch, layer.n_out) for layer in program.layers]

    def check(self, program: CompiledChip, batch: int, timesteps: int) -> None:
        """Raise when the plan was built for a different execution shape."""
        if program is not self.program:
            raise ValueError("plan was compiled for a different program")
        if batch != self.batch or timesteps != self.timesteps:
            raise ValueError(
                f"plan was allocated for batch={self.batch} "
                f"timesteps={self.timesteps}, got batch={batch} "
                f"timesteps={timesteps}"
            )

    def reset(self) -> None:
        """Zero the run state carried across chunks."""
        for state in self.layers:
            state.membrane.fill(0.0)
        self.spike_counts.fill(0.0)


class PlanCache:
    """A small LRU of :class:`KernelPlan`\\ s keyed by execution shape.

    The cache retains each plan's program, so an entry's identity key can
    never be recycled while the entry lives.  ``get`` is thread-safe; each
    plan it returns must be run by one engine (see the module docstring).
    """

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._plans: OrderedDict[tuple[int, int, int], KernelPlan] = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self, program: CompiledChip, batch: int, timesteps: int
    ) -> tuple[KernelPlan, bool]:
        """The cached plan for the shape (hit) or a fresh one (miss)."""
        key = (id(program), batch, timesteps)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan, True
            plan = KernelPlan(program, batch, timesteps)
            self._plans[key] = plan
            self.misses += 1
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
            return plan, False

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}
